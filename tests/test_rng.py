from padicref.rng import SplitMix64


class TestSplitMix64:
    def test_known_answers(self):
        # reference outputs of splitmix64 (Steele, Lea & Flood, OOPSLA 2014)
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(2)] == [0xE220A8397B1DCDAF,
                                                      0x6E789E6AA1B965F4]
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(2)] == [6457827717110365317,
                                                      3203168211198807973]
