import pytest

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

    def test_randrange_bounds(self):
        class Bounded(SplitMix64):
            # fails instead of looping forever if a bound check goes missing
            def next_u64(self):
                self.draws = getattr(self, "draws", 0) + 1
                assert self.draws < 1000
                return super().next_u64()

        for n in (0, -3, (1 << 64) + 1, 1 << 80):
            with pytest.raises(ValueError):
                Bounded(5).randrange(n)
        # n = 2^64 accepts every draw: the stream itself
        rng, ref = Bounded(7), SplitMix64(7)
        assert [rng.randrange(1 << 64) for _ in range(3)] == [ref.next_u64() for _ in range(3)]
        assert rng.randrange(1) == 0
