import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicref import branchfam, cli, princhecke, refine, rootspin, shalikazeta
from padicref.cli import main
from padicref.perms import compose, longest_perm
from padicref.symring import SymElem


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _body(out: str) -> bytes:
    doc = json.loads(out)
    return json.dumps(doc["body"], sort_keys=True, separators=(",", ":")).encode()


# sha256 of the body of ``padicref run`` at the default config, hashed as
# perfbench/workloads.py hashes it: _body(out) + b"\n"
REFERENCE_BODY_SHA256 = \
    "e98eaf1697294642aa7ca45fde0e78a8e6bb8b655400b4af7de6d06922886c7d"

# the same for ``padicref run --n 3 --suites spin-enum,weyl-transfer``, the
# one report that reaches the GSpin side at rank 3
RANK3_GSPIN_BODY_SHA256 = \
    "9295ff94ad962f38c64e42420eb8f006d47fa0f498c346c9541648b4b7879ecf"

# the same for ``padicref run --p 5 --beta 2 --suites
# zeta-iwahori,zeta-parahoric``: both zeta oracles for every character of
# conductor 5 and 25
P5_ZETA_BODY_SHA256 = \
    "bed1af902d95bf141156697572cb3b6e02e35bda16fd3f708d6b1e339849d8ab"

# the same for ``padicref run --n 3 --beta 2``, where the branching suites
# loop over two depths
RANK3_BETA2_BODY_SHA256 = \
    "7ef9cdbc096a3a2e6a1b6b1a14ee10b145e93538b991ddbc3e93c22e07d5a275"

# the same for ``padicref run --p 2 --beta 2``, the one report that reaches
# the p = 2 family characters: wild base 5 and the +-1 Teichmueller lift
P2_BETA2_BODY_SHA256 = \
    "68a80b1d2b5b1cd19bd3d1c1549d87b7ecc68f8c9b9afb2e31e29888057b1b7a"

# the same for ``padicref run --p 5 --beta 2 --family-prec 6``, the heaviest
# user of the conductor-25 Gauss sums
P5_FAMILY_BODY_SHA256 = \
    "772d12c568bcbb48733ddb765a2b7f9680bfc6e5309d9335f32c3fc23a13bdf3"

SRC = Path(__file__).resolve().parent.parent / "src"


class TestRejectedInput:
    @pytest.mark.parametrize("argv", [
        ["run", "--family-degree", "0"],
        ["enumerate", "--p", "4"],
        ["run", "--samples", "-5"],
        ["zeta", "--beta", "3"],
        ["run", "--suites", "interp-diagram", "--family-degree", "3"],
        ["run", "--suites", ","],
        ["run", "--suites", "nope"],
        ["run", "--n", "4"],
        ["run", "--shells", "1"],
        ["enumerate", "--n", "4"],
        ["zeta", "--shells", "1"],
        ["run", "--shells", "9"],
        ["zeta", "--kind", "iwahori", "--oracle", "--shells", "9"],
        ["zeta", "--kind", "iwahori", "--p", "2", "--beta", "1"],
        ["run", "--suites", ""],
        ["run", "--seed", "-1"],
        ["run", "--seed", "18446744073709551616"],
        ["run", "--n", "abc"],
        ["run", "--bogus"],
        [],
        ["zeta", "--kind", "x"],
    ], ids=["family-degree-0", "enumerate-non-prime", "negative-samples",
            "zeta-beta-3", "interp-degree-uncertified", "empty-suite-list",
            "unknown-suite", "n-4", "shells-1", "enumerate-n-4",
            "zeta-shells-1", "shells-9", "zeta-oracle-shells-9",
            "zeta-no-character", "empty-suites-flag", "negative-seed",
            "seed-2-64", "non-integer-n", "unknown-flag", "no-subcommand",
            "unknown-zeta-kind"])
    def test_config_error_exit_two(self, argv, capsys):
        code, out, err = _run(argv, capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "config"
        assert doc["message"]

    @pytest.mark.parametrize("argv, need, prec", [
        (["--family-degree", "3"], 4, 8),
        (["--family-prec", "5", "--family-degree", "1"], 3, 5),
    ], ids=["default-precision", "precision-5"])
    def test_uncertified_family_degree_message(self, argv, need, prec, capsys):
        code, out, err = _run(["run", "--suites", "interp-diagram", *argv], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "config",
            "message": f"interp-diagram needs family degree >= {need} "
                       f"at family precision {prec}"}

    @pytest.mark.parametrize("argv", [
        ["run", "--suites", "zeta-iwahori"],
        ["zeta", "--oracle"],
    ], ids=["run", "zeta-oracle"])
    def test_uncertified_truncation_exit_two(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise shalikazeta.TruncationError("outermost Y-shells do not vanish")
        monkeypatch.setattr(shalikazeta, "ag_intertwine_value", refuse)
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "truncation",
                                        "message": "outermost Y-shells do not vanish"}

    def test_unwritable_out_path_exit_two(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        code, out, err = _run(["run", "--suites", "spin-enum", "--out",
                               str(path)], capsys)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "output"
        assert doc["message"]
        assert not path.parent.exists()


class TestAcceptedInput:
    def test_list(self, capsys):
        code, out, err = _run(["list"], capsys)
        assert code == 0
        assert "spin-enum:" in out and err == ""

    def test_run_one_suite(self, capsys):
        code, out, err = _run(["run", "--suites", "spin-enum"], capsys)
        assert code == 0
        body = json.loads(out)["body"]
        assert body["ok"] and body["failed"] == 0
        assert [s["name"] for s in body["suites"]] == ["spin-enum"]

    def test_largest_seed(self, capsys):
        code, out, err = _run(["run", "--suites", "spin-enum", "--seed",
                               "18446744073709551615"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["body"]["config"]["seed"] == (1 << 64) - 1

    def test_run_writes_the_body_to_out(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code, out, err = _run(["run", "--suites", "spin-enum", "--out",
                               str(path)], capsys)
        assert code == 0 and out == "" and err == ""
        _, stdout, _ = _run(["run", "--suites", "spin-enum"], capsys)
        assert _body(path.read_text(encoding="utf-8")) == _body(stdout)

    def test_enumerate(self, capsys):
        code, out, err = _run(["enumerate", "--n", "2", "--p", "3"], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["refinements"] == 24 and doc["spin"] == 8
        assert len(doc["spin_cells"]) == 8

    # the sha256 of stdout pins the whole output byte for byte
    @pytest.mark.parametrize("kind, beta, stdout_sha256", [
        pytest.param("iwahori", 1,
                     "f2f25ecf10f300503f9439a35052265450e3ddd9a6216136f0e10d872cb942a5",
                     id="iwahori"),
        pytest.param("parahoric", 1,
                     "aaf6c65c11fa3d0d84fb5871250e96b70cf1a6d0845047d6a152486ff9e10f8e",
                     id="parahoric"),
        pytest.param("iwahori", 2,
                     "1e9b0769e7e007e51eb6f1c2b7ccec834378f9d0f656dbe3cc1e35be544b6c58",
                     id="iwahori-beta2"),
    ])
    def test_zeta_oracle_matches(self, kind, beta, stdout_sha256, capsys):
        code, out, err = _run(["zeta", "--kind", kind, "--p", "3", "--beta",
                               str(beta), "--oracle"], capsys)
        assert code == 0 and err == ""
        entries = json.loads(out)
        assert entries and all(e["oracle_matches"] is True for e in entries)
        # the characters of conductor 3 (one) or 9 (four)
        assert len(entries) == (1 if beta == 1 else 4) + (kind == "parahoric")
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256

    def test_zeta_oracle_at_the_largest_shell_count(self, capsys):
        # the three characters of conductor 5 at cli.MAX_SHELLS shells
        code, out, err = _run(["zeta", "--kind", "iwahori", "--oracle", "--p", "5",
                               "--beta", "1", "--shells", "8"], capsys)
        assert code == 0 and err == ""
        entries = json.loads(out)
        assert len(entries) == 3 and all(e["oracle_matches"] is True for e in entries)
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "4bdd22015ce0b87449b9ab95007761bc07bcea1100eecb302bd78a7df5da0a86"

    def test_default_body_matches_the_reference(self, capsys):
        code, out, _ = _run(["run"], capsys)
        assert code == 0
        assert hashlib.sha256(_body(out) + b"\n").hexdigest() == REFERENCE_BODY_SHA256

    def test_rank3_gspin_body_matches_the_reference(self, capsys):
        code, out, _ = _run(["run", "--n", "3", "--suites",
                             "spin-enum,weyl-transfer"], capsys)
        assert code == 0
        assert hashlib.sha256(_body(out) + b"\n").hexdigest() == RANK3_GSPIN_BODY_SHA256

    def test_p5_zeta_body_matches_the_reference(self, capsys):
        code, out, _ = _run(["run", "--p", "5", "--beta", "2", "--suites",
                             "zeta-iwahori,zeta-parahoric"], capsys)
        assert code == 0
        body = json.loads(out)["body"]
        assert (body["passed"], body["failed"]) == (39, 0)
        assert hashlib.sha256(_body(out) + b"\n").hexdigest() == P5_ZETA_BODY_SHA256

    def test_rank3_beta2_body_matches_the_reference(self, capsys):
        code, out, _ = _run(["run", "--n", "3", "--beta", "2"], capsys)
        assert code == 0
        body = json.loads(out)["body"]
        assert (body["passed"], body["failed"]) == (72, 0)
        assert hashlib.sha256(_body(out) + b"\n").hexdigest() == RANK3_BETA2_BODY_SHA256

    def test_p2_beta2_body_matches_the_reference(self, capsys):
        code, out, _ = _run(["run", "--p", "2", "--beta", "2"], capsys)
        assert code == 0
        body = json.loads(out)["body"]
        assert (body["passed"], body["failed"]) == (59, 0)
        assert hashlib.sha256(_body(out) + b"\n").hexdigest() == P2_BETA2_BODY_SHA256

    def test_p5_family_body_matches_the_reference(self, capsys):
        code, out, _ = _run(["run", "--p", "5", "--beta", "2", "--family-prec", "6"],
                            capsys)
        assert code == 0
        body = json.loads(out)["body"]
        assert (body["passed"], body["failed"]) == (94, 0)
        assert hashlib.sha256(_body(out) + b"\n").hexdigest() == P5_FAMILY_BODY_SHA256

    def test_meta_times_each_suite_in_body_order(self):
        report = cli.run(cli.SuiteConfig())
        body = json.dumps(report["body"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(body.encode() + b"\n").hexdigest() == REFERENCE_BODY_SHA256
        timings = report["meta"]["suites"]
        assert [t["name"] for t in timings] == [s["name"] for s in report["body"]["suites"]]
        assert all(set(t) == {"name", "elapsed_seconds"} for t in timings)
        assert all(isinstance(t["elapsed_seconds"], float) and t["elapsed_seconds"] >= 0
                   for t in timings)

    def test_python_m_padicref(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "padicref", *argv],
                                  capture_output=True, text=True, env=env)

        listed = run("list")
        assert listed.returncode == 0 and "spin-enum:" in listed.stdout
        rejected = run("run", "--p", "7")
        assert rejected.returncode == 2 and rejected.stdout == ""
        assert json.loads(rejected.stderr)["error"] == "config"

    def test_body_is_deterministic(self, capsys):
        argv = ["run", "--suites", "cell-support,spin-enum", "--samples", "8",
                "--seed", "7"]
        first = _run(argv, capsys)
        second = _run(argv, capsys)
        assert first[0] == second[0] == 0
        assert _body(first[1]) == _body(second[1])

    def test_interp_diagram_at_the_certified_degree(self, capsys):
        # p = 3: the family points have v_p >= 2, so degree 3 reaches p^6
        code, out, _ = _run(["run", "--suites", "interp-diagram",
                             "--family-prec", "6", "--family-degree", "3"],
                            capsys)
        assert code == 0
        assert json.loads(out)["body"]["ok"]

    @pytest.mark.parametrize("p, prec", [("2", "1"), ("2", "3"), ("3", "1"),
                                         ("3", "2"), ("5", "2")])
    def test_interp_diagram_at_low_family_precision(self, p, prec, capsys):
        # every point b^e - 1 is 0 mod p^M here, so validation reads the
        # valuation off the exact points
        code, out, err = _run(["run", "--suites", "interp-diagram", "--p", p,
                               "--family-prec", prec], capsys)
        assert code == 0 and err == ""
        body = json.loads(out)["body"]
        assert (body["passed"], body["failed"]) == (4, 0)

    def test_suite_samples_do_not_depend_on_the_suite_list(self, capsys):
        alone = _run(["run", "--suites", "cell-support", "--samples", "8",
                      "--seed", "7"], capsys)
        mixed = _run(["run", "--suites", "spin-enum,cell-support",
                      "--samples", "8", "--seed", "7"], capsys)
        suites = {s["name"]: s for s in json.loads(mixed[1])["body"]["suites"]}
        assert json.loads(alone[1])["body"]["suites"] == [suites["cell-support"]]


class TestNoRepeatedFactorization:
    def test_default_run(self, monkeypatch):
        # the inputs of each factorization, by the suite that asked for it
        inputs = {}
        current = [None]

        def count(module, name, key):
            original = getattr(module, name)

            def counted(*args):
                inputs.setdefault((current[0], name), []).append(key(*args))
                return original(*args)
            monkeypatch.setattr(module, name, counted)

        count(princhecke, "bruhat_cell_valuations",
              lambda p, rows: (p, tuple(map(tuple, rows))))
        for name in ("open_cell_factorize", "_iw1_coordinates", "v_lambda_all"):
            count(branchfam, name, lambda g, *_: g.rows)
        for suite, entry in cli.CATALOG.items():
            def tagged(cfg, rng, suite=suite, fn=entry["fn"]):
                current[0] = suite
                return fn(cfg, rng)
            monkeypatch.setitem(entry, "fn", tagged)
        princhecke._hecke_cells.cache_clear()
        assert cli.run(cli.SuiteConfig())["body"]["ok"]

        # each Weyl representative rho meets each coset matrix of each
        # (2n, r) once: 2! * 3 + 4! * (3^3 + 3^4 + 3^3) = 3,246 at p = 3, and
        # no sigma repeats one
        hecke = inputs[("hecke-eigen", "bruhat_cell_valuations")]
        assert len(hecke) == len(set(hecke)) == 2 * 3 + 24 * (27 + 81 + 27)
        for suite in ("branching-support", "interp-diagram"):
            points = inputs[(suite, "_iw1_coordinates")]
            cells = inputs[(suite, "open_cell_factorize")]
            samples = inputs.get((suite, "v_lambda_all"), [])
            # each sampled Iwahori point gets one set of Iw^1 coordinates
            # and one open-cell factorization, whatever j or map reads them
            assert len(points) == len(set(points))
            assert all(cells.count(g) == 1 for g in points)
            # the rest: its n-part, inside the coordinates, and one
            # factorization per N^beta sample for all j
            assert len(cells) == 2 * len(points) + len(samples)


class TestFailedCase:
    def test_failed_case_exit_one(self, monkeypatch, capsys):
        def failing(cfg, rng):
            return [cli._case("forced", "none", "paper", ["left != right"])]

        monkeypatch.setitem(cli.CATALOG["spin-enum"], "fn", failing)
        code, out, err = _run(["run", "--suites", "spin-enum"], capsys)
        assert code == 1 and err == ""
        body = json.loads(out)["body"]
        assert body["ok"] is False
        assert body["failed"] == 1 and body["passed"] == 0
        assert body["suites"][0]["cases"][0]["witness"] == "left != right"

    def test_case_reads_failures_up_to_the_first(self):
        read = []

        def failures():
            for i in range(5):
                read.append(i)
                if i >= 2:
                    yield f"i={i}"

        case = cli._case("c", "i<5", "paper", failures())
        assert case["outcome"] == "fail" and case["witness"] == "i=2"
        assert read == [0, 1, 2]
        assert cli._case("c", "none", "paper") == {
            "name": "c", "inputs": "none", "expected": "paper", "outcome": "pass"}


class TestWitnesses:
    """Failures planted by patching: each failing case names its input."""

    @staticmethod
    def _failing(argv, capsys):
        code, out, err = _run(argv, capsys)
        assert code == 1 and err == ""
        cases = [c for s in json.loads(out)["body"]["suites"] for c in s["cases"]
                 if c["outcome"] == "fail"]
        assert cases
        assert all(c["witness"] and "mismatch" not in c["witness"] for c in cases)
        return cases

    def test_sampled_suite(self, monkeypatch, capsys):
        right = shalikazeta.shalika_support_bruhat
        monkeypatch.setattr(shalikazeta, "shalika_support_bruhat",
                            lambda *args: not right(*args))
        cases = self._failing(["run", "--suites", "cell-support", "--samples", "8"],
                              capsys)
        names = {c["name"].rsplit("-n", 1)[0] for c in cases}
        assert names == {"predicate-vs-cell", "in-cell-positives"}
        for case in cases:
            assert "k=PadicMatrix(" in case["witness"]
            assert "x=PadicMatrix(" in case["witness"]
            if case["name"].startswith("predicate-vs-cell"):
                assert case["witness"].startswith("delta=(")

    def test_eigenvector(self, monkeypatch, capsys):
        monkeypatch.setattr(princhecke, "eigenvector_check", lambda *args: False)
        cases = self._failing(["run", "--suites", "hecke-eigen"], capsys)
        assert len(cases) == 17
        for case in cases:
            sigma_r = case["inputs"].split(" ", 1)[1]
            assert sigma_r in case["witness"]

    def test_gspin_membership(self, monkeypatch, capsys):
        # reject one spin pattern on the Weyl side: gspin-exact must see it
        sat = refine.SatakeParameter.generic(3, 2)
        ref = next(r for r in refine.all_refinements(sat) if refine.is_spin(r))
        pattern = compose(refine.delta_theta_tau(ref), longest_perm(4))
        right = refine.jvee_weyl

        def rejecting(sigma):
            if tuple(sigma) == pattern:
                raise rootspin.RootDataError(f"{sigma} rejected")
            return right(sigma)

        monkeypatch.setattr(refine, "jvee_weyl", rejecting)
        cases = self._failing(["run", "--suites", "spin-enum"], capsys)
        assert [c["name"] for c in cases] == ["gspin-exact-n2"]
        assert cases[0]["witness"] == f"sigma={ref.sigma} spin=True"

    def test_ramified_ratio(self, monkeypatch, capsys):
        right = shalikazeta.qprime_factor
        monkeypatch.setattr(shalikazeta, "qprime_factor",
                            lambda *args: right(*args) * Fraction(2))
        cases = self._failing(["run", "--suites", "euler-factors"], capsys)
        assert [c["name"] for c in cases] == ["ramified-ratio-n1", "ramified-ratio-n2"]
        for case in cases:
            assert case["witness"].startswith("chi=chi3^1[1] j=-1: ")

    def test_vanishing_parahoric_route(self, monkeypatch, capsys):
        # a parahoric route of zero has no ratio to compare: every constancy
        # case fails, naming the route and its first pair
        monkeypatch.setattr(shalikazeta, "zeta_parahoric_closed",
                            lambda sat, chi, beta: shalikazeta.ZetaResult(
                                SymElem.rational(sat.p, 0)))
        cases = self._failing(["run", "--suites", "comparison"], capsys)
        assert [(c["name"], c["witness"]) for c in cases] == [
            (f"{kind}-constancy-n{n}",
             f"the parahoric route vanishes at (TwistCharacter({label}), -1)")
            for n in (1, 2) for kind, label in (("ramified", "chi3^1[1]"),
                                                ("trivial", 1))]


class TestSuiteList:
    def test_order_and_repeats_do_not_change_the_body(self, capsys):
        bodies = []
        for suites in ("spin-enum,weyl-transfer", "weyl-transfer,spin-enum",
                       "spin-enum,weyl-transfer,spin-enum,"):
            code, out, _ = _run(["run", "--suites", suites, "--n", "1"], capsys)
            assert code == 0
            bodies.append(_body(out))
        assert bodies[0] == bodies[1] == bodies[2]
        assert json.loads(bodies[0])["config"]["suites"] == ["spin-enum",
                                                             "weyl-transfer"]


class TestZetaMismatch:
    """A closed form that disagrees with its oracle, planted by patching."""

    @pytest.fixture
    def wrong_closed(self, monkeypatch):
        right = shalikazeta.zeta_parahoric_closed

        def wrong(sat, chi, beta_prime):
            result = right(sat, chi, beta_prime)
            result.value = result.value + 1
            return result

        monkeypatch.setattr(shalikazeta, "zeta_parahoric_closed", wrong)
        return right

    def test_zeta_oracle_mismatch_exit_one(self, wrong_closed, capsys):
        code, out, err = _run(["zeta", "--kind", "parahoric", "--p", "3",
                               "--beta", "1", "--oracle"], capsys)
        assert code == 1 and err == ""
        entries = json.loads(out)
        assert [e["chi"] for e in entries] == ["1", "chi3^1[1]"]
        assert all(e["oracle_matches"] is False for e in entries)

    def test_witness_shows_both_values(self, wrong_closed, capsys):
        code, out, err = _run(["run", "--suites", "zeta-parahoric"], capsys)
        assert code == 1 and err == ""
        suite, = json.loads(out)["body"]["suites"]
        assert suite["failed"] == len(suite["cases"]) == 2
        sat = refine.SatakeParameter.generic(3, 1)
        chars = [shalikazeta.TwistCharacter.trivial(3)] \
            + shalikazeta.TwistCharacter.enumerate_conductor(3, 1)
        for case, chi in zip(suite["cases"], chars):
            value = wrong_closed(sat, chi, chi.beta).value
            assert case["witness"] == f"oracle={value!r} closed={value + 1!r}"
