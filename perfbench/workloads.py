"""The benchmark's workloads: seeded inputs, the timed verdict, known answers.

Each workload has a generator, which turns the benchmark seed into plain
inputs (integers, rows of Fractions, an argument list) before the timed
region, and a verdict function, which hands those inputs to padicref's
public API and checks every result against a known answer.  padicref is
imported inside the functions, so that ``run.py`` can read the tables at
the end of this module without it.  A check that mismatches or raises
counts as failed.  With ``wrong=True`` each verdict compares one result
against a deliberately wrong expected value, which proves that the
checks can fail.

Why these three (the reasons are also in README.md):

* run-default -- the product as users run it; every layer, diluted.
* oracle-p3b2 -- the deep Iwahori zeta oracle: L3 -> L2 -> the light
  Bruhat path of L1, where almost every integrand is off the support.
* bruhat-factor -- the same L1 layer through its other paths (full
  decomposition, open cell, LU), with no symbolic work above it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction

# Reference body of ``padicref run`` at its default seed.
REFERENCE_SEED = 20240801
REFERENCE_BODY_SHA256 = \
    "e98eaf1697294642aa7ca45fde0e78a8e6bb8b655400b4af7de6d06922886c7d"
DEFAULT_CASES = 58


@dataclass
class Verdict:
    attempted: int
    failed: int
    fingerprint: str
    cases: int = 0


class _Checks:
    """Counts checks; an exception inside a check is a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn):
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:  # a library failure is a failed check, not a crash
            sys.stderr.write(f"check {label} raised:\n{traceback.format_exc()}")
            ok = False
        if not ok:
            self.failed += 1
            sys.stderr.write(f"check {label} failed\n")


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# exact helpers, independent of padicref, for planting and checking


def _matmul(a, b):
    n, m = len(a), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)) if a[i][k])
             for j in range(m)] for i in range(n)]


def _leading_pivots_nonzero(rows) -> bool:
    """True when every leading principal minor is nonzero."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    for k in range(n):
        if m[k][k] == 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


def _vp(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _is_lower(rows) -> bool:
    return all(rows[i][j] == 0 for i in range(len(rows))
               for j in range(i + 1, len(rows)))


def _is_upper(rows) -> bool:
    return all(rows[i][j] == 0 for i in range(len(rows)) for j in range(i))


def _permutation(rng, n):
    w = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        w[i], w[j] = w[j], w[i]
    return tuple(w)


# ---------------------------------------------------------------------------
# run-default: ``padicref run`` at the default config and the given seed


def gen_run_default(seed: int):
    return {"seed": seed, "argv": ["run", "--seed", str(seed)]}


def verdict_run_default(inputs, wrong: bool) -> Verdict:
    from padicref import cli

    checks = _Checks()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(inputs["argv"])
        body = json.loads(buf.getvalue())["body"]
    except Exception:  # the CLI crashed: one failed check, no report
        sys.stderr.write(traceback.format_exc())
        return Verdict(1, 1, "crashed")
    body_sha256 = hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        + b"\n").hexdigest()
    cases = [(suite["name"], case["name"], case["outcome"])
             for suite in body["suites"] for case in suite["cases"]]
    checks.run("exit-code", lambda: code == 0)
    checks.run("case-count", lambda: len(cases) == DEFAULT_CASES)
    for i, (suite, name, outcome) in enumerate(cases):
        expected = "fail" if wrong and i == 0 else "pass"
        checks.run(f"{suite}/{name}", lambda o=outcome, e=expected: o == e)
    if inputs["seed"] == REFERENCE_SEED:
        checks.run("body-sha256",
                   lambda: body_sha256 == REFERENCE_BODY_SHA256)
    return Verdict(checks.attempted, checks.failed, body_sha256, len(cases))


# ---------------------------------------------------------------------------
# oracle-p3b2: both n = 1 zeta oracles for one conductor-9 character


def gen_oracle_p3b2(seed: int):
    from padicref.rng import SplitMix64

    rng = SplitMix64(seed).spawn("oracle-p3b2")
    return {"p": 3, "beta": 2, "shells": 4, "index": rng.randrange(4)}


def verdict_oracle_p3b2(inputs, wrong: bool) -> Verdict:
    from padicref import princhecke, refine, shalikazeta

    p, beta, shells = inputs["p"], inputs["beta"], inputs["shells"]
    checks = _Checks()
    values = {}

    def iwahori():
        sat = refine.SatakeParameter.generic(p, 1)
        f = princhecke.PSVector.big_cell_vector(sat, refine.tau_element(1))
        chi = shalikazeta.TwistCharacter.enumerate_conductor(p, beta)[inputs["index"]]
        values["chi"] = chi.label
        oracle = shalikazeta.zeta_iwahori_oracle(f, chi, beta, shells).value
        closed = shalikazeta.zeta_iwahori_closed(
            shalikazeta.w_value_closed(sat, beta, 1), chi, beta, 1, sat.eta).value
        values["iwahori"] = repr(oracle)
        return oracle == (closed * 2 if wrong else closed)

    def parahoric():
        sat = refine.SatakeParameter.generic(p, 1)
        chi = shalikazeta.TwistCharacter.enumerate_conductor(p, beta)[inputs["index"]]
        oracle = shalikazeta.zeta_parahoric_oracle(sat, chi, shells).value
        closed = shalikazeta.zeta_parahoric_closed(sat, chi, chi.beta).value
        values["parahoric"] = repr(oracle)
        return oracle == closed

    checks.run("conductor-9-count", lambda: len(
        shalikazeta.TwistCharacter.enumerate_conductor(p, beta)) == 4)
    checks.run("iwahori-oracle-vs-closed", iwahori)
    checks.run("parahoric-oracle-vs-closed", parahoric)
    return Verdict(checks.attempted, checks.failed,
                   _digest(sorted(values.items())))


# ---------------------------------------------------------------------------
# bruhat-factor: planted Bruhat cells, open-cell samples, LU


BRUHAT_PRIMES = (2, 3)
BRUHAT_SIZES = (2, 4, 6)
BRUHAT_PER_SIZE = 160
OPEN_CELL_SIZES = (4, 6)
OPEN_CELL_PER_SIZE = 100


def _planted_bruhat(rng, p, n):
    """g = b * w * i with b in B(Q_p), w a permutation, i Iwahori."""
    vals = tuple(rng.randint(-2, 2) for _ in range(n))
    b = [[Fraction(0)] * n for _ in range(n)]
    iw = [[0] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = Fraction(p) ** vals[i] * rng.unit(p)
        iw[i][i] = rng.unit(p)
        for j in range(n):
            if j > i:
                b[i][j] = rng.padic_rational(p, -2, 2) if rng.randrange(3) else Fraction(0)
                iw[i][j] = rng.randrange(p ** 3)
            elif j < i:
                iw[i][j] = p * rng.randrange(p ** 2)
    w = _permutation(rng, n)
    wi = [None] * n  # the permutation matrix has a 1 at (w[j], j)
    for j in range(n):
        wi[w[j]] = iw[j]
    return _matmul(b, wi), w, vals


def _lower_triangular(rng, p, n):
    """Integral lower triangular, with p-adic units on the diagonal."""
    return [[rng.unit(p) if i == j else (rng.randrange(p ** 3) if j < i else 0)
             for j in range(n)] for i in range(n)]


def _open_cell_sample(rng, p, size):
    """g = bbar * u * diag(h1, h2) with u = (1 w_n; 0 1), and g has an LU.

    Nonzero leading minors of g also make h1 (from the n x n minor, which
    is det(P h1)) and h2 (from det g) invertible.
    """
    n = size // 2
    while True:
        lo, hi = _lower_triangular(rng, p, n), _lower_triangular(rng, p, n)
        q = [[rng.randrange(p ** 3) for _ in range(n)] for _ in range(n)]
        hs = [[[rng.randrange(p ** 3) for _ in range(n)] for _ in range(n)]
              for _ in range(2)]
        bbar = [lo[i] + [0] * n for i in range(n)] + [q[i] + hi[i] for i in range(n)]
        h = [hs[0][i] + [0] * n for i in range(n)] + [[0] * n + hs[1][i] for i in range(n)]
        g = _matmul(_matmul(bbar, _open_orbit_rep(n)), h)
        if _leading_pivots_nonzero(g):
            return g


def _open_orbit_rep(n):
    return [[1 if (i == j or (i < n and j == 2 * n - 1 - i)) else 0
             for j in range(2 * n)] for i in range(2 * n)]


def gen_bruhat_factor(seed: int):
    from padicref.rng import SplitMix64

    rng = SplitMix64(seed).spawn("bruhat-factor")
    planted = [(p, *_planted_bruhat(rng, p, n))
               for p in BRUHAT_PRIMES for n in BRUHAT_SIZES
               for _ in range(BRUHAT_PER_SIZE)]
    open_cell = [(p, _open_cell_sample(rng, p, size))
                 for p in BRUHAT_PRIMES for size in OPEN_CELL_SIZES
                 for _ in range(OPEN_CELL_PER_SIZE)]
    return {"planted": planted, "open_cell": open_cell}


def verdict_bruhat_factor(inputs, wrong: bool) -> Verdict:
    from padicref.padiclin import (PadicMatrix, bruhat_cell_valuations,
                                   iwahori_bruhat_decompose, lu_unit_lower,
                                   open_cell_factorize)

    checks = _Checks()
    seen = []
    for k, (p, rows, w, vals) in enumerate(inputs["planted"]):
        if wrong and k == 0:
            w = (w[1], w[0]) + w[2:]

        def full(p=p, rows=rows, w=w, vals=vals):
            dec = iwahori_bruhat_decompose(PadicMatrix(p, rows))
            b_vals = tuple(_vp(x, p) for x in dec.b.diagonal_entries())
            seen.append((dec.w, b_vals))
            return dec.w == w and b_vals == vals

        checks.run(f"decompose-{k}", full)
        checks.run(f"cell-valuations-{k}",
                   lambda p=p, rows=rows, w=w, vals=vals:
                   bruhat_cell_valuations(p, rows) == (w, vals))

    for k, (p, rows) in enumerate(inputs["open_cell"]):
        n = len(rows) // 2

        def open_cell(p=p, rows=rows, n=n):
            fac = open_cell_factorize(PadicMatrix(p, rows))
            if fac is None:
                return False
            bbar = [list(r) for r in fac.bbar.rows]
            h = [list(fac.h1.rows[i]) + [0] * n for i in range(n)] \
                + [[0] * n + list(fac.h2.rows[i]) for i in range(n)]
            seen.append(fac.bbar.rows)
            return (_is_lower(bbar)
                    and _matmul(_matmul(bbar, _open_orbit_rep(n)), h) == rows)

        def lu(p=p, rows=rows):
            lo, up = lu_unit_lower(PadicMatrix(p, rows))
            lo, up = [list(r) for r in lo.rows], [list(r) for r in up.rows]
            seen.append(up)
            return (_is_lower(lo) and all(lo[i][i] == 1 for i in range(len(lo)))
                    and _is_upper(up) and _matmul(lo, up) == rows)

        checks.run(f"open-cell-{k}", open_cell)
        checks.run(f"lu-{k}", lu)
    return Verdict(checks.attempted, checks.failed, _digest(seen))


WORKLOADS = {
    "run-default": (gen_run_default, verdict_run_default),
    "oracle-p3b2": (gen_oracle_p3b2, verdict_oracle_p3b2),
    "bruhat-factor": (gen_bruhat_factor, verdict_bruhat_factor),
}

# The suites of ``padicref run`` at the default config.
SUITES = ("branching-support", "cell-support", "comparison", "euler-factors",
          "hecke-eigen", "interp-diagram", "spin-enum", "weyl-transfer",
          "zeta-iwahori", "zeta-parahoric")

# Traced functions that must record at least one call on a workload (the
# workloads where the layer-to-metric table predicts they move), and those
# predicted to record none.  A wrapper left on a dead alias fails this.
MUST_CALL = {
    "run-default": [
        "padiclin.bruhat_cell_valuations", "padiclin.iwahori_bruhat_decompose",
        "padiclin.open_cell_factorize", "padiclin.lu_unit_lower",
        "princhecke.ps_evaluate_rows", "princhecke.hecke_apply",
        "shalikazeta.ag_intertwine_value", "shalikazeta.zeta_iwahori_oracle",
        "shalikazeta.zeta_parahoric_oracle",
        "symring.SymElem.mul", "symring.SymElem.add",
        "symring.SymElem.rational", "symring.CycNum.mul",
        "branchfam.v_lambda_j", "branchfam.kappa_family",
        "famring.FamSeries.mul",
    ] + [f"cli.suite.{s}" for s in SUITES],
    "oracle-p3b2": [
        "padiclin.bruhat_cell_valuations", "princhecke.ps_evaluate_rows",
        "shalikazeta.ag_intertwine_value", "shalikazeta.zeta_iwahori_oracle",
        "shalikazeta.zeta_parahoric_oracle", "symring.SymElem.mul",
        "symring.SymElem.add", "symring.SymElem.rational",
        "symring.CycNum.mul",
    ],
    "bruhat-factor": [
        "padiclin.bruhat_cell_valuations", "padiclin.iwahori_bruhat_decompose",
        "padiclin.open_cell_factorize", "padiclin.lu_unit_lower",
    ],
}
MUST_NOT_CALL = {
    "run-default": [],
    "oracle-p3b2": ["padiclin.iwahori_bruhat_decompose"],
    "bruhat-factor": ["princhecke.ps_evaluate_rows"],
}
