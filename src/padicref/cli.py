"""Verification harness: suite registry, configuration, reports.

``padicref run`` executes named verification suites against a resolved
configuration and writes a machine-readable report.  The report body is
deterministic: identical configuration and seed give byte-identical
bodies (timings live next to the body, not inside it).  Sampling uses the
splitmix64 streams from ``rng``, one child stream per suite, so the suite
list can change without shifting another suite's samples.

Exit status is 0 exactly when every executed case passed, 1 when a case
failed, and 2 when the input is rejected; a rejection writes one JSON line
``{"error": kind, "message": ...}`` to stderr and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, asdict
from fractions import Fraction

from . import branchfam, famring, padiclin, princhecke, refine, rootspin, shalikazeta
from .padiclin import PadicMatrix
from .perms import all_perms, longest_perm
from .rng import SplitMix64
from .symring import SymElem

SCHEMA_VERSION = 1
ENV_PREFIX = "PADICREF_"


class ConfigError(Exception):
    pass


@dataclass
class SuiteConfig:
    n: int = 2                 # census/transfer rank bound (1..3)
    p: int = 3                 # ambient prime (2, 3, 5)
    beta: int = 1              # twist depth (1..2)
    shells: int = 4            # oracle truncation margin
    samples: int = 200         # per-configuration sample counts
    seed: int = 20240801       # 64-bit sampling seed
    family_prec: int = 8       # p-adic precision exponent M
    family_degree: int = 4     # truncation degree D
    suites: list = field(default_factory=lambda: sorted(CATALOG))

    def validate(self):
        if self.p not in (2, 3, 5):
            raise ConfigError(f"prime {self.p} not supported (use 2, 3 or 5)")
        if not 1 <= self.n <= 3:
            raise ConfigError("n must be between 1 and 3")
        if not 1 <= self.beta <= 2:
            raise ConfigError("beta must be 1 or 2")
        if self.shells < 2:
            raise ConfigError("shells must be at least 2")
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        if self.family_prec < 1 or self.family_degree < 1:
            raise ConfigError("family precision and degree must be at least 1")
        for name in self.suites:
            if name not in CATALOG:
                raise ConfigError(f"unknown suite: {name}")

    def as_dict(self):
        d = asdict(self)
        d["suites"] = list(self.suites)
        return d


def _case(name, inputs, expected, ok, witness=None):
    out = {"name": name, "inputs": inputs, "expected": expected,
           "outcome": "pass" if ok else "fail"}
    if not ok:
        out["witness"] = witness or "mismatch"
    return out


# ---------------------------------------------------------------------------
# suites


def suite_spin_enum(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    import math
    for n in range(1, cfg.n + 1):
        sat = refine.SatakeParameter.generic(cfg.p, n)
        refs = refine.all_refinements(sat)
        spin = [r for r in refs if refine.is_spin(r)]
        cases.append(_case(f"census-n{n}", f"n={n}", "paper",
                           len(refs) == math.factorial(2 * n)
                           and len(spin) == 2 ** n * math.factorial(n),
                           f"got {len(refs)}/{len(spin)}"))
        ok = all((refine.gspin_factorization(r) is not None) == refine.is_spin(r)
                 for r in refs)
        cases.append(_case(f"gspin-exact-n{n}", f"n={n}", "paper", ok))
    return cases


def suite_weyl_transfer(cfg: SuiteConfig, rng: SplitMix64):
    from .perms import compose
    cases = []
    for n in range(1, cfg.n + 1):
        allw = rootspin.all_weyl_gspin(n)
        img = {rootspin.jmap_weyl(w) for w in allw}
        cases.append(_case(f"image-n{n}", f"n={n}", "derived",
                           img == rootspin.wg0_members(n)))
        hom = all(rootspin.jmap_weyl(a * b)
                  == compose(rootspin.jmap_weyl(a), rootspin.jmap_weyl(b))
                  for a in allw for b in allw)
        cases.append(_case(f"homomorphism-n{n}", f"n={n}", "derived", hom))
        equi = True
        for w in allw:
            sig = rootspin.jmap_weyl(w)
            for i in range(n + 1):
                mu = rootspin.GSpinWeight([1 if k == i else 0 for k in range(n + 1)])
                if rootspin.jmap_weight(w.act_weight(mu)) != rootspin.jmap_weight(mu).act(sig):
                    equi = False
        cases.append(_case(f"equivariance-n{n}", f"n={n}", "paper", equi))
        dual = True
        for w in allw:
            sig = rootspin.jmap_weyl(w)
            for k in range(2 * n):
                nu = tuple(1 if t == k else 0 for t in range(2 * n))
                lhs = rootspin.jvee_cochar(rootspin.act_cochar_gl(nu, sig))
                if lhs != rootspin.jvee_weyl(sig).act_cochar(rootspin.jvee_cochar(nu)):
                    dual = False
        cases.append(_case(f"dual-equivariance-n{n}", f"n={n}", "paper", dual))
    return cases


def suite_hecke_eigen(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    sat1 = refine.SatakeParameter.generic(cfg.p, 1)
    for sigma in all_perms(2):
        ok = princhecke.eigenvector_check(sat1, sigma, 1)
        cases.append(_case(f"eigen-n1-{sigma}", f"p={cfg.p} sigma={sigma} r=1",
                           "paper", ok))
    sat2 = refine.SatakeParameter.generic(cfg.p, 2)
    sigmas = all_perms(4)
    chosen = [sigmas[rng.randrange(len(sigmas))] for _ in range(3)]
    chosen += [tuple(longest_perm(4)), refine.tau_element(2)]
    for sigma in chosen:
        for r in (1, 2, 3):
            ok = princhecke.eigenvector_check(sat2, sigma, r)
            cases.append(_case(f"eigen-n2-{sigma}-r{r}",
                               f"p={cfg.p} sigma={sigma} r={r}", "paper", ok))
    return cases


def _random_glzp(rng, p, n, digits=3):
    while True:
        m = PadicMatrix(p, [[rng.randrange(p ** digits) for _ in range(n)]
                            for _ in range(n)])
        if m.in_glzp():
            return m


def _random_iwahori(rng, p, n, digits=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.unit(p)
        for j in range(n):
            if j > i:
                rows[i][j] = rng.randrange(p ** digits)
            elif j < i:
                rows[i][j] = p * rng.randrange(p ** (digits - 1))
    return PadicMatrix(p, rows)


def _random_upper_zp(rng, p, n, digits=3):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.unit(p)
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(p ** digits)
    return PadicMatrix(p, rows)


def suite_cell_support(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    for n in (1, 2):
        for beta in (1, cfg.beta):
            agree = True
            witness = None
            count = max(20, cfg.samples // 4)
            for _ in range(count):
                delta = rng.choice(all_perms(n))
                k = _random_glzp(rng, p, n)
                x = PadicMatrix(p, [[rng.padic_rational(p, -2, 2)
                                     if rng.randrange(3) else 0
                                     for _ in range(n)] for _ in range(n)])
                a = shalikazeta.shalika_support_predicate(delta, k, x, beta)
                b = shalikazeta.shalika_support_bruhat(delta, k, x, beta)
                if a != b:
                    agree = False
                    witness = f"delta={delta} k={k.rows} x={x.rows}"
                    break
            cases.append(_case(f"predicate-vs-cell-n{n}-b{beta}",
                               f"n={n} p={p} beta={beta} samples={count}",
                               "derived", agree, witness))
            # constructed positives, with the Borel character identity
            ok = True
            witness = None
            wn = PadicMatrix.longest_weyl(p, n)
            thetas = [SymElem.gen(p, f"X{i + 1}") for i in range(2 * n)]
            for _ in range(max(10, count // 8)):
                k = _random_upper_zp(rng, p, n) * wn * _random_iwahori(rng, p, n)
                arb = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)]
                                      for _ in range(n)])
                x = k * wn * shalikazeta.z_matrix(p, n, 2 * beta) * arb
                if not (shalikazeta.shalika_support_predicate(longest_perm(n), k, x, beta)
                        and shalikazeta.shalika_support_bruhat(longest_perm(n), k, x, beta)):
                    ok = False
                    witness = f"k={k.rows}"
                    break
                try:
                    shalikazeta.borel_part_character(thetas, k, x, beta)
                except shalikazeta.ZetaError as exc:
                    ok = False
                    witness = str(exc)
                    break
            cases.append(_case(f"in-cell-positives-n{n}-b{beta}",
                               f"n={n} p={p} beta={beta}", "paper", ok, witness))
    return cases


def suite_zeta_iwahori(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    sat = refine.SatakeParameter.generic(p, 1)
    f = princhecke.PSVector.big_cell_vector(sat, refine.tau_element(1))
    for beta in range(1, cfg.beta + 1):
        chars = shalikazeta.TwistCharacter.enumerate_conductor(p, beta)
        if not chars:
            cases.append(_case(f"no-ramified-b{beta}", f"p={p} beta={beta}",
                               "trivial", True))
        for chi in chars:
            oracle = shalikazeta.zeta_iwahori_oracle(f, chi, beta, cfg.shells)
            closed = shalikazeta.zeta_iwahori_closed(
                shalikazeta.w_value_closed(sat, beta, 1), chi, beta, 1, sat.eta)
            cases.append(_case(f"oracle-vs-closed-{chi.label}",
                               f"p={p} beta={beta} chi={chi.label}", "derived",
                               oracle.value == closed.value))
    return cases


def suite_zeta_parahoric(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    sat = refine.SatakeParameter.generic(p, 1)
    chars = [shalikazeta.TwistCharacter.trivial(p)]
    for beta in range(1, cfg.beta + 1):
        chars += shalikazeta.TwistCharacter.enumerate_conductor(p, beta)
    for chi in chars:
        oracle = shalikazeta.zeta_parahoric_oracle(sat, chi, cfg.shells)
        closed = shalikazeta.zeta_parahoric_closed(sat, chi, chi.beta)
        row = "ramified" if chi.is_ramified else "unramified"
        cases.append(_case(f"oracle-vs-closed-{chi.label}",
                           f"p={p} chi={chi.label} row={row}", "derived",
                           oracle.value == closed.value))
    return cases


def _random_n_beta(rng, p, n, beta):
    wn = PadicMatrix.longest_weyl(p, n)
    a = PadicMatrix(p, [[1 if i == j else (p ** beta * rng.randrange(p ** 2) if j > i else 0)
                         for j in range(n)] for i in range(n)])
    b = PadicMatrix(p, [[1 if i == j else (p ** beta * rng.randrange(p ** 2) if j > i else 0)
                         for j in range(n)] for i in range(n)])
    y = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)] for _ in range(n)])
    top = PadicMatrix(p, [[wn.rows[i][j] + p ** beta * y.rows[i][j]
                           for j in range(n)] for i in range(n)])
    zero = PadicMatrix(p, [[0] * n for _ in range(n)])
    return PadicMatrix.from_blocks(a, top * b, zero, b)


def _random_iw_beta(rng, p, n2, beta):
    n = n2 // 2
    nbar = PadicMatrix(p, [[1 if i == j else (p * rng.randrange(p ** 2) if j < i else 0)
                            for j in range(n2)] for i in range(n2)])
    t = PadicMatrix.diagonal(p, [rng.unit(p) for _ in range(n2)])
    return nbar * t * _random_n_beta(rng, p, n, beta)


def suite_branching_support(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    weights = {1: branchfam.PureWeight([4, 0]),
               2: branchfam.PureWeight([2, 1, -1, -2])}
    for n in (1, 2):
        lam = weights[n]
        for beta in (1, cfg.beta):
            ok = True
            witness = None
            for _ in range(max(20, cfg.samples // 4)):
                g = _random_n_beta(rng, p, n, beta)
                for j in branchfam.crit_range(lam):
                    val = branchfam.v_lambda_j(g, lam, j)
                    if val == 0 or (val != 1 and padiclin.vp(val - 1, p) < beta):
                        ok = False
                        witness = f"j={j} value={val}"
                        break
                if not ok:
                    break
            cases.append(_case(f"unit-congruence-n{n}-b{beta}",
                               f"n={n} p={p} beta={beta}", "paper", ok, witness))
        interp = True
        witness = None
        for _ in range(max(10, cfg.samples // 10)):
            g = _random_iw_beta(rng, p, 2 * n, 1)
            for j in branchfam.crit_range(lam):
                f = branchfam.LocPoly.monomial(p, j)
                if branchfam.v_lambda_fun(f, g, lam) != branchfam.v_lambda_j(g, lam, j):
                    interp = False
                    witness = f"j={j}"
                    break
            if not interp:
                break
        cases.append(_case(f"interpolates-n{n}", f"n={n} p={p}", "paper",
                           interp, witness))
    return cases


def _family_test_data(p, n, prec, degree):
    # p-divisible entries keep the truncation error below the target
    # precision: the specialization error is O(p^(degree * (1 + v_p(lam))))
    base = 2 if p == 2 else p
    entries = {1: [2 * base, -2 * base],
               2: [2 * base, base, -base, -2 * base]}[n]
    lam = branchfam.PureWeight(entries)
    unit_order = 2 if p == 2 else p - 1
    tame = [lam.entry(i) % unit_order for i in range(n)]
    omega = branchfam.FamilyWeight(p, n, prec, degree, tame=tame,
                                   tame_sw=int(lam.sw) % unit_order)
    return lam, omega


def suite_interp_diagram(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    for n in (1, 2):
        lam, omega = _family_test_data(p, n, cfg.family_prec, cfg.family_degree)
        count = max(5, cfg.samples // 40)
        sq1 = sq2 = True
        witness = None
        for _ in range(count):
            mu = branchfam.FiniteDistribution(
                [(rng.randint(-3, 3), _random_iw_beta(rng, p, 2 * n, 1))
                 for _ in range(2)])
            js = list(branchfam.crit_range(lam))
            for j in (js[0], js[len(js) // 2], js[-1]):
                f = branchfam.LocPoly.monomial(p, j)
                if branchfam.kappa_lambda(mu, f, lam) != branchfam.kappa_lambda_j(mu, lam, j):
                    sq2 = False
                    witness = f"n={n} j={j} second square"
                fam = branchfam.kappa_family(mu, f, omega)
                if omega.specialize(fam, lam) != omega.reduce(branchfam.kappa_lambda(mu, f, lam)):
                    sq1 = False
                    witness = f"n={n} j={j} first square"
        cases.append(_case(f"square-spec-n{n}",
                           f"n={n} p={p} prec=(p^{cfg.family_prec},{cfg.family_degree})",
                           "paper", sq1, witness))
        cases.append(_case(f"square-eval-n{n}", f"n={n} p={p}", "paper", sq2,
                           witness))
    return cases


def suite_euler_factors(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    for n in (1, 2):
        sat = refine.SatakeParameter.generic(p, n)
        ref = refine.Refinement(sat, refine.tau_element(n))
        ok = True
        for beta in (1, 2):
            for chi in shalikazeta.TwistCharacter.enumerate_conductor(p, beta):
                for j in (-1, 0, 1):
                    lhs = shalikazeta.ep_factor(sat, chi, j) \
                        / shalikazeta.qprime_factor(chi, j, beta, n)
                    if lhs != refine.hecke_eigenvalue(ref, n) ** (-beta):
                        ok = False
        cases.append(_case(f"ramified-ratio-n{n}", f"n={n} p={p}", "derived", ok))
        ok = True
        triv = shalikazeta.TwistCharacter.trivial(p)
        for j in (-1, 0, 1):
            ep = shalikazeta.ep_factor(sat, triv, j)
            sval = SymElem.p_power(p, Fraction(2 * j + 1, 2))
            q_closed = shalikazeta.zeta_parahoric_closed(sat, triv, 0).value
            q_at_j = q_closed.substitute({"S": sval})
            prefactor = SymElem.gen(p, "S", n).substitute({"S": sval}) \
                * SymElem.p_power(p, Fraction(-n * n, 2))
            unit = SymElem.rational(p, Fraction(1 - p) ** n)
            for i in range(n, 2 * n):
                unit = unit * (SymElem.p_power(p, Fraction(2 * j - 1, 2))
                               * sat.theta[i].inverse() * (-1))
            if ep * prefactor != q_at_j * unit:
                ok = False
        cases.append(_case(f"unramified-unit-n{n}", f"n={n} p={p}", "derived", ok))
    return cases


def suite_comparison(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    lams = {1: rootspin.GLWeight([1, 0]), 2: rootspin.GLWeight([2, 1, -1, -2])}
    for n in (1, 2):
        sat = refine.SatakeParameter.generic(p, n)
        chars = shalikazeta.TwistCharacter.enumerate_conductor(p, 1) \
            + shalikazeta.TwistCharacter.enumerate_conductor(p, 2)
        pairs = [(chi, j) for chi in chars[:2] for j in (-1, 0)]
        ok = True
        witness = None
        if pairs:
            try:
                shalikazeta.comparison_constant(sat, lams[n], pairs)
            except shalikazeta.ComparisonMismatch as exc:
                ok = False
                witness = str(exc)
        cases.append(_case(f"ramified-constancy-n{n}",
                           f"n={n} p={p} pairs={len(pairs)}", "derived", ok,
                           witness))
        triv = shalikazeta.TwistCharacter.trivial(p)
        ok = True
        witness = None
        try:
            shalikazeta.comparison_constant(sat, lams[n],
                                            [(triv, j) for j in (-1, 0, 1)])
        except shalikazeta.ComparisonMismatch as exc:
            ok = False
            witness = str(exc)
        cases.append(_case(f"trivial-constancy-n{n}", f"n={n} p={p}",
                           "derived", ok, witness))
    return cases


CATALOG = {
    "spin-enum": {
        "claim": "census: (2n)! refinements, 2^n n! spin ones, and the "
                 "GSpin factorization succeeds exactly on the spin set",
        "fn": suite_spin_enum,
    },
    "weyl-transfer": {
        "claim": "the weight transfer is a group isomorphism onto the "
                 "purity-preserving subgroup, equivariant on weights and "
                 "cocharacters",
        "fn": suite_weyl_transfer,
    },
    "hecke-eigen": {
        "claim": "the big-cell Iwahori vector is a U_{p,r}-eigenvector with "
                 "the predicted eigenvalue monomial, for each cell twist",
        "fn": suite_hecke_eigen,
    },
    "cell-support": {
        "claim": "the Shalika integrand meets the support cell only for the "
                 "longest Weyl element with the explicit k- and X-conditions; "
                 "the Borel part acts by the diag(1, z^(2 beta)) character",
        "fn": suite_cell_support,
    },
    "zeta-iwahori": {
        "claim": "the shell-sum Iwahori zeta integral equals its closed form "
                 "for every ramified twist (n = 1)",
        "fn": suite_zeta_iwahori,
    },
    "zeta-parahoric": {
        "claim": "the shell-sum parahoric zeta integral equals its closed "
                 "form in both the ramified and unramified rows (n = 1)",
        "fn": suite_zeta_parahoric,
    },
    "branching-support": {
        "claim": "branching vectors send the depth-beta cell into "
                 "1 + p^beta Z_p and agree with the weight-j specialization "
                 "of the interpolated vector",
        "fn": suite_branching_support,
    },
    "interp-diagram": {
        "claim": "both squares of the distribution interpolation diagram "
                 "commute at family precision",
        "fn": suite_interp_diagram,
    },
    "euler-factors": {
        "claim": "interpolation factors: ramified e_p / Q' is the inverse "
                 "middle Hecke eigenvalue power; the unramified e_p matches "
                 "the parahoric Q up to the predicted unit monomial",
        "fn": suite_euler_factors,
    },
    "comparison": {
        "claim": "the Iwahori-route and parahoric-route local interpolation "
                 "values have one constant ratio across all tested twists "
                 "and critical points",
        "fn": suite_comparison,
    },
}


def list_suites():
    """Catalog of suites with the claims they check."""
    return {name: entry["claim"] for name, entry in sorted(CATALOG.items())}


# ---------------------------------------------------------------------------
# reports


class Report:
    def __init__(self, config: SuiteConfig, suites: list):
        self.body = {
            "schema_version": SCHEMA_VERSION,
            "config": config.as_dict(),
            "suites": suites,
            "passed": sum(s["passed"] for s in suites),
            "failed": sum(s["failed"] for s in suites),
        }
        self.body["ok"] = self.body["failed"] == 0
        self.elapsed = None

    def body_bytes(self) -> bytes:
        return json.dumps(self.body, sort_keys=True,
                          separators=(",", ":")).encode() + b"\n"

    def document(self) -> dict:
        return {"body": self.body, "meta": {"elapsed_seconds": self.elapsed}}

    @property
    def ok(self) -> bool:
        return self.body["ok"]


def run(config: SuiteConfig) -> Report:
    config.validate()
    root = SplitMix64(config.seed)
    suites = []
    start = time.monotonic()
    for name in sorted(set(config.suites)):
        fn = CATALOG[name]["fn"]
        cases = fn(config, root.spawn(name))
        passed = sum(1 for c in cases if c["outcome"] == "pass")
        suites.append({
            "name": name,
            "claim": CATALOG[name]["claim"],
            "cases": cases,
            "passed": passed,
            "failed": len(cases) - passed,
        })
    report = Report(config, suites)
    report.elapsed = round(time.monotonic() - start, 3)
    return report


# ---------------------------------------------------------------------------
# command line


def _config_from_args(args) -> SuiteConfig:
    cfg = SuiteConfig()
    for name in ("n", "p", "beta", "shells", "samples", "seed",
                 "family_prec", "family_degree"):
        env = os.environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            try:
                setattr(cfg, name, int(env))
            except ValueError:
                raise ConfigError(f"{ENV_PREFIX}{name.upper()} must be an "
                                  f"integer, got {env!r}") from None
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    env_suites = os.environ.get(ENV_PREFIX + "SUITES")
    if env_suites:
        cfg.suites = [s for s in env_suites.split(",") if s]
    if getattr(args, "suites", None):
        cfg.suites = [s for s in args.suites.split(",") if s]
    return cfg


def _emit(doc: dict, path):
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _structured_error(kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message},
                                sort_keys=True) + "\n")
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="padicref",
        description="verification suites for local refinement computations")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute verification suites")
    for name, typ in (("n", int), ("p", int), ("beta", int), ("shells", int),
                      ("samples", int), ("seed", int), ("family-prec", int),
                      ("family-degree", int)):
        run_p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=typ)
    run_p.add_argument("--suites", help="comma-separated suite names")
    run_p.add_argument("--out", help="report path ('-' for stdout)", default="-")

    sub.add_parser("list", help="list suites and their claims")

    zeta_p = sub.add_parser("zeta", help="print zeta values for the config")
    zeta_p.add_argument("--kind", choices=("iwahori", "parahoric"),
                        default="iwahori")
    zeta_p.add_argument("--p", type=int, default=3)
    zeta_p.add_argument("--beta", type=int, default=1)
    zeta_p.add_argument("--oracle", action="store_true",
                        help="also run the shell-sum oracle (n = 1)")
    zeta_p.add_argument("--shells", type=int, default=4)

    enum_p = sub.add_parser("enumerate", help="refinement census")
    enum_p.add_argument("--n", type=int, default=2)
    enum_p.add_argument("--p", type=int, default=3)

    args = parser.parse_args(argv)

    if args.command == "list":
        for name, claim in list_suites().items():
            sys.stdout.write(f"{name}: {claim}\n")
        return 0

    if args.command == "enumerate":
        try:
            SuiteConfig(n=args.n, p=args.p).validate()
        except ConfigError as exc:
            return _structured_error("config", str(exc))
        sat = refine.SatakeParameter.generic(args.p, args.n)
        refs = refine.all_refinements(sat)
        spin = [r.sigma for r in refs if refine.is_spin(r)]
        doc = {"n": args.n, "p": args.p, "refinements": len(refs),
               "spin": len(spin),
               "spin_cells": [list(s) for s in sorted(spin)]}
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        return 0

    if args.command == "zeta":
        try:
            SuiteConfig(p=args.p, beta=args.beta, shells=args.shells).validate()
        except ConfigError as exc:
            return _structured_error("config", str(exc))
        sat = refine.SatakeParameter.generic(args.p, 1)
        chars = shalikazeta.TwistCharacter.enumerate_conductor(args.p, args.beta)
        if args.kind == "parahoric":
            chars = [shalikazeta.TwistCharacter.trivial(args.p)] + chars
        out = []
        try:
            for chi in chars:
                if args.kind == "iwahori":
                    if not chi.is_ramified:
                        continue
                    closed = shalikazeta.zeta_iwahori_closed(
                        shalikazeta.w_value_closed(sat, args.beta, 1),
                        chi, args.beta, 1, sat.eta)
                    entry = {"chi": chi.label, "closed": repr(closed.value)}
                    if args.oracle:
                        f = princhecke.PSVector.big_cell_vector(
                            sat, refine.tau_element(1))
                        oracle = shalikazeta.zeta_iwahori_oracle(
                            f, chi, args.beta, args.shells)
                        entry["oracle_matches"] = oracle.value == closed.value
                else:
                    closed = shalikazeta.zeta_parahoric_closed(sat, chi, chi.beta)
                    entry = {"chi": chi.label, "closed": repr(closed.value)}
                    if args.oracle:
                        oracle = shalikazeta.zeta_parahoric_oracle(
                            sat, chi, args.shells)
                        entry["oracle_matches"] = oracle.value == closed.value
                out.append(entry)
        except shalikazeta.TruncationError as exc:
            return _structured_error("truncation", str(exc))
        sys.stdout.write(json.dumps(out, sort_keys=True, indent=1) + "\n")
        return 0

    # run
    try:
        cfg = _config_from_args(args)
        report = run(cfg)
    except ConfigError as exc:
        return _structured_error("config", str(exc))
    except shalikazeta.TruncationError as exc:
        return _structured_error("truncation", str(exc))
    _emit(report.document(), args.out)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
