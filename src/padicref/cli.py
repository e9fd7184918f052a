"""Verification harness: suite registry, configuration, reports.

``padicref run`` executes named verification suites against a resolved
configuration and writes a machine-readable report.  The report body is
deterministic: identical configuration and seed give byte-identical
bodies (timings live next to the body, not inside it).  Sampling uses the
splitmix64 streams from ``rng``, one child stream per suite, so the suite
list can change without shifting another suite's samples.

Configuration comes from command-line flags only, so a report depends on
its argument list alone; the order and repeats of ``--suites`` do not
matter.  A failing case's witness names its first failing input.

Exit status is 0 exactly when every executed case passed, 1 when a case
failed (for ``zeta --oracle``: when an oracle disagrees with its closed
form), and 2 when the input is rejected, ``zeta`` has no character to
check, or the report cannot be written; then one JSON line
``{"error": kind, "message": ...}`` goes to stderr, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, asdict
from fractions import Fraction

from . import (branchfam, famring, padiclin, princhecke, refine, rootspin,
               shalikazeta)
from .padiclin import PadicMatrix
from .perms import all_perms, compose, longest_perm
from .rng import SplitMix64
from .sampling import (random_glzp, random_iw_beta, random_iwahori,
                       random_n_beta, random_upper_zp)
from .symring import SymElem

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are ConfigErrors."""

    def error(self, message):
        raise ConfigError(message)


# the largest shell count the tests run end to end (zeta --kind iwahori
# --oracle --p 5 --beta 1 --shells 8); the Iwahori oracle values F(Y) once
# per ball of constancy, about (shells + beta) phi(p^beta) values per sweep
MAX_SHELLS = 8


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
        if not 2 <= self.shells <= MAX_SHELLS:
            raise ConfigError(f"shells must be between 2 and {MAX_SHELLS}")
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must lie in [0, 2^64)")
        if self.family_prec < 1 or self.family_degree < 1:
            raise ConfigError("family precision and degree must be at least 1")
        if not self.suites:
            raise ConfigError("no suites selected")
        for name in self.suites:
            if name not in CATALOG:
                raise ConfigError(f"unknown suite: {name}")
        if "interp-diagram" in self.suites:
            # truncating at the degree D leaves an error of O(p^(D * v)), v
            # the least v_p of the nonzero points T_i = b^e - 1, read off the
            # exact points, since their residues mod p^M may all be 0
            v = min(padiclin.vp(t, self.p) for n in (1, 2)
                    for t in branchfam.specialization_points(
                        self.p, _family_weight(self.p, n)) if t)
            need = -(-self.family_prec // v)  # degree * v >= prec
            if self.family_degree < need:
                raise ConfigError(f"interp-diagram needs family degree >= {need} "
                                  f"at family precision {self.family_prec}")


def _case(name, inputs, expected, failures=()):
    """The case of one check.  ``failures`` yields a witness for each input
    that fails the check; it is read only up to its first witness, which
    fails the case, and the case passes when it yields nothing."""
    witness = next(iter(failures), None)
    out = {"name": name, "inputs": inputs, "expected": expected,
           "outcome": "pass" if witness is None else "fail"}
    if witness is not None:
        out["witness"] = witness
    return out


# ---------------------------------------------------------------------------
# suites


def suite_spin_enum(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    for n in range(1, cfg.n + 1):
        refs, spin = refine.spin_census(cfg.p, n)
        census = (len(refs), len(spin)) == (math.factorial(2 * n), 2 ** n * math.factorial(n))
        cases.append(_case(f"census-n{n}", f"n={n}", "paper",
                           () if census else [f"got {len(refs)}/{len(spin)}"]))
        cases.append(_case(
            f"gspin-exact-n{n}", f"n={n}", "paper",
            (f"sigma={r.sigma} spin={r in spin}" for r in refs
             if (refine.gspin_factorization(r) is not None) != (r in spin))))
    return cases


def suite_weyl_transfer(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    for n in range(1, cfg.n + 1):
        allw = rootspin.all_weyl_gspin(n)
        jw = {w: rootspin.jmap_weyl(w) for w in allw}  # a * b is in allw too
        img = set(jw.values())
        members = rootspin.wg0_members(n)
        cases.append(_case(f"image-n{n}", f"n={n}", "derived",
                           (f"sigma={s} in_image={s in img}"
                            for s in sorted(img ^ members))))
        cases.append(_case(f"homomorphism-n{n}", f"n={n}", "derived",
                           (f"a={a} b={b}" for a in allw for b in allw
                            if jw[a * b] != compose(jw[a], jw[b]))))

        def unequivariant():
            for w, sig in jw.items():
                for i in range(n + 1):
                    mu = rootspin.GSpinWeight([1 if k == i else 0 for k in range(n + 1)])
                    lhs = rootspin.jmap_weight(w.act_weight(mu))
                    rhs = rootspin.jmap_weight(mu).act(sig)
                    if lhs != rhs:
                        yield f"w={w} mu={mu}: {lhs} != {rhs}"

        def dual_unequivariant():
            for w, sig in jw.items():
                for k in range(2 * n):
                    nu = tuple(1 if t == k else 0 for t in range(2 * n))
                    lhs = rootspin.jvee_cochar(rootspin.act_cochar_gl(nu, sig))
                    rhs = rootspin.jvee_weyl(sig).act_cochar(rootspin.jvee_cochar(nu))
                    if lhs != rhs:
                        yield f"w={w} nu={nu}: {lhs} != {rhs}"

        cases.append(_case(f"equivariance-n{n}", f"n={n}", "paper", unequivariant()))
        cases.append(_case(f"dual-equivariance-n{n}", f"n={n}", "paper",
                           dual_unequivariant()))
    return cases


def suite_hecke_eigen(cfg: SuiteConfig, rng: SplitMix64):
    sats = {n: refine.SatakeParameter.generic(cfg.p, n) for n in (1, 2)}
    sigmas = all_perms(4)
    chosen = [sigmas[rng.randrange(len(sigmas))] for _ in range(3)]
    chosen += [tuple(longest_perm(4)), refine.tau_element(2)]
    checks = [(f"eigen-n1-{sigma}", 1, sigma, 1) for sigma in all_perms(2)] \
        + [(f"eigen-n2-{sigma}-r{r}", 2, sigma, r) for sigma in chosen for r in (1, 2, 3)]
    return [_case(name, f"p={cfg.p} sigma={sigma} r={r}", "paper",
                  () if princhecke.eigenvector_check(sats[n], sigma, r)
                  else [f"n={n} sigma={sigma} r={r}: U_p,r f != alpha f"])
            for name, n, sigma, r in checks]


def suite_cell_support(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    for n in (1, 2):
        w0, wn = longest_perm(n), PadicMatrix.longest_weyl(p, n)
        thetas = [SymElem.gen(p, f"X{i + 1}") for i in range(2 * n)]
        for beta in (1, cfg.beta):
            count = max(20, cfg.samples // 4)

            def disagreements():
                for _ in range(count):
                    delta = rng.choice(all_perms(n))
                    k = random_glzp(rng, p, n)
                    x = PadicMatrix(p, [[rng.padic_rational(p, -2, 2)
                                         if rng.randrange(3) else 0
                                         for _ in range(n)] for _ in range(n)])
                    a = shalikazeta.shalika_support_predicate(delta, k, x, beta)
                    if a != shalikazeta.shalika_support_bruhat(delta, k, x, beta):
                        yield f"delta={delta} k={k} x={x} predicate={a}"

            # constructed positives, with the Borel character identity
            def positive_failures():
                for _ in range(max(10, count // 8)):
                    k = random_upper_zp(rng, p, n) * wn * random_iwahori(rng, p, n)
                    arb = PadicMatrix(p, [[rng.randrange(p ** 3) for _ in range(n)]
                                          for _ in range(n)])
                    x = k * wn * shalikazeta.z_matrix(p, n, 2 * beta) * arb
                    if not (shalikazeta.shalika_support_predicate(w0, k, x, beta)
                            and shalikazeta.shalika_support_bruhat(w0, k, x, beta)):
                        yield f"k={k} x={x} off the support"
                    try:
                        shalikazeta.borel_part_character(thetas, k, x, beta)
                    except shalikazeta.ZetaError as exc:
                        yield f"k={k} x={x}: {exc}"

            cases.append(_case(f"predicate-vs-cell-n{n}-b{beta}",
                               f"n={n} p={p} beta={beta} samples={count}",
                               "derived", disagreements()))
            cases.append(_case(f"in-cell-positives-n{n}-b{beta}",
                               f"n={n} p={p} beta={beta}", "paper", positive_failures()))
    return cases


def _zeta_values(kind, sat, chi, shells, oracle):
    """(closed, oracle) values of the n = 1 zeta integral of ``kind``
    ("iwahori" or "parahoric") twisted by ``chi``; the shell-sum oracle
    runs only when ``oracle`` is set, else its value is None."""
    if kind == "parahoric":
        closed = shalikazeta.zeta_parahoric_closed(sat, chi, chi.beta)
        check = oracle and shalikazeta.zeta_parahoric_oracle(sat, chi, shells)
    else:
        w_base = shalikazeta.w_value_closed(sat, chi.beta, 1)
        closed = shalikazeta.zeta_iwahori_closed(w_base, chi, chi.beta, 1, sat.eta)
        f = princhecke.PSVector.big_cell_vector(sat, refine.tau_element(1))
        check = oracle and shalikazeta.zeta_iwahori_oracle(f, chi, chi.beta, shells)
    return closed.value, check.value if oracle else None


def _zeta_case(kind, sat, chi, shells, inputs):
    closed, oracle = _zeta_values(kind, sat, chi, shells, True)
    return _case(f"oracle-vs-closed-{chi.label}", inputs, "derived",
                 () if oracle == closed else [f"oracle={oracle!r} closed={closed!r}"])


def suite_zeta_iwahori(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    sat = refine.SatakeParameter.generic(p, 1)
    for beta in range(1, cfg.beta + 1):
        chars = shalikazeta.TwistCharacter.enumerate_conductor(p, beta)
        if not chars:
            cases.append(_case(f"no-ramified-b{beta}", f"p={p} beta={beta}", "trivial"))
        for chi in chars:
            cases.append(_zeta_case("iwahori", sat, chi, cfg.shells,
                                    f"p={p} beta={beta} chi={chi.label}"))
    return cases


def suite_zeta_parahoric(cfg: SuiteConfig, rng: SplitMix64):
    p = cfg.p
    sat = refine.SatakeParameter.generic(p, 1)
    chars = [shalikazeta.TwistCharacter.trivial(p)]
    for beta in range(1, cfg.beta + 1):
        chars += shalikazeta.TwistCharacter.enumerate_conductor(p, beta)
    return [_zeta_case("parahoric", sat, chi, cfg.shells,
                       f"p={p} chi={chi.label} row="
                       + ("ramified" if chi.is_ramified else "unramified"))
            for chi in chars]


def suite_branching_support(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    weights = {1: branchfam.PureWeight([4, 0]),
               2: branchfam.PureWeight([2, 1, -1, -2])}
    for n in (1, 2):
        lam = weights[n]
        for beta in (1, cfg.beta):
            def non_units():
                for _ in range(max(20, cfg.samples // 4)):
                    g = random_n_beta(rng, p, n, beta)
                    for j, val in branchfam.v_lambda_all(g, lam).items():
                        if val == 0 or (val != 1 and padiclin.vp(val - 1, p) < beta):
                            yield f"g={g} j={j} value={val}"

            cases.append(_case(f"unit-congruence-n{n}-b{beta}",
                               f"n={n} p={p} beta={beta}", "paper", non_units()))

        def off_interpolation():
            for _ in range(max(10, cfg.samples // 10)):
                g = random_iw_beta(rng, p, 2 * n, 1)
                dirac = branchfam.FiniteDistribution([(1, g)])  # g is factored once
                for j in branchfam.crit_range(lam):
                    f = branchfam.LocPoly.monomial(p, j)
                    value = branchfam.kappa_lambda(dirac, f, lam)
                    direct = branchfam.kappa_lambda_j(dirac, lam, j)
                    if value != direct:
                        yield f"g={g} j={j}: {value} != {direct}"

        cases.append(_case(f"interpolates-n{n}", f"n={n} p={p}", "paper",
                           off_interpolation()))
    return cases


def _family_weight(p, n):
    # p-divisible entries keep the truncation error below the precision: a
    # point T_i = b^e - 1 has v_p = 1 + v_p(e), or 2 + v_p(e) at p = 2, and
    # the specialization error is O(p^(degree * v)); SuiteConfig.validate
    # rejects a degree that does not reach p^prec
    return branchfam.PureWeight({1: [2 * p, -2 * p], 2: [2 * p, p, -p, -2 * p]}[n])


def suite_interp_diagram(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    order = famring.tame_order(p)
    for n in (1, 2):
        lam = _family_weight(p, n)
        omega = branchfam.FamilyWeight(p, n, cfg.family_prec, cfg.family_degree,
                                       tame=[lam.entry(i) % order for i in range(n)],
                                       tame_sw=int(lam.sw) % order)
        js = list(branchfam.crit_range(lam))
        # (j, kappa_lambda, kappa_lambda_j, specialized family) per sample
        rows = []
        for _ in range(max(5, cfg.samples // 40)):
            mu = branchfam.FiniteDistribution(
                [(rng.randint(-3, 3), random_iw_beta(rng, p, 2 * n, 1))
                 for _ in range(2)])
            for j in (js[0], js[len(js) // 2], js[-1]):
                f = branchfam.LocPoly.monomial(p, j)
                rows.append((j, branchfam.kappa_lambda(mu, f, lam),
                             branchfam.kappa_lambda_j(mu, lam, j),
                             omega.specialize(branchfam.kappa_family(mu, f, omega), lam)))
        cases.append(_case(f"square-spec-n{n}",
                           f"n={n} p={p} prec=(p^{cfg.family_prec},{cfg.family_degree})",
                           "paper", (f"n={n} j={j} first square: {spec} != {kappa}"
                                     for j, kappa, _, spec in rows
                                     if spec != omega.reduce(kappa))))
        cases.append(_case(f"square-eval-n{n}", f"n={n} p={p}", "paper",
                           (f"n={n} j={j} second square: {kappa} != {kappa_j}"
                            for j, kappa, kappa_j, _ in rows if kappa != kappa_j)))
    return cases


def suite_euler_factors(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    # built once, so each character's Gauss sum is computed once per suite
    chars = {beta: shalikazeta.TwistCharacter.enumerate_conductor(p, beta)
             for beta in (1, 2)}
    for n in (1, 2):
        sat = refine.SatakeParameter.generic(p, n)
        ref = refine.Refinement(sat, refine.tau_element(n))

        def ramified_failures():
            for beta in (1, 2):
                for chi in chars[beta]:
                    for j in (-1, 0, 1):
                        lhs = shalikazeta.ep_factor(sat, chi, j)
                        rhs = refine.hecke_eigenvalue(ref, n) ** (-beta) \
                            * shalikazeta.qprime_factor(chi, j, n)
                        if lhs != rhs:
                            yield f"chi={chi.label} j={j}: {lhs} != {rhs}"

        def unramified_failures():
            triv = shalikazeta.TwistCharacter.trivial(p)
            q_closed = shalikazeta.zeta_parahoric_closed(sat, triv, 0).value
            for j in (-1, 0, 1):
                ep = shalikazeta.ep_factor(sat, triv, j)
                sval = SymElem.p_power(p, Fraction(2 * j + 1, 2))
                q_at_j = q_closed.substitute({"S": sval})
                prefactor = sval ** n * SymElem.p_power(p, Fraction(-n * n, 2))
                unit = SymElem.rational(p, Fraction(1 - p) ** n)
                for i in range(n, 2 * n):
                    unit = unit * (SymElem.p_power(p, Fraction(2 * j - 1, 2))
                                   * sat.theta[i].inverse() * (-1))
                lhs, rhs = ep * prefactor, q_at_j * unit
                if lhs != rhs:
                    yield f"j={j}: {lhs} != {rhs}"

        cases.append(_case(f"ramified-ratio-n{n}", f"n={n} p={p}", "derived",
                           ramified_failures()))
        cases.append(_case(f"unramified-unit-n{n}", f"n={n} p={p}", "derived",
                           unramified_failures()))
    return cases


def suite_comparison(cfg: SuiteConfig, rng: SplitMix64):
    cases = []
    p = cfg.p
    lams = {1: rootspin.GLWeight([1, 0]), 2: rootspin.GLWeight([2, 1, -1, -2])}
    triv = shalikazeta.TwistCharacter.trivial(p)
    chars = shalikazeta.TwistCharacter.enumerate_conductor(p, 1) \
        + shalikazeta.TwistCharacter.enumerate_conductor(p, 2)
    pairs = [(chi, j) for chi in chars[:2] for j in (-1, 0)]
    for n in (1, 2):
        sat = refine.SatakeParameter.generic(p, n)

        def mismatches(suite):
            try:
                shalikazeta.comparison_constant(sat, lams[n], suite)
            except shalikazeta.ComparisonMismatch as exc:
                yield str(exc)

        cases.append(_case(f"ramified-constancy-n{n}", f"n={n} p={p} pairs={len(pairs)}",
                           "derived", mismatches(pairs) if pairs else ()))
        cases.append(_case(f"trivial-constancy-n{n}", f"n={n} p={p}", "derived",
                           mismatches([(triv, j) for j in (-1, 0, 1)])))
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


def run(config: SuiteConfig) -> dict:
    """The report of the suites of a validated ``config``: the deterministic
    ``body`` and, beside it, the ``meta`` timings: the whole run and each
    suite, listed in body order."""
    root = SplitMix64(config.seed)
    suites, timings = [], []
    start = time.monotonic()
    for name in config.suites:
        suite_start = time.monotonic()
        cases = CATALOG[name]["fn"](config, root.spawn(name))
        timings.append({"name": name,
                        "elapsed_seconds": round(time.monotonic() - suite_start, 3)})
        passed = sum(1 for c in cases if c["outcome"] == "pass")
        suites.append({"name": name, "claim": CATALOG[name]["claim"],
                       "cases": cases, "passed": passed,
                       "failed": len(cases) - passed})
    elapsed = round(time.monotonic() - start, 3)
    failed = sum(s["failed"] for s in suites)
    body = {"schema_version": SCHEMA_VERSION, "config": asdict(config),
            "suites": suites, "passed": sum(s["passed"] for s in suites),
            "failed": failed, "ok": failed == 0}
    return {"body": body, "meta": {"elapsed_seconds": elapsed, "suites": timings}}


# ---------------------------------------------------------------------------
# command line

# the integer fields of SuiteConfig; each is set by the flag of its name
INT_FIELDS = tuple(f.name for f in fields(SuiteConfig) if f.name != "suites")


def _add_int_flags(parser, names):
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=int,
                            default=getattr(SuiteConfig, name))


def _config_from_args(args) -> SuiteConfig:
    """The validated configuration of the flags a subcommand has."""
    cfg = SuiteConfig(**{name: getattr(args, name) for name in INT_FIELDS
                         if hasattr(args, name)})
    if getattr(args, "suites", None) is not None:
        cfg.suites = sorted({s for s in args.suites.split(",") if s})
    cfg.validate()
    return cfg


def _zeta(cfg: SuiteConfig, kind: str, oracle: bool) -> list:
    sat = refine.SatakeParameter.generic(cfg.p, 1)
    chars = shalikazeta.TwistCharacter.enumerate_conductor(cfg.p, cfg.beta)
    if kind == "parahoric":
        chars = [shalikazeta.TwistCharacter.trivial(cfg.p)] + chars
    if not chars:
        raise ConfigError(f"no character of conductor {cfg.p}^{cfg.beta}")
    out = []
    for chi in chars:
        closed, value = _zeta_values(kind, sat, chi, cfg.shells, oracle)
        entry = {"chi": chi.label, "closed": repr(closed)}
        if oracle:
            entry["oracle_matches"] = value == closed
        out.append(entry)
    return out


def _emit(doc, path):
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
    parser = _Parser(
        prog="padicref",
        description="verification suites for local refinement computations")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute verification suites")
    _add_int_flags(run_p, INT_FIELDS)
    run_p.add_argument("--suites", help="comma-separated suite names")
    run_p.add_argument("--out", help="report path ('-' for stdout)", default="-")

    sub.add_parser("list", help="list suites and their claims")

    zeta_p = sub.add_parser("zeta", help="print zeta values for the config")
    zeta_p.add_argument("--kind", choices=("iwahori", "parahoric"),
                        default="iwahori")
    _add_int_flags(zeta_p, ("p", "beta", "shells"))
    zeta_p.add_argument("--oracle", action="store_true",
                        help="also run the shell-sum oracle (n = 1)")

    enum_p = sub.add_parser("enumerate", help="refinement census")
    _add_int_flags(enum_p, ("n", "p"))

    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            for name in sorted(CATALOG):
                sys.stdout.write(f"{name}: {CATALOG[name]['claim']}\n")
            return 0
        cfg = _config_from_args(args)
        if args.command == "enumerate":
            refs, spin = refine.spin_census(cfg.p, cfg.n)
            cells = sorted(list(r.sigma) for r in spin)
            doc, ok = {"n": cfg.n, "p": cfg.p, "refinements": len(refs),
                       "spin": len(cells), "spin_cells": cells}, True
        elif args.command == "zeta":
            doc = _zeta(cfg, args.kind, args.oracle)
            ok = all(e.get("oracle_matches", True) for e in doc)
        else:
            doc = run(cfg)
            ok = doc["body"]["ok"]
    except ConfigError as exc:
        return _structured_error("config", str(exc))
    except shalikazeta.TruncationError as exc:
        return _structured_error("truncation", str(exc))
    try:
        _emit(doc, getattr(args, "out", "-"))
    except OSError as exc:
        return _structured_error("output", str(exc))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
