"""Executable verification suite.

Every structural identity the library relies on is transcribed here as a
quantitative pass/fail check over a stated parameter family, with the worst
deviation and its witness reported.  The suite is the regression backbone:
``run_suite`` aggregates the GL(1) checks, the per-representation engine
checks, and the sup-norm sandwich, and emits a machine-readable manifest
stating what each check verified.

Checks are deterministic: identical parameters reproduce identical reports
bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf

from .characters import (
    UnitCharacter,
    character_phases,
    characters_mod,
    critical_unit,
    epsilon_factor,
    epsilon_root,
    gauss_sum,
    gauss_sum_closed,
    verify_critical_unit,
    format_char,
    zeta1,
)
from .engine import (
    Mat2,
    Representative,
    atkin_lehner_reduce,
    coefficient_table,
    contragredient_of,
    conjugate_value,
    lambda_sq_sum,
    lower_bound_witness,
    reduce_matrix,
    sup_norm,
    supercuspidal_closed_value,
    tables_for_level,
    whittaker_value,
)
from .numerics import ONE, MINUS_ONE, RootOfUnity, perturbed, unity_sum, working_cache
from .padics import PAdicApprox, psi_eval, unit_group
from .representations import (
    PrincipalSeries,
    Representation,
    SupercuspidalOracle,
    make_supercuspidal,
    standard_family,
    trivial_character,
)

TOL_EXACT = mpf("1e-20")
TOL_PAIR_SUM = mpf("1e-18")
TOL_SOLVER = mpf("1e-12")
TOL_POINT = mpf("1e-15")
TOL_NORM = mpf("1e-6")


@dataclass
class CheckReport:
    check_id: str
    statement: str
    family: str
    cases: int = 0
    max_deviation: mpf = field(default_factory=lambda: mpf(0))
    passed: bool = True
    tolerance: mpf = field(default_factory=lambda: mpf(0))
    worst_case: str = ""

    def record(self, deviation, witness: str) -> None:
        deviation = mpf(abs(deviation))
        self.cases += 1
        if deviation > self.max_deviation:
            self.max_deviation = deviation
            self.worst_case = witness
        if deviation > self.tolerance:
            self.passed = False

    def record_bool(self, ok: bool, witness: str) -> None:
        self.cases += 1
        if not ok:
            self.passed = False
            self.max_deviation = mpf("inf")
            self.worst_case = witness

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "family": self.family,
            "cases": self.cases,
            "max_deviation": mp.nstr(self.max_deviation, 8),
            "tolerance": mp.nstr(self.tolerance, 8),
            "passed": self.passed,
            "worst_case": self.worst_case,
        }


def _x_at_valuation(p: int, t: int, unit: int = 1, K: int = 8) -> PAdicApprox:
    return PAdicApprox(p, t, unit, max(K, -t + 2, 1))


# ---------------------------------------------------------------------------
# GL(1) checks


def check_gauss_closed_form(p_list, a_max: int, v_range=(-4, 2),
                            units=None) -> CheckReport:
    rep = CheckReport(
        "gauss-closed-form",
        "unit-average of psi(x y) mu(y) equals its five-case closed form",
        f"p in {list(p_list)}, cond(mu) <= {a_max}, v(x) in {list(v_range)}",
        tolerance=TOL_EXACT,
    )
    for p in p_list:
        test_units = units or [1, unit_group(p, 1).generators[0][0] if p > 2 else 3]
        for mu in characters_mod(p, a_max):
            for t in range(v_range[0], v_range[1] + 1):
                for u in test_units:
                    if u % p == 0:
                        continue
                    x = _x_at_valuation(p, t, u)
                    got = gauss_sum(x, mu)
                    want = gauss_sum_closed(x, mu)
                    rep.record(abs(got - want),
                               f"p={p} mu={format_char(mu)} v(x)={t} u={u}")
    return rep


def check_epsilon_properties(p_list, a_max: int) -> CheckReport:
    rep = CheckReport(
        "epsilon-unitarity-duality",
        "|eps(1/2,mu)| = 1 and eps(1/2,mu) eps(1/2,mu^-1) = mu(-1)",
        f"p in {list(p_list)}, cond(mu) <= {a_max}",
        tolerance=TOL_EXACT,
    )
    for p in p_list:
        for mu in characters_mod(p, a_max):
            e = epsilon_factor(mu)
            e_inv = epsilon_factor(mu.inverse())
            rep.record(abs(abs(e) - 1), f"p={p} |eps| mu={format_char(mu)}")
            want = mu.at_minus_one().embed()
            rep.record(abs(e * e_inv - want),
                       f"p={p} duality mu={format_char(mu)}")
    return rep


def check_epsilon_alignment(p_list, r_values=(2, 3, 4)) -> CheckReport:
    """The aligning unit v0 of a ramified character makes
    eps(1/2, mu^-1 chi^-1) mu(-v0) independent of mu through conductor
    floor(r/2); verified against eps(1/2, chi^-1) directly."""
    rep = CheckReport(
        "epsilon-shift-alignment",
        "eps(1/2, mu^-1 chi^-1) mu(-v0) = eps(1/2, chi^-1) for cond(mu) <= floor(r/2)",
        f"p in {list(p_list)}, cond(chi) in {list(r_values)}",
        tolerance=TOL_EXACT,
    )
    for p in p_list:
        for r in r_values:
            for chi in characters_mod(p, r):
                if chi.conductor != r:
                    continue
                v0 = critical_unit(chi)
                rep.record_bool(verify_critical_unit(chi, v0),
                                f"p={p} chi={format_char(chi)} v0={v0}")
                target = epsilon_factor(chi.inverse())
                for mu in characters_mod(p, r // 2):
                    lhs = epsilon_factor((mu * chi).inverse())
                    lhs *= mu.eval_unit(-v0 % p ** max(mu.conductor, 1)).embed()
                    rep.record(abs(lhs - target),
                               f"p={p} chi={format_char(chi)} mu={format_char(mu)}")
    return rep


def pair_sum(p: int, r: int, chi: UnitCharacter, v: int) -> mpc:
    """sum over cond(mu) = r of eps(1/2,mu^-1) eps(1/2,mu chi) mu(v), for
    ``r >= 2`` and ``cond(chi) < r``."""
    if r < 2 or chi.conductor >= r:
        raise ValueError(f"pair sums need r >= 2 and cond(chi) < r; got r = {r}, "
                         f"cond(chi) = {chi.conductor}")
    transform = _pair_transform(p, r, chi)
    return transform[unit_group(p, r).index(v)]


@working_cache(maxsize=128)
def _pair_transform(p: int, r: int, chi: UnitCharacter) -> tuple:
    """:func:`pair_sum` at every unit of ``unit_group(p, r).units()``.

    Both factors of each weight ``eps(mu^-1) eps(mu chi)`` have conductor
    ``r >= 2``, as ``cond(chi) < r``, so the weight is an exact root of unity,
    and so is each term ``weight mu(v)``: every pair sum is an integer
    histogram over the ``L``-th roots, summed by :func:`unity_sum` and scaled
    by ``(1 + delta)^2`` under :func:`perturb_epsilon`."""
    chars = characters_mod(p, r)
    live = [i for i, mu in enumerate(chars) if mu.conductor == r]
    weights = [epsilon_root(chars[i].inverse()) * epsilon_root(chars[i] * chi)
               for i in live]
    n, index = character_phases(p, r)
    L = math.lcm(n, *(w.order for w in weights))
    shifts = np.array([w.num * (L // w.order) for w in weights], dtype=np.int64)
    phases = (shifts[:, None] + index[live] * (L // n)) % L
    return tuple(perturbed(unity_sum(phases[:, j], L), 2)
                 for j in range(phases.shape[1]))


def check_pair_sum_dichotomy(p_list, r_max: int = 4) -> CheckReport:
    """Magnitude dichotomy of the epsilon pair sum over exact-level
    characters: zeta(1)^-1 q^(r - r'/2) on the coset -1 + p^(r-r') units,
    zero off it.  (Direct summation; the exponent r - r'/2 is forced by the
    Gauss-sum factorization of the sum.)"""
    rep = CheckReport(
        "epsilon-pair-sum-dichotomy",
        "|sum_{cond(mu)=r} eps(1/2,mu^-1) eps(1/2,mu chi) mu(v)| is "
        "zeta(1)^-1 q^(r - r'/2) on -1 + p^(r-r') units and 0 elsewhere",
        f"p in {list(p_list)}, 0 < r' < r <= {r_max}",
        tolerance=TOL_PAIR_SUM,
    )
    for p in p_list:
        for r in range(2, r_max + 1):
            for rp in range(1, r):
                chis = [c for c in characters_mod(p, rp) if c.conductor == rp]
                if not chis:
                    continue
                chi = chis[0]
                magnitude = (1 - mpf(1) / p) * mp.power(p, r - mpf(rp) / 2)
                for v in unit_group(p, r).units():
                    s = abs(pair_sum(p, r, chi, v))
                    w = v + 1
                    val = 0
                    while w and w % p == 0:
                        w //= p
                        val += 1
                    on_coset = val == r - rp
                    want = magnitude if on_coset else mpf(0)
                    rep.record(abs(s - want),
                               f"p={p} r={r} r'={rp} v={v}")
    return rep


# ---------------------------------------------------------------------------
# Per-representation engine checks


def _random_triples(rep: Representation, count: int, seed: int):
    rng = random.Random(seed)
    n, p = rep.n, rep.p
    out = []
    for _ in range(count):
        k = rng.randint(0, n)
        t = rng.randint(-k - n, n + 4)
        kn = max(min(k, n - k), 1)
        v = rng.choice(unit_group(p, kn).units())
        out.append(Representative(t, k, v))
    return out


def check_normalization(rep: Representation) -> CheckReport:
    """End-to-end solver check: the identity coset value, computed through
    the direct level-n solve and through the Atkin-Lehner route, both equal
    omega(-p^-n) psi(-p^-n)."""
    n, p = rep.n, rep.p
    r = Representative(-2 * n, n, 1)
    minus_pi_inv = PAdicApprox(p, -n, -1, n)
    want = rep.omega.eval_unit(-1 % p ** max(rep.m, 1)).embed() \
        * psi_eval(minus_pi_inv).embed()
    report = CheckReport(
        "normalization-identity-coset",
        "W(g(-2n, n, 1)) = omega(-p^-n) psi(-p^-n), equivalent to W(1) = 1",
        rep.spec_string(),
        tolerance=TOL_SOLVER,
    )
    got_direct = whittaker_value(rep, r, direct=True)
    report.record(abs(got_direct - want), "direct level-n solve")
    got_al = whittaker_value(rep, r)
    report.record(abs(got_al - want), "Atkin-Lehner route")
    return report


def check_support(rep: Representation) -> CheckReport:
    report = CheckReport(
        "support-vanishing",
        "W(g(t,k,v)) = 0 for t < -k - n",
        rep.spec_string(),
        tolerance=TOL_POINT,
    )
    n, p = rep.n, rep.p
    for k in range(n + 1):
        tabs = tables_for_level(rep, k).columns
        for delta in (1, 2, 3):
            t = -k - n - delta
            val = mpc(0)
            for tab in tabs:
                val += tab.value(t)
            report.record(abs(val), f"k={k} t={t}")
    return report


def check_atkin_lehner(rep: Representation, count: int = 100,
                       seed: int = 7) -> CheckReport:
    """Pointwise phase identity W(r) = phase * W~(reduced r), and the
    modulus-only corollary |W*(g(t,k,v))| = |W(g(t+2k-n, n-k, -v))|."""
    report = CheckReport(
        "atkin-lehner-phase",
        "W(g(t,k,v)) = eps(1/2,dual) omega^-1(v) psi(-p^(t+k) v^-1) "
        "W~(g(t+2k-n, n-k, -v)) with unit-modulus phase",
        rep.spec_string(),
        tolerance=TOL_SOLVER,
    )
    for r in _random_triples(rep, count, seed):
        phase, reduced, dual = atkin_lehner_reduce(rep, r)
        report.record(abs(abs(phase) - 1), f"|phase| at {r}")
        lhs = whittaker_value(rep, r, direct=True)
        rhs = phase * whittaker_value(dual, reduced, direct=True)
        report.record(abs(lhs - rhs), f"phase identity at {r}")
        conj = conjugate_value(rep, r)
        mirrored = whittaker_value(
            rep,
            Representative(r.t + 2 * r.k - rep.n, rep.n - r.k,
                           (-r.v) % rep.p ** max(rep.n - r.k, 1)),
            direct=True,
        )
        report.record(abs(abs(conj) - abs(mirrored)), f"modulus mirror at {r}")
    return report


def check_dual_tables(rep: Representation) -> CheckReport:
    """The conjugate-variant coefficients, read off ``rep``'s own tables,
    equal the contragredient's.  For unitary ``pi`` the contragredient is
    the complex conjugate, and ``diag(1, -1)`` lies in the level subgroup, so
    ``W~(g(t,k,v)) = omega(-1) conj(W(g(t,k,-v)))``; over the characters of
    level k this reads ``c~[t,k](nu) = omega(-1) nu(-1) conj(c[t,k](nu^-1))``.
    Both columns come from :func:`tables_for_level`, one case per degree
    stored in either."""
    report = CheckReport(
        "dual-table-consistency",
        "conjugate-variant coefficients equal the contragredient's",
        rep.spec_string(),
        tolerance=TOL_SOLVER,
    )
    dual = contragredient_of(rep)
    sign = rep.omega.at_minus_one()
    for k in range(rep.n // 2 + 1):
        chars = characters_mod(rep.p, k)
        position = {mu: i for i, mu in enumerate(chars)}
        columns = tables_for_level(rep, k).columns
        for nu, direct in zip(chars, tables_for_level(dual, k).columns):
            mirror = columns[position[nu.inverse()]]
            phase = (sign * nu.at_minus_one()).embed()
            for t in sorted(set(direct.coeffs) | set(mirror.coeffs)):
                report.record(
                    abs(direct.value(t) - phase * mirror.value(t).conjugate()),
                    f"k={k} mu={format_char(nu)} t={t}",
                )
    return report


def check_diagonal_and_reduction(rep: Representation, seed: int = 29) -> CheckReport:
    """Diagonal newvector values against the engine through the constructive
    coset reduction: reduce diag(p^t v, 1) to its representative triple and
    compare the reconstructed value with the diagonal table, for both
    invariance variants.  Exercises the disjoint-union bookkeeping."""
    report = CheckReport(
        "diagonal-via-reduction",
        "matrix reduction of diag(p^t v, 1) reproduces the diagonal value "
        "table for the newvector and its conjugate variant",
        rep.spec_string(),
        tolerance=TOL_SOLVER,
    )
    n, p = rep.n, rep.p
    dual = contragredient_of(rep)
    units = unit_group(p, max(rep.m, 1)).units()
    for t in range(-2, 4):
        for v in units[:4]:
            g = Mat2.from_rationals(p, [Fraction(p) ** t * v, 0, 0, 1])
            psi_ph, om_ph, r = reduce_matrix(rep, g)
            got = psi_ph.embed() * om_ph.embed() * whittaker_value(rep, r, direct=True)
            want = rep.diagonal_value(t, v)
            report.record(abs(got - want), f"plain t={t} v={v}")
            # Conjugate variant: W*(g) = omega(det g at units) W~(g).
            psi_ph, om_ph, r = reduce_matrix(dual, g)
            got = psi_ph.embed() * om_ph.embed() * whittaker_value(dual, r, direct=True)
            got *= rep.omega.eval_unit(v).embed()
            want = rep.diagonal_value(t, v, conjugate=True)
            report.record(abs(got - want), f"conjugate t={t} v={v}")
    # Random full-group round trips against independently assembled products.
    rng = random.Random(seed)
    pn = p**n
    for _ in range(12):
        t = rng.randint(-4, 2)
        k = rng.randint(0, n)
        v = rng.choice([u for u in range(1, pn) if u % p])
        u0 = rng.choice(units)
        x0 = Fraction(rng.randint(-6, 6), p ** rng.randint(0, 2))
        a_, b_, c_, d_ = (Fraction(0), Fraction(p) ** t,
                          Fraction(-1), -Fraction(p) ** (-k) * v)
        a_, b_ = a_ + x0 * c_, b_ + x0 * d_
        a_, b_, c_, d_ = u0 * a_, u0 * b_, u0 * c_, u0 * d_
        kb, kd = rng.randint(-2, 2), rng.choice(units)
        g = Mat2.from_rationals(p, [a_, a_ * kb + b_ * kd, c_, c_ * kb + d_ * kd])
        psi_ph, om_ph, r = reduce_matrix(rep, g)
        lhs = psi_ph.embed() * om_ph.embed() * whittaker_value(rep, r, direct=True)
        # v(x0) >= -2, so psi(x0) reads its unit part mod p^2.
        px = psi_eval(PAdicApprox.from_rational(p, x0, 2)) if x0 else None
        rhs = (px.embed() if px else 1) * rep.omega.eval_unit(u0).embed() \
            * whittaker_value(rep, Representative(t, k, v), direct=True)
        report.record(abs(lhs - rhs), f"roundtrip t={t} k={k} v={v}")
    return report


def check_closed_forms(rep: Representation) -> CheckReport:
    """Solver columns of principal series against the independent closed
    forms: single support at t = -k - n for one ramified factor (k >= 1),
    single support at the twisted conductor for two ramified factors and
    generic twists."""
    report = CheckReport(
        "closed-form-columns",
        "principal-series solver columns equal their epsilon/Gauss closed forms",
        rep.spec_string(),
        tolerance=TOL_POINT,
    )
    if not isinstance(rep, PrincipalSeries):
        report.record(0, "not a principal series; nothing to check")
        return report
    n, p = rep.n, rep.p
    for k in range(n // 2 + 1):
        for mu in characters_mod(p, k):
            tab = coefficient_table(rep, k, mu)
            tw1, tw2 = rep.chi1.twist(mu), rep.chi2.twist(mu)
            if rep.chi2.conductor == 0:
                if k == 0:
                    continue  # geometric column, covered by normalization
                t0 = -k - n
                want = (
                    zeta1(p)
                    * (rep.chi2.pi_value ** (-k)).embed()
                    * mp.power(p, -mpf(k) / 2)
                    * mu.at_minus_one().embed()
                    * tw1.inverse().epsilon()
                )
            else:
                if tw1.conductor == 0 or tw2.conductor == 0:
                    continue  # non-generic unit class
                t0 = -tw1.conductor - tw2.conductor
                x = PAdicApprox(p, -k, 1, max(k, 1))
                want = rep.omega.at_minus_one().embed() \
                    * gauss_sum_closed(x, mu.inverse()) / (tw1.epsilon() * tw2.epsilon())
            for t in set(tab.coeffs) | {t0}:
                target = want if t == t0 else mpc(0)
                report.record(abs(tab.value(t) - target),
                              f"k={k} mu={format_char(mu)} t={t}")
    return report


def check_parseval(rep: Representation, seed: int = 11) -> CheckReport:
    """Square sums of Fourier coefficients equal direct unit averages of
    |W|^2, and the per-level norm sums sit in the allowed window."""
    report = CheckReport(
        "parseval-and-norms",
        "sum_mu |c[t,k](mu)|^2 = average_v |W(g(t,k,v))|^2; "
        "1 <= sum_t lambda^2 <= 2 (= 1 when the L-factor is trivial)",
        rep.spec_string(),
        tolerance=TOL_NORM,
    )
    n, p = rep.n, rep.p
    rng = random.Random(seed)
    for k in range(n // 2 + 1):
        by_t = tables_for_level(rep, k).by_t
        support = sorted(by_t)
        pick = support if len(support) <= 6 else rng.sample(support, 6)
        units = unit_group(p, k).units()
        for t in sorted(pick):
            parseval = mpf(0)
            for _, c in by_t[t]:
                parseval += abs(c) ** 2
            direct = mpf(0)
            for v in units:
                direct += abs(whittaker_value(rep, Representative(t, k, v))) ** 2
            direct /= len(units)
            report.record(abs(parseval - direct), f"parseval k={k} t={t}")
        total, tail = lambda_sq_sum(rep, k)
        low, high = mpf(1), mpf(2)
        if rep.has_trivial_lfactor:
            high = mpf(1)
        dev = mpf(0)
        if total + tail < low - TOL_NORM:
            dev = low - total - tail
        if total > high + TOL_NORM:
            dev = max(dev, total - high)
        report.record(dev, f"norm window k={k} sum={mp.nstr(total, 12)}")
    # Level symmetry of the norms under dualizing; the two truncation windows
    # differ, so the comparison is only meaningful up to both tails.
    dual = contragredient_of(rep)
    for k in range(n // 2 + 1):
        a, tail_a = lambda_sq_sum(rep, k)
        b, tail_b = lambda_sq_sum(dual, n - k)
        gap = abs(a - b) - (tail_a + tail_b)
        report.record(max(gap, mpf(0)), f"lambda symmetry k={k}")
    return report


def check_main_theorem(family) -> CheckReport:
    """Certified sup-norms against the two-sided reference bounds, with the
    witness construction checked in the aligned-phase regime."""
    report = CheckReport(
        "supnorm-sandwich",
        "(2/3) max(q^(floor(3m/2)/2 - n/2), 1) <= h <= sqrt(2) q^(floor(n/2)/2); "
        "h = 1 for n <= 1, q >= 5; aligned witnesses reach (2/3) of the lower "
        "reference when m > 2n/3",
        f"{len(family)} descriptors",
        tolerance=mpf("1e-10"),
    )
    two_thirds = mpf(2) / 3
    for rep in family:
        res = sup_norm(rep)
        report.record_bool(res.certified, f"certification {rep.spec_string()}")
        lower, upper = res.lower_ref, res.upper_ref
        dev = mpf(0)
        if res.h < two_thirds * lower:
            dev = two_thirds * lower - res.h
        if res.h > mp.sqrt(2) * upper:
            dev = max(dev, res.h - mp.sqrt(2) * upper)
        report.record(dev, f"sandwich {rep.spec_string()} h={mp.nstr(res.h, 12)}")
        if rep.n <= 1 and rep.p >= 5:
            report.record(abs(res.h - 1), f"h=1 case {rep.spec_string()}")
        if isinstance(rep, PrincipalSeries) and 3 * rep.m > 2 * rep.n:
            w = lower_bound_witness(rep)
            wval = abs(whittaker_value(rep, w, direct=True))
            ref = mp.power(rep.p, mpf(3 * rep.m // 2) / 2 - mpf(rep.n) / 2)
            if wval < two_thirds * ref - mpf("1e-10"):
                report.record(two_thirds * ref - wval,
                              f"witness {rep.spec_string()} at {w}")
            else:
                report.record(0, f"witness {rep.spec_string()}")
    return report


def check_representation(rep: Representation) -> CheckReport:
    """Aggregate per-representation check.

    Supercuspidal descriptors run the structural subset only: identities
    that solve columns above level n/2 directly (normalization through the
    level-n table, the two-sided phase identity, Parseval) pin down genuine
    representation data, which a synthetic oracle's random phases do not
    carry.
    """
    if isinstance(rep, SupercuspidalOracle):
        parts = [
            check_support(rep),
            check_dual_tables(rep),
            check_supercuspidal_structure(rep),
        ]
    else:
        parts = [
            check_normalization(rep),
            check_support(rep),
            check_atkin_lehner(rep, count=30),
            check_dual_tables(rep),
            check_closed_forms(rep),
            check_diagonal_and_reduction(rep),
            check_parseval(rep),
        ]
    agg = CheckReport(
        "representation-all",
        "all per-representation engine checks",
        rep.spec_string(),
        tolerance=TOL_SOLVER,
    )
    # Structural invariants of the descriptor itself.
    agg.record_bool(rep.m <= rep.n, "central conductor exceeds n")
    if 2 * rep.m > rep.n:
        agg.record_bool(isinstance(rep, PrincipalSeries),
                        "highly ramified center on a non-induced type")
    for part in parts:
        agg.cases += part.cases
        agg.max_deviation = max(agg.max_deviation, part.max_deviation)
        if not part.passed:
            agg.passed = False
            agg.worst_case = agg.worst_case or part.check_id
    return agg


# ---------------------------------------------------------------------------
# Synthetic supercuspidal oracles (structural tests only)


def synthetic_oracle(p: int, n: int, omega: UnitCharacter | None = None,
                     seed: int = 1) -> SupercuspidalOracle:
    """A structurally valid supercuspidal oracle with random unit phases.

    The epsilon data respects the duality pairing
    ``eps(mu') eps(mu'^-1 omega^-1) = omega(-1)`` and the stable twist
    conductor pattern ``max(n, 2 cond(mu))``, but encodes no actual
    representation: norm identities are not expected to hold, only the
    structural ones.
    """
    if omega is None:
        omega = trivial_character(p)
    if 2 * omega.conductor > n:
        raise ValueError("central character too ramified")
    rng = random.Random(seed)
    omega_inv = omega.inverse()
    omega_m1 = omega.at_minus_one()  # exact +-1 as a root of unity
    assigned: dict[UnitCharacter, tuple[int, RootOfUnity]] = {}
    order = 840
    for mu in characters_mod(p, n):
        if mu in assigned:
            continue
        a = mu.conductor
        A = max(n, 2 * a)
        partner = mu.inverse() * omega_inv
        if partner == mu:
            # Self-paired key: eps^2 = omega(-1) exactly.
            base = RootOfUnity(1, 4) if omega_m1 == MINUS_ONE else ONE
            eps = base if rng.random() < 0.5 else base * MINUS_ONE
            assigned[mu] = (A, eps)
        else:
            eps = RootOfUnity(rng.randrange(order), order)
            assigned[mu] = (A, eps)
            assigned[partner] = (A, omega_m1 * eps.inverse())
    twists = [(mu, A, eps.embed()) for mu, (A, eps) in assigned.items()]
    return make_supercuspidal(p, n, omega, twists)


def check_supercuspidal_structure(rep: SupercuspidalOracle,
                                  seed: int = 3) -> CheckReport:
    """Level-0 column is a unit-modulus delta at t = -n; general values match
    the independent closed-form transcription."""
    report = CheckReport(
        "supercuspidal-structure",
        "k=0 column is eps(1/2, dual) delta(t=-n) with modulus 1; "
        "solver output equals the closed-form epsilon-pair sum",
        rep.spec_string(),
        tolerance=TOL_POINT,
    )
    n, p = rep.n, rep.p
    for t in range(-n - 3, 3):
        got = whittaker_value(rep, Representative(t, 0, 1))
        if t == -n:
            report.record(abs(abs(got) - 1), f"k=0 t={t} modulus")
        else:
            report.record(abs(got), f"k=0 t={t} vanishing")
    rng = random.Random(seed)
    for k in range(0, n + 1):
        lo = -2 * n - 2 * k - 2
        ts = sorted(rng.sample(range(lo, 1), min(6, max(1, 1 - lo))))
        kn = max(min(k, n - k), 1)
        for t in ts:
            v = rng.choice(unit_group(p, kn).units())
            got = whittaker_value(rep, Representative(t, k, v), direct=True)
            want = supercuspidal_closed_value(rep, Representative(t, k, v))
            report.record(abs(got - want), f"closed form k={k} t={t} v={v}")
    return report


# ---------------------------------------------------------------------------
# Suite runner


def run_suite(p_list=(2, 3, 5), a_max: int = 3, nmax: int = 3,
              suites=("gl1", "representation", "main")):
    """Run the selected check groups; returns a list of CheckReport."""
    reports: list[CheckReport] = []
    if "gl1" in suites:
        reports.append(check_gauss_closed_form(p_list, a_max))
        reports.append(check_epsilon_properties(p_list, a_max))
        reports.append(check_epsilon_alignment([p for p in p_list if p in (3, 5)]))
        reports.append(check_pair_sum_dichotomy([p for p in p_list if p in (3, 5)]))
    family = []
    for p in p_list:
        family.extend(standard_family(p, nmax))
    if "representation" in suites:
        for rep in family:
            reports.append(check_representation(rep))
        for p in p_list:
            oracle = synthetic_oracle(p, max(2, min(nmax, 4)), seed=2)
            reports.append(check_supercuspidal_structure(oracle))
    if "main" in suites:
        reports.append(check_main_theorem(family))
    return reports


def manifest(reports) -> list[dict]:
    """Machine-readable coverage manifest: one entry per check with the
    verified statement."""
    return [r.as_dict() for r in reports]
