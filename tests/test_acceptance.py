"""Acceptance gate: one test per numbered criterion, each printing a summary
line (run with ``pytest tests/test_acceptance.py -s`` to see every line).

Tolerances are pinned here and nowhere else.  Criterion 4 pins the epsilon
pair-sum magnitude zeta(1)^-1 q^(r - r'/2) on the aligned coset three ways:
the vanishing locus off it (4a), the constant together with the Parseval
total that forces it (4b), and the constant against direct summation
alone (4c).
"""

import random
import time

import pytest
from mpmath import mp, mpc, mpf

from padwhit.characters import (
    characters_mod,
    epsilon_factor,
    gauss_sum,
    gauss_sum_closed,
    make_character,
)
from padwhit.engine import (
    Representative,
    atkin_lehner_reduce,
    coefficient_table,
    contragredient_of,
    conjugate_value,
    lambda_sq_sum,
    lower_bound_witness,
    sup_norm,
    supercuspidal_closed_value,
    whittaker_value,
)
from padwhit.padics import PAdicApprox, psi_eval, unit_group
from padwhit.representations import (
    PrincipalSeries,
    principal_series_family,
    steinberg_family,
    standard_family,
)
from padwhit.verify import pair_sum, synthetic_oracle


def announce(number, passed, detail):
    status = "pass" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>3} [{status}] {detail}", flush=True)


@pytest.fixture(scope="module")
def scan_family():
    """p in {2,3,5}; principal series with cond(chi1) <= 3, cond(chi2) <= 1;
    Steinberg twists with cond(xi) <= 1."""
    reps = []
    for p in (2, 3, 5):
        reps.extend(principal_series_family(p, 3, 1))
        reps.extend(steinberg_family(p, 1))
    return reps


def test_criterion_01_gauss_sum_formula():
    tol = mpf("1e-20")
    start = time.monotonic()
    worst = mpf(0)
    cases = 0
    for p in (2, 3, 5, 7):
        gen = unit_group(p, 1).generators[0][0] if p > 2 else 3
        for mu in characters_mod(p, 3):
            for t in range(-4, 3):
                for u in (1, gen):
                    x = PAdicApprox(p, t, u, max(6, -t + 1))
                    dev = abs(gauss_sum(x, mu) - gauss_sum_closed(x, mu))
                    worst = max(worst, dev)
                    cases += 1
    elapsed = time.monotonic() - start
    ok = worst < tol and elapsed < 30
    announce(1, ok, f"gauss five-case formula: {cases} cases, "
                    f"max dev {mp.nstr(worst, 4)}, {elapsed:.1f}s")
    assert worst < tol
    assert elapsed < 30


def test_criterion_02_epsilon_properties():
    tol = mpf("1e-20")
    worst = mpf(0)
    for p in (2, 3, 5, 7):
        for mu in characters_mod(p, 3):
            e = epsilon_factor(mu)
            worst = max(worst, abs(abs(e) - 1))
            worst = max(
                worst,
                abs(e * epsilon_factor(mu.inverse()) - mu.at_minus_one().embed()),
            )
    spot = abs(epsilon_factor(make_character(3, 1, [1])) - mpc(0, 1))
    worst = max(worst, spot)
    announce(2, worst < tol,
             f"epsilon unitarity/duality + spot eps(quad mod 3) = i: "
             f"max dev {mp.nstr(worst, 4)}")
    assert worst < tol


def test_criterion_03_alignment_lemma():
    from padwhit.characters import critical_unit, verify_critical_unit

    tol = mpf("1e-20")
    worst = mpf(0)
    cases = 0
    for p in (3, 5):
        for r in (2, 3, 4):
            for chi in characters_mod(p, r):
                if chi.conductor != r:
                    continue
                v0 = critical_unit(chi)
                assert verify_critical_unit(chi, v0)
                target = epsilon_factor(chi.inverse())
                for mu in characters_mod(p, r // 2):
                    got = epsilon_factor((mu * chi).inverse()) \
                        * mu.eval_unit(-v0 % p ** max(mu.conductor, 1)).embed()
                    worst = max(worst, abs(got - target))
                    cases += 1
    announce(3, worst < tol,
             f"epsilon shift alignment: {cases} cases, max dev {mp.nstr(worst, 4)}")
    assert worst < tol


def _pair_sum_scan(p_list=(3, 5), r_max=4):
    """(on-coset magnitudes, off-coset magnitudes) over the stated family."""
    on, off = [], []
    for p in p_list:
        for r in range(2, r_max + 1):
            for rp in range(1, r):
                chi = next(c for c in characters_mod(p, rp) if c.conductor == rp)
                for v in unit_group(p, r).units():
                    s = abs(pair_sum(p, r, chi, v))
                    val = 0
                    w = v + 1
                    while w % p == 0:
                        w //= p
                        val += 1
                    (on if val == r - rp else off).append((p, r, rp, v, s))
    return on, off


@pytest.fixture(scope="module")
def pair_sum_data():
    return _pair_sum_scan()


def test_criterion_04_pair_sum_vanishing_half(pair_sum_data):
    on, off = pair_sum_data
    tol = mpf("1e-18")
    worst = max((s for *_, s in off), default=mpf(0))
    announce("4a", worst < tol,
             f"pair-sum dichotomy, vanishing locus: {len(off)} cases, "
             f"max |sum| off the coset {mp.nstr(worst, 4)}")
    assert worst < tol


def test_criterion_04_pair_sum_magnitude_as_stated(pair_sum_data):
    # Parseval pins the constant without the summation: characters mod p^r
    # are orthogonal and |eps| = 1, so sum over all units of |S(v)|^2 is
    # phi(p^r) N_r, N_r = #{mu : a(mu) = r}.  S vanishes off the coset
    # (4a), which holds p^(r'-1)(p-1) units, so a constant on-coset
    # magnitude must be (1 - 1/p) p^(r - r'/2).
    on, off = pair_sum_data
    tol = mpf("1e-18")
    worst = mpf(0)
    worst_at = None
    for p, r, rp, v, s in on:
        stated = (1 - mpf(1) / p) * mp.power(p, r - mpf(rp) / 2)
        dev = abs(s - stated)
        if dev > worst:
            worst, worst_at = dev, (p, r, rp, v, s, stated)
    energy = {}
    for p, r, rp, v, s in on + off:
        energy[p, r, rp] = energy.get((p, r, rp), mpf(0)) + s * s
    worst_parseval = mpf(0)
    for (p, r, rp), total in energy.items():
        n_r = sum(1 for mu in characters_mod(p, r) if mu.conductor == r)
        want = (p - 1) * p ** (r - 1) * n_r
        worst_parseval = max(worst_parseval, abs(total - want) / want)
    spot = next(s for p, r, rp, v, s in on if (p, r, rp) == (3, 2, 1))
    passed = worst < tol and worst_parseval < tol
    announce("4b", passed,
             f"pair-sum magnitude zeta(1)^-1 q^(r - r'/2): max dev "
             f"{mp.nstr(worst, 4)} at {worst_at[:4] if worst_at else None}; "
             f"Parseval phi(p^r) N_r over {len(energy)} (p, r, r'): max rel "
             f"dev {mp.nstr(worst_parseval, 4)}; spot (p=3,r=2,r'=1): "
             f"measured {mp.nstr(spot, 8)} vs stated "
             f"{mp.nstr(2 * mp.sqrt(3), 8)}")
    assert worst < tol, (
        "the epsilon pair sum over exact-level-r characters must have "
        "magnitude zeta(1)^-1 q^(r - r'/2) on the aligned coset, the constant "
        f"Parseval forces; max dev {mp.nstr(worst, 4)} at "
        f"{worst_at[:4] if worst_at else None}"
    )
    assert worst_parseval < tol, (
        "sum over all units of |pair sum|^2 must equal phi(p^r) N_r "
        f"(orthogonality with |eps| = 1); max rel dev "
        f"{mp.nstr(worst_parseval, 4)}"
    )


def test_criterion_04_pair_sum_magnitude_measured(pair_sum_data):
    # Direct-summation companion to 4b: checks the summed magnitude against
    # the closed form alone, without the Parseval total.
    on, _ = pair_sum_data
    tol = mpf("1e-18")
    worst = mpf(0)
    for p, r, rp, v, s in on:
        measured_form = (1 - mpf(1) / p) * mp.power(p, r - mpf(rp) / 2)
        worst = max(worst, abs(s - measured_form))
    announce("4c", worst < tol,
             f"pair-sum magnitude zeta(1)^-1 q^(r - r'/2): {len(on)} cases, "
             f"max dev {mp.nstr(worst, 4)}")
    assert worst < tol


def test_criterion_05_normalization(scan_family):
    tol = mpf("1e-12")
    worst = mpf(0)
    for rep in scan_family:
        p, n = rep.p, rep.n
        r = Representative(-2 * n, n, 1)
        want = rep.omega.eval_unit(-1 % p ** max(rep.m, 1)).embed() \
            * psi_eval(PAdicApprox(p, -n, -1, n)).embed()
        worst = max(worst, abs(whittaker_value(rep, r, direct=True) - want))
        worst = max(worst, abs(whittaker_value(rep, r) - want))
    announce(5, worst < tol,
             f"identity-coset normalization over {len(scan_family)} descriptors: "
             f"max dev {mp.nstr(worst, 4)}")
    assert worst < tol


def test_criterion_06_atkin_lehner(scan_family):
    tol = mpf("1e-12")
    worst_phase = mpf(0)
    worst_mod = mpf(0)
    rng = random.Random(20260809)
    for rep in scan_family:
        n, p = rep.n, rep.p
        dual = contragredient_of(rep)
        for _ in range(100):
            k = rng.randint(0, n)
            t = rng.randint(-k - n, n + 3)
            kn = max(min(k, n - k), 1)
            v = rng.choice(unit_group(p, kn).units())
            r = Representative(t, k, v)
            phase, reduced, _ = atkin_lehner_reduce(rep, r)
            lhs = whittaker_value(rep, r, direct=True)
            rhs = phase * whittaker_value(dual, reduced, direct=True)
            worst_phase = max(worst_phase, abs(lhs - rhs),
                              abs(abs(phase) - 1))
            mirror = Representative(t + 2 * k - n, n - k,
                                    (-v) % p ** max(n - k, 1))
            worst_mod = max(
                worst_mod,
                abs(abs(conjugate_value(rep, r))
                    - abs(whittaker_value(rep, mirror, direct=True))),
            )
    ok = worst_phase < tol and worst_mod < tol
    announce(6, ok, f"Atkin-Lehner phase and modulus identities, 100 triples "
                    f"per descriptor: max devs {mp.nstr(worst_phase, 4)} / "
                    f"{mp.nstr(worst_mod, 4)}")
    assert worst_phase < tol
    assert worst_mod < tol


def test_criterion_07_norm_sums(scan_family):
    tol = mpf("1e-6")
    worst = mpf(0)
    for rep in scan_family:
        for k in range(rep.n // 2 + 1):
            total, tail = lambda_sq_sum(rep, k)
            dev = mpf(0)
            if total + tail < 1 - tol:
                dev = 1 - total - tail
            if total > 2 + tol:
                dev = max(dev, total - 2)
            if rep.has_trivial_lfactor:
                dev = max(dev, max(abs(total - 1) - tail, mpf(0)))
            worst = max(worst, dev)
    announce(7, worst < tol,
             f"norm sums in [1, 2] (= 1 for trivial L) over the family: "
             f"max excess {mp.nstr(worst, 4)}")
    assert worst < tol


@pytest.fixture(scope="module")
def supnorm_results(scan_family):
    return {rep.spec_string(): (rep, sup_norm(rep)) for rep in scan_family}


def test_criterion_08_supnorm_sandwich(scan_family, supnorm_results):
    two_thirds = mpf(2) / 3
    sqrt2 = mp.sqrt(2)
    ok = True
    detail = []
    for spec, (rep, res) in supnorm_results.items():
        if not res.certified:
            ok = False
            detail.append(f"uncertified {spec}")
        if not (two_thirds * res.lower_ref - mpf("1e-12") <= res.h
                <= sqrt2 * res.upper_ref + mpf("1e-12")):
            ok = False
            detail.append(f"sandwich broken {spec} h={mp.nstr(res.h, 8)}")
        if rep.n <= 1 and rep.p >= 5 and abs(res.h - 1) > mpf("1e-10"):
            ok = False
            detail.append(f"h != 1 at {spec}")
    start = time.monotonic()
    big = standard_family(3, 6)
    for rep in big:
        res = sup_norm(rep)
        if not res.certified or not (
            two_thirds * res.lower_ref <= res.h <= sqrt2 * res.upper_ref
        ):
            ok = False
            detail.append(f"n<=6 scan broken at {rep.spec_string()}")
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        ok = False
        detail.append(f"p=3 n<=6 runtime {elapsed:.0f}s")
    announce(8, ok, f"sup-norm sandwich, {len(scan_family)} family members + "
                    f"{len(big)} at p=3 n<=6 in {elapsed:.0f}s"
                    + ("" if ok else f": {detail[:3]}"))
    assert ok, detail


def test_criterion_09_witnesses(scan_family, supnorm_results):
    two_thirds = mpf(2) / 3
    ok = True
    cases = 0
    worst_ratio = mpf("inf")
    for rep in scan_family:
        if not isinstance(rep, PrincipalSeries) or 3 * rep.m <= 2 * rep.n:
            continue
        cases += 1
        a1, a2 = rep.chi1.conductor, rep.chi2.conductor
        w = lower_bound_witness(rep)
        if a2 == 0:
            expected_tk = (-(rep.n // 2) - rep.n, rep.n // 2)
        else:
            expected_tk = (-(3 * a1 // 2), a1 // 2)
        if (w.t, w.k) != expected_tk:
            ok = False
        ref = mp.power(rep.p, mpf(3 * rep.m // 2) / 2 - mpf(rep.n) / 2)
        ratio = abs(whittaker_value(rep, w, direct=True)) / ref
        worst_ratio = min(worst_ratio, ratio)
        if ratio < two_thirds - mpf("1e-12"):
            ok = False
    announce(9, ok, f"aligned witnesses over {cases} members with m > 2n/3: "
                    f"min |W(witness)| / reference = {mp.nstr(worst_ratio, 8)}")
    assert ok
    assert worst_ratio >= two_thirds - mpf("1e-12")


def test_criterion_10_supercuspidal_structure():
    tol = mpf("1e-15")
    worst = mpf(0)
    rng = random.Random(31)
    oracles = [
        synthetic_oracle(3, 2, seed=41),
        synthetic_oracle(3, 3, make_character(3, 1, [1]), seed=42),
        synthetic_oracle(5, 2, make_character(5, 1, [1]), seed=43),
        synthetic_oracle(2, 4, make_character(2, 2, [1]), seed=44),
    ]
    for sc in oracles:
        n, p = sc.n, sc.p
        eps_dual = sc.twist_data(sc.omega.inverse()).eps
        worst = max(worst, abs(abs(eps_dual) - 1))
        for t in range(-n - 3, 3):
            got = whittaker_value(sc, Representative(t, 0, 1))
            want = eps_dual if t == -n else mpc(0)
            worst = max(worst, abs(got - want))
        for k in range(n + 1):
            kn = max(min(k, n - k), 1)
            for t in range(-2 * n - 2, 1):
                v = rng.choice(unit_group(p, kn).units())
                r = Representative(t, k, v)
                worst = max(
                    worst,
                    abs(whittaker_value(sc, r, direct=True)
                        - supercuspidal_closed_value(sc, r)),
                )
    announce(10, worst < tol,
             f"supercuspidal delta column and closed-form match over "
             f"{len(oracles)} synthetic oracles: max dev {mp.nstr(worst, 4)}")
    assert worst < tol


def test_criterion_11_solver_vs_closed_form(scan_family):
    from padwhit.characters import gauss_sum_closed as gsc

    tol = mpf("1e-15")
    worst = mpf(0)
    cases = 0
    for rep in scan_family:
        if not isinstance(rep, PrincipalSeries) or not rep.has_trivial_lfactor:
            continue
        p, n = rep.p, rep.n
        for k in range(n // 2 + 1):
            for mu in characters_mod(p, k):
                tw1 = rep.chi1.twist(mu)
                tw2 = rep.chi2.twist(mu)
                if tw1.conductor == 0 or tw2.conductor == 0:
                    continue  # non-generic unit classes
                cases += 1
                tab = coefficient_table(rep, k, mu)
                t0 = -tw1.conductor - tw2.conductor
                x = PAdicApprox(p, -k, 1, max(k, 1))
                want = rep.omega.at_minus_one().embed() \
                    * gsc(x, mu.inverse()) / (tw1.epsilon() * tw2.epsilon())
                for t, c in tab.coeffs.items():
                    worst = max(worst,
                                abs(c - (want if t == t0 else mpc(0))))
                if abs(want) > tol:
                    worst = max(worst, abs(tab.value(t0) - want))
    announce(11, worst < tol,
             f"trivial-L-factor solver columns vs closed form: {cases} columns, "
             f"max dev {mp.nstr(worst, 4)}")
    assert worst < tol


def test_criterion_12_scan_determinism(tmp_path):
    from padwhit.cli import main

    outs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        code = main(["scan", "--p", "2,3", "--nmax", "2", "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    announce(12, ok, f"repeated scan byte-identical ({len(outs[0])} bytes)")
    assert ok
