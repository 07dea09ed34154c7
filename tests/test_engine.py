import logging
import math
import os
import random
import re
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import mp, mpc, mpf

from padwhit import characters, engine
from padwhit.characters import ExtendedCharacter, characters_mod, make_character
from padwhit.engine import (
    Mat2,
    Representative,
    atkin_lehner_reduce,
    coefficient_table,
    conjugate_value,
    decompose_matrix,
    lambda_sq_sum,
    lower_bound_witness,
    reduce_matrix,
    sup_norm,
    supercuspidal_closed_value,
    tables_for_level,
    theorem_refs,
    whittaker_value,
)
from padwhit.numerics import (
    ONE,
    MINUS_ONE,
    RootOfUnity,
    get_precision,
    perturb_epsilon,
    set_precision,
)
from padwhit.padics import PAdicApprox, psi_eval, split_rational, unit_group
from padwhit.representations import (
    PrincipalSeries,
    SteinbergTwist,
    SupercuspidalOracle,
    TwistData,
    parse_rep,
    standard_family,
    trivial_character,
)
from padwhit.verify import synthetic_oracle

import column_oracle

TOL = mpf("1e-12")
TOL_PT = mpf("1e-15")


def ext(p, a, exps, piv=ONE):
    return ExtendedCharacter(make_character(p, a, exps), piv)


def small_reps():
    return [
        PrincipalSeries(ext(3, 1, [1]), ext(3, 0, [])),
        PrincipalSeries(ext(3, 2, [1]), ext(3, 0, [])),
        PrincipalSeries(ext(3, 2, [1]), ext(3, 1, [1])),
        PrincipalSeries(ext(2, 2, [1]), ext(2, 0, [])),
        PrincipalSeries(ext(5, 1, [1], RootOfUnity(1, 2)),
                        ext(5, 0, [], RootOfUnity(1, 2))),
        SteinbergTwist(ext(3, 0, [])),
        SteinbergTwist(ext(3, 0, [], MINUS_ONE)),
        SteinbergTwist(ext(3, 1, [1])),
        SteinbergTwist(ext(2, 2, [1])),
    ]


def normalization_target(rep):
    p, n = rep.p, rep.n
    om = rep.omega.eval_unit(-1 % p ** max(rep.m, 1)).embed()
    return om * psi_eval(PAdicApprox(p, -n, -1, n)).embed()


@pytest.mark.parametrize("rep", small_reps(), ids=lambda r: r.spec_string())
def test_normalization_identity_coset(rep):
    r = Representative(-2 * rep.n, rep.n, 1)
    want = normalization_target(rep)
    assert abs(whittaker_value(rep, r, direct=True) - want) < TOL
    assert abs(whittaker_value(rep, r) - want) < TOL  # Atkin-Lehner route


def test_identity_coset_value_example():
    # p=3, quadratic chi1, trivial chi2: the identity coset value is
    # omega(-1/3) psi(-1/3) = -exp(-2 pi i / 3).
    rep = PrincipalSeries(ext(3, 1, [3]), ext(3, 0, []))
    got = whittaker_value(rep, Representative(-2, 1, 1))
    want = -mp.expjpi(mpf(-2) / 3)
    assert abs(got - want) < TOL


def test_corner_modulus_one():
    for rep in small_reps():
        n = rep.n
        val = whittaker_value(rep, Representative(-n, 0, -1 % rep.p))
        assert abs(abs(val) - 1) < TOL
        valc = conjugate_value(rep, Representative(-n, 0, -1 % rep.p))
        assert abs(abs(valc) - 1) < TOL


@pytest.mark.parametrize("rep", small_reps()[:4], ids=lambda r: r.spec_string())
def test_support_vanishing(rep):
    n = rep.n
    for k in range(n + 1):
        kn = max(min(k, n - k), 1)
        for delta in (1, 2, 3):
            t = -k - n - delta
            for v in unit_group(rep.p, kn).units()[:3]:
                assert abs(whittaker_value(rep, Representative(t, k, v),
                                           direct=True)) < TOL_PT


@pytest.mark.parametrize("spec, k, double", [
    ("ps:3^1:1@0/1,3^0:0@0/1", 0, False),  # one root: unramified chi2
    ("ps:5^1:1@1/2,5^0:0@1/2", 1, False),
    ("st:3^0:0@0/1", 0, False),  # Steinberg roots
    ("st:3^1:1@0/1", 1, False),
    ("st:2^2:1@0/1", 2, False),
    ("ps:3^1:1@0/1,3^1:1@0/1", 1, True),  # double root
])
def test_values_past_window_match_deeper_expansion(monkeypatch, spec, k, double):
    # Past the window a column is read off its partial fractions; solving
    # it with expand_geometric run 40 degrees deeper gives the same values.
    kind, payload = spec.split(":", 1)
    rep = parse_rep(kind, payload)
    window = engine._window(rep)
    tables = tables_for_level(rep, k).columns
    with monkeypatch.context() as m:
        m.setattr(engine, "_window", lambda rep: 2 * rep.n + 60)
        deeper = [coefficient_table(rep, k, tab.mu) for tab in tables]
    for tab, deep in zip(tables, deeper):
        assert tab.coeffs == {t: c for t, c in deep.coeffs.items() if t <= window}
        for t in range(window + 1, window + 41):
            want = deep.value(t)
            assert abs(tab.value(t) - want) <= mpf("1e-30") * abs(want)
    # The root the case is meant to cover is there: (b0, b1, a) with
    # b1 != 0 exactly for a double root.
    shapes = {(len(tab.parts), tab.parts[0][1] != 0)
              for tab in tables if tab.parts}
    assert (1, double) in shapes
    # whittaker_value past the window synthesizes the same coefficients.
    v = unit_group(rep.p, k).units()[-1]
    want = sum((deep.value(window + 3) * deep.mu.eval_unit(v).embed()
                for deep in deeper), mpc(0))
    got = whittaker_value(rep, Representative(window + 3, k, v), direct=True)
    assert abs(got - want) <= mpf("1e-30") * abs(want)


def _random_triples(rep, count, seed):
    rng = random.Random(seed)
    n, p = rep.n, rep.p
    out = []
    for _ in range(count):
        k = rng.randint(0, n)
        t = rng.randint(-k - n - 1, n + 3)
        kn = max(min(k, n - k), 1)
        out.append(Representative(t, k, rng.choice(unit_group(p, kn).units())))
    return out


@pytest.mark.parametrize("rep", small_reps(), ids=lambda r: r.spec_string())
def test_atkin_lehner_phase_identity(rep):
    dual = rep.contragredient()
    for r in _random_triples(rep, 40, seed=13):
        phase, reduced = atkin_lehner_reduce(rep, r)
        assert abs(abs(phase) - 1) < TOL
        lhs = whittaker_value(rep, r, direct=True)
        rhs = phase * whittaker_value(dual, reduced, direct=True)
        assert abs(lhs - rhs) < TOL


@pytest.mark.parametrize("rep", small_reps()[:5], ids=lambda r: r.spec_string())
def test_conjugate_modulus_mirror(rep):
    n, p = rep.n, rep.p
    for r in _random_triples(rep, 25, seed=17):
        lhs = abs(conjugate_value(rep, r))
        mirrored = Representative(r.t + 2 * r.k - n, n - r.k,
                                  (-r.v) % p ** max(n - r.k, 1))
        rhs = abs(whittaker_value(rep, mirrored, direct=True))
        assert abs(lhs - rhs) < TOL


def test_conjugate_equals_plain_when_omega_trivial():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 2, [5]))
    assert rep.m == 0
    for r in _random_triples(rep, 20, seed=23):
        assert abs(conjugate_value(rep, r) - whittaker_value(rep, r)) < TOL


def test_single_support_closed_form_one_ramified():
    # One ramified inducing character, level k >= 1: every column is
    # supported at t = -k - n alone, with value
    # zeta(1) chi2(p^-k) q^(-k/2) mu(-1) eps(1/2, (mu chi1)^-1).
    p = 3
    piv = RootOfUnity(1, 4)
    chi1, chi2 = ext(p, 2, [1], piv), ext(p, 0, [], piv.inverse())
    rep = PrincipalSeries(chi1, chi2)
    n = rep.n
    zeta1 = mpf(p) / (p - 1)
    for k in range(1, n // 2 + 1):
        for mu in characters_mod(p, k):
            tab = coefficient_table(rep, k, mu)
            support = [t for t, c in tab.coeffs.items() if abs(c) > TOL_PT]
            assert support == [-k - n]
            tw_inv = chi1.twist(mu).inverse()
            want = (
                zeta1
                * (chi2.pi_value ** (-k)).embed()
                * mp.power(p, -mpf(k) / 2)
                * mu.at_minus_one().embed()
                * tw_inv.epsilon()
            )
            got = tab.value(-k - n)
            assert abs(got - want) < TOL


def test_level_zero_column_geometric_closed_form():
    # At k = 0 the single (trivial) column is the diagonal in disguise:
    # c[t,0] = omega(-1) eps(1/2, pi)^-1 (chi2(p))^(t+n) q^-(t+n)/2.
    p = 3
    piv = RootOfUnity(1, 4)
    chi1, chi2 = ext(p, 2, [1], piv), ext(p, 0, [], piv.inverse())
    rep = PrincipalSeries(chi1, chi2)
    n = rep.n
    td = rep.twist_data(trivial_character(p))
    tab = coefficient_table(rep, 0, trivial_character(p))
    for t in range(-n, 6):
        want = (
            rep.omega.at_minus_one().embed() / td.eps
            * (chi2.pi_value ** (t + n)).embed()
            * mp.power(p, -mpf(t + n) / 2)
        )
        assert abs(tab.value(t) - want) < TOL


def test_single_support_closed_form_trivial_lfactor():
    # Both inducing characters ramified and mu generic: single support at
    # t = -a(mu chi1) - a(mu chi2), value omega(-1) G(p^-k, mu^-1) /
    # (eps(1/2, mu chi1) eps(1/2, mu chi2)).
    from padwhit.characters import gauss_sum_closed

    for p in (3, 5):
        chi1 = ext(p, 1, [1])
        chi2 = ext(p, 1, [p - 2]) if p == 5 else ext(p, 1, [1])
        rep = PrincipalSeries(chi1, chi2)
        n = rep.n
        for k in range(n // 2 + 1):
            for mu in characters_mod(p, k):
                tw1 = chi1.twist(mu)
                tw2 = chi2.twist(mu)
                if tw1.conductor == 0 or tw2.conductor == 0:
                    continue  # non-generic classes
                tab = coefficient_table(rep, k, mu)
                support = [t for t, c in tab.coeffs.items() if abs(c) > TOL_PT]
                t0 = -tw1.conductor - tw2.conductor
                x = PAdicApprox(p, -k, 1, max(k, 1))
                gv = gauss_sum_closed(x, mu.inverse())
                if abs(gv) < TOL_PT:
                    assert support == []
                    continue
                assert support == [t0]
                want = rep.omega.at_minus_one().embed() * gv / (
                    tw1.epsilon() * tw2.epsilon()
                )
                assert abs(tab.value(t0) - want) < TOL_PT


def test_column_vanishes_below_support():
    rep = small_reps()[1]
    n = rep.n
    for k in range(n + 1):
        for mu in characters_mod(rep.p, k):
            tab = coefficient_table(rep, k, mu)
            assert abs(tab.value(-k - n - 1)) < TOL_PT


def test_high_conductor_column_empty():
    rep = small_reps()[0]
    mu = characters_mod(3, 2)[-1]
    assert mu.conductor == 2
    tab = coefficient_table(rep, 1, mu)
    assert tab.coeffs == {}


def test_parseval_two_ways():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 1, [1]))
    n, p = rep.n, rep.p
    for k in range(n // 2 + 1):
        tabs = tables_for_level(rep, k).columns
        units = unit_group(p, k).units()
        support = sorted({t for tab in tabs for t in tab.coeffs})
        for t in support[:8]:
            parseval = sum((abs(tab.value(t)) ** 2 for tab in tabs), mpf(0))
            direct = sum(
                (abs(whittaker_value(rep, Representative(t, k, v))) ** 2
                 for v in units),
                mpf(0),
            ) / len(units)
            assert abs(parseval - direct) < TOL_PT


@pytest.mark.parametrize("rep", small_reps(), ids=lambda r: r.spec_string())
def test_lambda_sum_window(rep):
    for k in range(rep.n // 2 + 1):
        total, tail = lambda_sq_sum(rep, k)
        assert total + tail > 1 - mpf("1e-6")
        assert total < 2 + mpf("1e-6")
        if rep.has_trivial_lfactor:
            assert abs(total - 1) < mpf("1e-6")


def test_lambda_sum_closed_forms_at_level_zero():
    # Direct diagonal identities: the level-0 norm sums are zeta(2), zeta(1),
    # and 1 for the Steinberg / one-ramified / trivial-L types.
    st = SteinbergTwist(ext(3, 0, []))
    total, _ = lambda_sq_sum(st, 0)
    assert abs(total - mpf(9) / 8) < mpf("1e-9")
    ps = PrincipalSeries(ext(3, 2, [1]), ext(3, 0, []))
    total, _ = lambda_sq_sum(ps, 0)
    assert abs(total - mpf(3) / 2) < mpf("1e-9")


def _lambda(rep, t, k):
    """By Parseval, the square mean of |W(g(t,k,.))| over the units."""
    return mp.sqrt(sum((abs(tab.value(t)) ** 2
                        for tab in tables_for_level(rep, k).columns), mpf(0)))


def test_lambda_level_symmetry():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 1, [1]))
    dual = rep.contragredient()
    n = rep.n
    for k in range(n // 2 + 1):
        for t in range(-k - n, 4):
            a = _lambda(rep, t, k)
            b = _lambda(dual, t + 2 * k - n, n - k)
            assert abs(a - b) < TOL


def _looped_lambda_tail(rep, k):
    """lambda_sq_sum's tail as a loop over the squared tail bounds, stopped
    once a term falls below 1e-60."""
    t_max = engine._window(rep)
    tail = mpf(0)
    for tab in tables_for_level(rep, k).columns:
        for s in range(1, 400):
            b = tab.tail.coeff_bound(t_max + s)
            tail += b * b
            if b * b < mpf("1e-60"):
                break
    return tail


def test_lambda_sq_sum_closed_form_tail_matches_loop():
    family = standard_family(2, 3) + standard_family(3, 3)
    nonzero = 0
    for rep in family:
        for k in range(rep.n // 2 + 1):
            _, tail = lambda_sq_sum(rep, k)
            want = _looped_lambda_tail(rep, k)
            assert abs(tail - want) <= mpf("1e-30") * want
            nonzero += tail > 0
    assert nonzero > 0


def _tail_oracles(rep, k):
    """The two tails of level k as 512-bit loops over the stored ``a0``,
    ``a1`` and ``rho``: lambda_sq_sum's sum of squared tail bounds, stopped
    once a term falls below 2^-600 of the sum, and _tail_sup_level's sum of
    the tail bounds at the first t past the window."""
    t_max = engine._window(rep)
    bounds = [tab.tail for tab in tables_for_level(rep, k).columns]
    with mp.workprec(512):
        squares = first = mpf(0)
        for b in bounds:
            if not (b.a0 or b.a1):
                continue
            for s in range(1, 5000):
                d = b.d_from + s
                term = ((b.a0 + b.a1 * s) * b.rho**s
                        * mp.power(b.q, -mpf(d) / 2)) ** 2
                squares += term
                if term < mp.ldexp(squares, -600):
                    break
            s = t_max + 1 + b.A - b.d_from
            first += ((b.a0 + b.a1 * s) * b.rho**s
                      * mp.power(b.q, -mpf(t_max + 1 + b.A) / 2))
    return squares, first


@pytest.mark.parametrize("bits", [53, 128])
def test_tails_are_rounded_up(bits):
    family = standard_family(2, 3) + standard_family(3, 3)
    old = get_precision()
    try:
        set_precision(bits)
        nonzero = 0
        for rep in family:
            t_max = engine._window(rep)
            for k in range(rep.n + 1):
                _, tail = lambda_sq_sum(rep, k)
                sup = engine._tail_sup_level(tables_for_level(rep, k), t_max)
                squares, first = _tail_oracles(rep, k)
                spec = f"{rep.spec_string()} k={k}"
                assert tail >= squares, spec
                assert sup >= first, spec
                nonzero += squares > 0
        assert nonzero > 0
    finally:
        set_precision(old)


def test_level_solves_make_no_character_products(monkeypatch):
    family = standard_family(2, 6) + standard_family(3, 4) + standard_family(5, 3)
    # Central characters are products; they are built once per descriptor,
    # before any level, as are the character lists the twists index.
    for rep in family:
        assert rep.omega.p == rep.p
    for p, nmax in ((2, 6), (3, 4), (5, 3)):
        for k in range(nmax + 1):
            characters_mod(p, k)

    def refuse(*args):
        raise AssertionError("a level solve multiplied characters")

    monkeypatch.setattr(characters.UnitCharacter, "__mul__", refuse)
    monkeypatch.setattr(characters, "make_character", refuse)
    engine.tables_for_level.cache_clear()
    for rep in family:
        for k in range(rep.n + 1):
            tables_for_level(rep, k)


def test_sup_norm_steinberg_is_one():
    res = sup_norm(SteinbergTwist(ext(5, 0, [])))
    assert abs(res.h - 1) < mpf("1e-10")
    assert res.certified


def test_sup_norm_templier_case():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 0, []))
    res = sup_norm(rep)
    assert abs(res.h - mp.sqrt(3)) < mpf("1e-12")
    lower, upper = theorem_refs(rep)
    assert mpf(2) / 3 * lower <= res.h <= mp.sqrt(2) * upper
    assert res.witness == Representative(-3, 1, 1)
    assert res.certified


def test_sup_norm_sqrt2_bound_family():
    for rep in standard_family(3, 3):
        res = sup_norm(rep)
        assert res.h <= mp.sqrt(2) * mp.power(3, mpf(rep.n // 2) / 2) + mpf("1e-12")
        assert res.h >= 1 - mpf("1e-12")


# The first two crashed at 53-64 bits while a float tolerance chose the
# cancelling dual Euler factor and collected tied candidates.
SWEEP_SPECS = (
    "ps:3^2:1@0/1,3^0:0@0/1",
    "st:5^0:0@0/1",
    "ps:3^1:1@0/1,3^1:1@0/1",  # double Satake root at k = 1
    "ps:3^2:1@0/1,3^1:1@0/1",
    "st:3^1:1@0/1",
    "ps:2^3:1,1@0/1,2^0:0@0/1",
)


def test_sup_norm_precision_sweep():
    reps = [parse_rep(*spec.split(":", 1)) for spec in SWEEP_SPECS]
    old = get_precision()
    try:
        set_precision(128)
        ref = [sup_norm(rep) for rep in reps]
        for bits in (53, 64, 96, 128, 256):
            set_precision(bits)
            for rep, want in zip(reps, ref):
                got = sup_norm(rep)
                assert got.certified, (bits, rep.spec_string())
                assert got.witness == want.witness, (bits, rep.spec_string())
                bound = mpf(2) ** (12 - min(bits, 128)) * want.h
                assert abs(got.h - want.h) <= bound, (bits, rep.spec_string())
    finally:
        set_precision(old)


def test_canary_leaves_no_trace_in_table_cache():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 0, []))
    r = Representative(-3, 1, 1)
    engine.tables_for_level.cache_clear()
    with perturb_epsilon(1e-3):
        perturbed = whittaker_value(rep, r)  # solved cold, under the canary
    after = whittaker_value(rep, r)
    engine.tables_for_level.cache_clear()
    cold = whittaker_value(rep, r)
    assert after == cold
    assert abs(perturbed - cold) > mpf("1e-4")
    with perturb_epsilon(1e-3):
        warmed = whittaker_value(rep, r)  # the unperturbed tables are warm
    assert warmed == perturbed


def test_canary_leaves_no_trace_in_atkin_lehner_cache():
    # The phase carries the contragredient's root number, a ramified epsilon
    # factor here, so the canary moves it.
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 0, []))
    r = Representative(-3, 2, 1)
    plain = atkin_lehner_reduce(rep, r)[0]  # warm, unperturbed
    with perturb_epsilon(1e-3):
        warm = atkin_lehner_reduce(rep, r)[0]
    engine._dual.cache_clear()
    with perturb_epsilon(1e-3):
        cold = atkin_lehner_reduce(rep, r)[0]
    assert warm == cold
    assert abs(warm - plain) > mpf("1e-4")
    assert atkin_lehner_reduce(rep, r)[0] == plain


def test_exact_columns_make_no_complex_division(monkeypatch):
    # Every p = 2 descriptor has no conductor-1 twist (there is no character
    # of conductor 1 mod 2), and neither has any column (k, mu) of odd p
    # whose mu and twists all have conductor != 1: such a column divides by
    # no mpc.
    family = standard_family(2, 6) + standard_family(3, 4) + standard_family(5, 3)
    every = [(rep, k, mu) for rep in family for k in range(rep.n + 1)
             for mu in characters_mod(rep.p, k)]
    columns = [(rep, k, mu) for rep, k, mu in every
               if mu.conductor != 1 and rep.twist_data(mu).root is not None]
    assert {col for col in every if col[0].p == 2} <= set(columns)

    def refuse(*args):
        raise AssertionError("an exact column divided by an mpc")

    monkeypatch.setattr(mpc, "__truediv__", refuse)
    monkeypatch.setattr(mpc, "__rtruediv__", refuse)
    with pytest.raises(AssertionError):
        1 / mpc(2)
    solved = [coefficient_table(rep, k, mu) for rep, k, mu in columns]
    assert len(solved) > 5000
    assert sum(1 for tab in solved if tab.coeffs and not tab.parts) > 2000


def test_exact_columns_match_the_solve_bit_for_bit(monkeypatch):
    # Every column of the family and of four oracles with ramified centres,
    # at every k, as a level built afresh holds it, against the
    # functional-equation solve kept in the tests, with the twists
    # multiplied by evaluating the characters: bit for bit at 53 and 128
    # bits, with and without the epsilon canary.  A head read from the
    # arrays keeps its conductor-1 factor lazy; resolved, it is the solve's
    # mpc.  coefficient_table returns the level's column.
    from padwhit import representations

    family = (standard_family(2, 6) + standard_family(3, 4) + standard_family(5, 3)
              + standard_family(7, 2) + _oracles_with_ramified_centre())
    levels = [(rep, k) for rep in family for k in range(rep.n + 1)]
    kinds = {}
    old = get_precision()
    try:
        for bits, delta in ((128, 0), (128, 1e-3), (53, 0), (53, 1e-3)):
            set_precision(bits)
            with perturb_epsilon(delta):
                built = [engine._build_level(rep, k).columns for rep, k in levels]
                if (bits, delta) == (128, 0):
                    for (rep, k), columns in zip(levels, built):
                        for tab in columns:
                            one = coefficient_table(rep, k, tab.mu)
                            assert (one.A, one.parts, one.head, one.coeffs) == (
                                tab.A, tab.parts, tab.head, tab.coeffs), (rep.spec_string(), k)
                    built = [engine._build_level(rep, k).columns for rep, k in levels]
                with monkeypatch.context() as m:
                    m.setattr(representations, "twisted", lambda chi, mu: chi * mu)
                    for (rep, k), columns in zip(levels, built):
                        for tab in columns:
                            mu = tab.mu
                            kind = ("fill" if tab.fill else "expanded" if tab.parts
                                    else "zero" if tab.head is None
                                    else "monomial" if tab.head[6] is None
                                    else "oracle" if isinstance(rep, SupercuspidalOracle)
                                    else "lazy")
                            kinds[kind] = kinds.get(kind, 0) + 1
                            want = column_oracle._solve(rep, k, mu, rep.twist_data(mu))
                            where = (rep.spec_string(), k, mu, bits, delta)
                            assert (tab.A, tab.parts, tab.tail, tab.moduli, tab.fill) == (
                                want.A, want.parts, want.tail, want.moduli, want.fill), where
                            assert (tab.head is None) == (want.head is None), where
                            if tab.head is not None:
                                factor = tab.head[6]
                                assert tab.head[:6] == want.head[:6], where
                                if isinstance(factor, engine._Epsilons):
                                    factor = factor.value()
                                assert factor == want.head[6], where
                            assert tab.coeffs == want.coeffs, where
    finally:
        set_precision(old)
    assert min(kinds.values()) > 50 and len(kinds) == 6, kinds


@pytest.mark.parametrize("change", ["precision", "canary"])
def test_a_cached_level_embeds_only_under_its_own_state(change):
    # A level held across a change of precision or canary refuses to form a
    # value rather than mix the two states: the rows not yet formed, the
    # moduli and complex128 copies of its monomial heads, its lazy head and
    # its filled table, its columns and its staging for sup_norm.
    rep = PrincipalSeries(ext(3, 3, [1]), ext(3, 2, [1]))
    engine.tables_for_level.cache_clear()
    level = tables_for_level(rep, 2)
    kinds = [head[6] is None for head in level.heads.values()]
    assert sum(kinds) >= 2 and not all(kinds)  # monomial heads and a lazy one
    assert any(tab.fill for tab in level.tables.values())
    live = [(i, t) for t in sorted(level.by_t) for i in level.by_t[t]]
    assert level.heads.keys() | level.tables.keys() == {i for i, _ in live}
    stage = (level, characters.character_table(rep.p, 2), -2 - rep.n, engine._window(rep))
    refused = "another precision or epsilon canary"
    old = get_precision()
    try:
        with perturb_epsilon(1e-3 if change == "canary" else 0):
            set_precision(53 if change == "precision" else old)
            for t in level.by_t:
                with pytest.raises(RuntimeError, match=refused):
                    level.row(t)
            for i, t in live:
                with pytest.raises(RuntimeError, match=refused):
                    level.modulus(i, t)
                with pytest.raises(RuntimeError, match=refused):
                    level.complex128(i, t)
            with pytest.raises(RuntimeError, match=refused):
                level.columns
            with pytest.raises(RuntimeError, match=refused):
                engine._stage(*stage)
            fresh = tables_for_level(rep, 2)
            assert fresh is not level and fresh.row(max(fresh.by_t))
    finally:
        set_precision(old)
    # Back under its own state the level reads its own values.
    def reads(level):
        return ([level.row(t) for t in sorted(level.by_t)],
                [(level.modulus(i, t), level.complex128(i, t)) for i, t in live],
                [tab.coeffs for tab in level.columns])

    got = reads(level)
    engine.tables_for_level.cache_clear()
    assert got == reads(tables_for_level(rep, 2))


def test_levels_outside_the_range_are_refused():
    # A level k outside [0, n] is refused by the cached entry point and the
    # builder under it, as by coefficient_table, whatever columns it would
    # reach: without the check the principal series and the Steinberg twist
    # build a level at either k, all heads.
    for rep in (PrincipalSeries(ext(3, 1, [1]), ext(3, 1, [1])),
                SteinbergTwist(ext(5, 1, [1])), _oracles_with_ramified_centre()[1]):
        for k in (-1, rep.n + 1):
            for build in (tables_for_level, engine._build_level):
                with pytest.raises(ValueError, match=f"level k={k} outside"):
                    build(rep, k)
            with pytest.raises(ValueError, match=f"level k={k} outside"):
                coefficient_table(rep, k, characters_mod(rep.p, 0)[0])


def test_single_live_moduli_are_the_moduli_of_the_coefficients():
    family = standard_family(2, 4) + standard_family(3, 4) + standard_family(5, 3)
    exact = 0
    for rep in family:
        for k in range(rep.n // 2 + 1):
            level = tables_for_level(rep, k)
            for i, head in level.heads.items():
                if head[6] is None:  # a monomial: its one degree
                    exact += 1
                    c = dict(level.row(head[0]))[i]
                    assert abs(level.modulus(i, head[0]) - abs(c)) <= mpf("1e-36") * abs(c)
            for i, tab in level.tables.items():
                if tab.moduli is None:
                    continue
                for t, c in tab.coeffs.items():
                    if t + tab.A >= tab.moduli[0]:
                        exact += 1
                        assert abs(level.modulus(i, t) - abs(c)) <= mpf("1e-36") * abs(c)
    assert exact > 5000


def test_canary_moves_exact_columns_and_leaves_no_trace():
    # p = 2: every epsilon factor is an exact root, so the canary can only
    # reach the values through the perturbation of the rationals.
    rep = PrincipalSeries(ext(2, 3, [1, 1]), ext(2, 0, []))
    r = Representative(-4, 1, 1)
    engine.tables_for_level.cache_clear()
    plain = whittaker_value(rep, r)
    with perturb_epsilon(1e-3):
        perturbed = whittaker_value(rep, r)
    assert abs(perturbed - plain) > mpf("1e-4") * abs(plain)
    assert whittaker_value(rep, r) == plain
    engine.tables_for_level.cache_clear()
    assert whittaker_value(rep, r) == plain


def _oracles_with_ramified_centre():
    oracles = []
    for p, n, m in ((2, 4, 2), (3, 2, 1), (3, 4, 2), (5, 3, 1)):
        omega = next(mu for mu in characters_mod(p, m) if mu.conductor == m)
        oracles.append(synthetic_oracle(p, n, omega, seed=5))
    return oracles


def test_default_routes_build_no_contragredient(monkeypatch):
    # Values at every level, the conjugate variant, matrices and sup_norm
    # read only the newvector's own levels k <= n/2.
    def refuse(*args):
        raise AssertionError("a default route built the contragredient")

    read = []
    tables = engine.tables_for_level

    def record(rep, k):
        read.append((rep, k))
        return tables(rep, k)

    for cls in (PrincipalSeries, SteinbergTwist, SupercuspidalOracle):
        monkeypatch.setattr(cls, "contragredient", refuse)
    monkeypatch.setattr(engine, "tables_for_level", record)
    family = (standard_family(2, 5) + standard_family(3, 4)
              + standard_family(5, 3) + _oracles_with_ramified_centre())
    rng = random.Random(19)
    for rep in family:
        n, p = rep.n, rep.p
        window = engine._window(rep)
        read.clear()
        for k in range(n + 1):
            units = unit_group(p, max(min(k, n - k), 1)).units()
            # Below the support, inside the window, at its edge and past it.
            for t in (-k - n - 1, -k - n, rng.randint(-k - n, n), window,
                      window + 1, window + rng.randint(2, 9)):
                r = Representative(t, k, rng.choice(units))
                whittaker_value(rep, r)
                conjugate_value(rep, r)
        for _ in range(6):
            entries = [Fraction(rng.randint(-9, 9), p ** rng.randint(0, 2))
                       for _ in range(4)]
            if entries[0] * entries[3] == entries[1] * entries[2]:
                continue
            _, _, r = reduce_matrix(rep, Mat2.from_rationals(p, entries))
            whittaker_value(rep, r)
        engine._scan(rep)  # sup_norm itself may scan the contragredient pair
        spec = rep.spec_string()
        assert {k for _, k in read} == set(range(n // 2 + 1)), spec
        assert all(fam is rep for fam, _ in read), spec


def test_engine_never_reaches_the_brute_force_gauss_sum(monkeypatch):
    def refuse(*args):
        raise AssertionError("an epsilon factor was summed over every unit")

    monkeypatch.setattr(characters, "gauss_sum", refuse)
    characters.epsilon_factor.cache_clear()
    engine.tables_for_level.cache_clear()
    engine._dual.cache_clear()
    family = standard_family(2, 5) + standard_family(3, 4) + standard_family(5, 3)
    for rep in family:
        assert sup_norm(rep).certified, rep.spec_string()
        n = rep.n
        for k in range(n + 1):
            r = Representative(-n - k, k, 1)
            whittaker_value(rep, r)
            if 2 * k > n:
                whittaker_value(rep, r, direct=True)


def _per_column_atkin_lehner(rep, r):
    """atkin_lehner_reduce as it was before its cache: the root number
    rebuilt on every call, read off the contragredient itself."""
    n, p = rep.n, rep.p
    eps_dual = rep.contragredient().twist_data(trivial_character(p)).eps
    phase_root = rep.omega.eval_unit(r.v).inverse()
    s = r.t + r.k
    if s < 0:
        mod = p**-s
        phase_root = phase_root * RootOfUnity(-pow(r.v, -1, mod), mod)
    k2 = n - r.k
    reduced = Representative(r.t + 2 * r.k - n, k2, (-r.v) % (p ** max(k2, 1)))
    return eps_dual * phase_root.embed(), reduced


def _per_column_value(rep, r, direct=False):
    """whittaker_value as it was before the level index: every column of the
    level visited, its value at t tested against 0, its character evaluated
    at v.  Above n/2, the contragredient newvector at the reduced triple is
    ``omega(-1) conj W(g(t', k', -v'))``."""
    n = rep.n
    if r.t < -r.k - n:
        return mpc(0)
    if 2 * r.k <= n or direct:
        total = mpc(0)
        for tab in tables_for_level(rep, r.k).columns:
            c = tab.value(r.t)
            if c != 0:
                total += c * tab.mu.eval_unit(r.v).embed()
        return total
    phase, reduced = _per_column_atkin_lehner(rep, r)
    w = _per_column_value(
        rep, Representative(reduced.t, reduced.k, -reduced.v)).conjugate()
    return phase * (w if rep.omega.at_minus_one().is_one() else -w)


def _dual_route_value(rep, r):
    """The value above n/2 synthesized from the contragredient's own level
    ``n - k``, as the engine read it before the conjugation identity."""
    phase, reduced = _per_column_atkin_lehner(rep, r)
    return phase * _per_column_value(rep.contragredient(), reduced)


def _within_route_ulps(x, y):
    """``|x - y| <= 2^16`` units in the last place times ``max(1, |y|)``."""
    return abs(x - y) <= mpf(2) ** (16 - mp.prec) * max(1, abs(y))


@pytest.mark.parametrize("bits", [53, 64, 128])
def test_whittaker_value_matches_per_column_loop(bits):
    family = standard_family(2, 4) + standard_family(3, 4) + standard_family(5, 3)
    rng = random.Random(bits)
    old = get_precision()
    try:
        set_precision(bits)
        for rep in family:
            n, p = rep.n, rep.p
            window = engine._window(rep)
            for k in range(n + 1):
                kn = max(min(k, n - k), 1)
                # Below the support, inside the window, at its edge and past it.
                ts = {-k - n - 1, -k - n, rng.randint(-k - n, n), window,
                      window + 1, window + rng.randint(2, 9)}
                for t in sorted(ts):
                    r = Representative(t, k, rng.choice(unit_group(p, kn).units())
                                       + rng.randint(0, 2) * p**n)
                    spec = (rep.spec_string(), r)
                    value = whittaker_value(rep, r)
                    assert value == _per_column_value(rep, r), spec
                    if 2 * k > n:
                        assert _within_route_ulps(value, _dual_route_value(rep, r)), spec
                        assert (whittaker_value(rep, r, direct=True)
                                == _per_column_value(rep, r, direct=True)), spec
                        assert atkin_lehner_reduce(rep, r) == \
                            _per_column_atkin_lehner(rep, r), spec
                        with perturb_epsilon(1e-6):
                            assert atkin_lehner_reduce(rep, r) == \
                                _per_column_atkin_lehner(rep, r), spec
    finally:
        set_precision(old)


@pytest.mark.parametrize("p, k", [(2, 0), (2, 1), (2, 2), (2, 4), (3, 1),
                                  (3, 3), (5, 2)])
def test_unit_index_is_position_in_units(p, k):
    group = unit_group(p, k)
    units = group.units()
    assert [group.index(u) for u in units] == list(range(len(units)))
    # Any representative of the class mod p^k has the same index.
    assert [group.index(u + 3 * p**k) for u in units] == list(range(len(units)))


def test_level_indexes_the_stored_coefficients_by_t():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 0, []))
    for k in range(rep.n + 1):
        level = tables_for_level(rep, k)
        assert [tab.mu for tab in level.columns] == list(characters_mod(3, k))
        by_t = {t: level.row(t) for t in level.by_t}  # before any is embedded
        regrouped: dict = {}
        for i, tab in enumerate(level.columns):
            for t, c in tab.coeffs.items():
                regrouped.setdefault(t, []).append((i, c))
        assert {t: list(live) for t, live in by_t.items()} == regrouped
        assert {t: [i for i, _ in live] for t, live in by_t.items()} == {
            t: list(live) for t, live in level.by_t.items()}
        assert [i for i, _ in level.tails] == [
            i for i, tab in enumerate(level.columns) if tab.parts]


def test_tail_rho_comes_from_the_roots_left_after_cancellation():
    rep = parse_rep("ps", "3^2:1@0/1,3^0:0@0/1")
    # k = 1, trivial mu: the only Satake root cancels against a dual factor.
    tab = coefficient_table(rep, 1, trivial_character(3))
    assert tab.coeffs and not tab.parts
    assert tab.tail.rho == 0
    # k = 0: the root remains; unitary chi2 puts it on the unit circle.
    tab = coefficient_table(rep, 0, trivial_character(3))
    assert tab.parts
    assert tab.tail.rho == 1


def _recurrence_expand(terms, roots, d_hi):
    """The coefficients theta_d, min(e_j) <= d <= d_hi, of sum_j n_j X^(e_j)
    / prod_i (1 - a_i X) as the solver computed them before it evaluated the
    partial fractions: the h_m recurrence over the whole window."""
    terms = [(e, mpc(n)) for e, n in sorted(terms.items()) if n != 0]
    if not roots:
        return {e: n for e, n in terms if e <= d_hi}
    if not terms:
        return {}
    a = [r.embed() for r in roots]
    double = len(roots) == 2 and roots[0] == roots[1]
    h = []
    pw = [mpc(1)] * len(roots)
    if len(roots) == 2 and not double:
        inv = 1 / (a[0] - a[1])
        pw = list(a)
    for m in range(d_hi - terms[0][0] + 1):
        if len(roots) == 1:
            h.append(pw[0])
        elif double:
            h.append((m + 1) * pw[0])
        else:
            h.append((pw[0] - pw[1]) * inv)
        pw = [x * y for x, y in zip(pw, a)]
    theta = {}
    for d in range(terms[0][0], d_hi + 1):
        c = mpc(0)
        for e, n in terms:
            if d < e:
                break
            c += n * h[d - e]
        if c != 0:
            theta[d] = c
    return theta


def _recurrence_column(rep, k, mu):
    """(solved column, its coefficients by the recurrence): the numerator and
    roots the solver expands, recorded on the way in, expanded again by
    :func:`_recurrence_expand` and scaled by q^(-d/2)."""
    seen = []
    real = engine.expand_geometric

    def spy(terms, roots):
        seen.append((terms, roots))
        return real(terms, roots)

    engine.expand_geometric = spy
    try:
        tab = coefficient_table(rep, k, mu)
    finally:
        engine.expand_geometric = real
    if not seen:
        return tab, {}
    (terms, roots), = seen
    theta = _recurrence_expand(terms, roots, engine._window(rep) + tab.A)
    return tab, {d - tab.A: c * mp.power(rep.p, -mpf(d) / 2)
                 for d, c in theta.items()}


@contextmanager
def _numeric_epsilon_factors(rep):
    """Solve with every epsilon factor at working precision, as the solver
    did before it carried exact roots: the numerator of every column then
    reaches ``expand_geometric``."""
    cls, real_twist_data, real_root = type(rep), type(rep).twist_data, column_oracle.epsilon_root

    def numeric(self, mu):
        td = real_twist_data(self, mu)
        return TwistData(td.A, td.l_num, td.l_den, approx=td.eps)

    cls.twist_data = numeric
    column_oracle.epsilon_root = lambda mu: None
    try:
        yield
    finally:
        cls.twist_data = real_twist_data
        column_oracle.epsilon_root = real_root


def test_columns_match_the_recurrence():
    # Every column of the family, k <= n/2 and the direct k > n/2 ones.
    family = standard_family(2, 4) + standard_family(3, 4) + standard_family(5, 3)
    recurrent = monomial = 0
    for rep in family:
        for k in range(rep.n + 1):
            for mu in characters_mod(rep.p, k):
                where = (rep.spec_string(), k, mu)
                tab = coefficient_table(rep, k, mu)
                if tab.head is not None:
                    # One coefficient, no Euler factor left: against the same
                    # column solved with every epsilon factor numeric.
                    monomial += 1
                    with _numeric_epsilon_factors(rep):
                        numeric = column_oracle._solve(rep, k, mu, rep.twist_data(mu))
                    (t, c), = tab.coeffs.items()
                    assert numeric.coeffs.keys() == {t}, where
                    want = numeric.coeffs[t]
                    assert abs(c - want) <= mpf("1e-36") * abs(want), where
                    continue
                tab, want = _recurrence_column(rep, k, mu)
                if not tab.parts:
                    assert tab.coeffs == want, where
                    continue
                recurrent += 1
                for t in tab.coeffs.keys() ^ want.keys():
                    assert abs(want.get(t, tab.coeffs.get(t))) < mpf("1e-37"), where
                for t in tab.coeffs.keys() & want.keys():
                    if abs(want[t]) > mpf("1e-30"):
                        assert abs(tab.coeffs[t] - want[t]) \
                            <= mpf("1e-36") * abs(want[t]), (where, t)
    assert recurrent > 100
    assert monomial > 1000


@pytest.mark.parametrize("tolerance", [mpf("nan"), mpf("inf"), -mpf("inf"),
                                       mpf(-1), float("nan"), -1e-9])
def test_sup_norm_refuses_invalid_tolerance(tolerance):
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 0, []))
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        sup_norm(rep, tolerance=tolerance)
    assert sup_norm(rep, tolerance=0).certified


def test_sup_norm_deterministic_witness():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 1, [1]))
    r1 = sup_norm(rep)
    r2 = sup_norm(rep)
    assert (r1.h, r1.witness, r1.certified) == (r2.h, r2.witness, r2.certified)


def _exhaustive_sup_norm_oracle(rep, families):
    """sup_norm without the screen: every point of levels k <= n/2 of each
    descriptor in ``families`` (``rep`` or its contragredient) synthesized
    at working precision, every column's tail bound summed, and the points
    of the contragredient mapped to the newvector's coordinates through the
    Atkin-Lehner relation.  Returns (h, witness, certified, tail_bound)."""
    n, p = rep.n, rep.p
    t_max = engine._window(rep)
    best = mpf(-1)
    tie = 1 - engine.TIE_ULPS * mpf(2) ** -mp.prec
    cands = []
    tail_sup = mpf(0)
    for fam in families:
        is_dual = fam is not rep
        for k in range(n // 2 + 1):
            tables = tables_for_level(fam, k).columns
            units, rows, _ = characters.character_table(p, k)
            index = {mu: i for i, mu in enumerate(characters_mod(p, k))}
            support = sorted({t for tab in tables for t in tab.coeffs})
            for t in support:
                if t < -k - n or t > t_max:
                    continue
                live = [(index[tab.mu], tab.value(t)) for tab in tables
                        if tab.value(t) != 0]
                if not live:
                    continue
                if len(live) == 1:
                    entries = [(abs(live[0][1]), units[0])]
                else:
                    entries = []
                    for j, v in enumerate(units):
                        w = mpc(0)
                        for i, c in live:
                            w += c * rows[i][j]
                        entries.append((abs(w), v))
                for value, v in entries:
                    if value > best:
                        best = value
                    if value >= best * tie:
                        cands.append((value, is_dual, t, k, v))
            sup, prev, decreasing_since = mpf(0), None, 0
            for s in range(1, 2000):
                b = mpf(0)
                for tab in tables:
                    b += tab.tail.coeff_bound(t_max + s)
                sup = max(sup, b)
                decreasing_since = (decreasing_since + 1
                                    if prev is not None and b < prev else 0)
                prev = b
                if b < mpf("1e-40") or (decreasing_since > 6 and b < sup / 2):
                    break
            # Rounded up by the count engine._tail_sup_level derives.
            sup *= (1 + mp.ldexp(1, 1 - mp.prec)) ** (len(tables) + 10)
            tail_sup = max(tail_sup, sup)
    mapped = []
    for value, is_dual, t, k, v in cands:
        if value < best * tie:
            continue
        if is_dual:
            t, k = t + 2 * k - n, n - k
            v = (-v) % max(p ** min(k, n - k), 2) or 1
        mapped.append((k, t, unit_group(p, min(k, n - k)).dlog(v), v))
    k_w, t_w, _, v_w = min(mapped, key=lambda e: e[:3])
    certified = tail_sup < best * (1 - mpf("1e-12"))
    return best, Representative(t_w, k_w, v_w), certified, tail_sup


SCREEN_FAMILY = standard_family(2, 4) + standard_family(3, 4) + standard_family(5, 3)


@pytest.mark.parametrize("bits", [53, 64, 128])
def test_sup_norm_screen_matches_exhaustive_oracle(bits):
    old = get_precision()
    try:
        set_precision(bits)
        for rep in SCREEN_FAMILY:
            got = engine._scan(rep)
            h, witness, certified, tail = _exhaustive_sup_norm_oracle(rep, (rep,))
            spec = rep.spec_string()
            assert got.h == h, spec
            assert got.witness == witness, spec
            assert got.certified == certified, spec
            assert got.tail_bound == tail, spec
    finally:
        set_precision(old)


def _within_tie_ulps(x, y):
    return abs(x - y) <= engine.TIE_ULPS * mpf(2) ** -mp.prec * max(abs(x), abs(y))


@pytest.mark.parametrize("bits", [53, 64, 128])
def test_sup_norm_matches_the_scan_of_both_families(bits):
    # Scanning the contragredient's levels too, and mapping its points back
    # through the Atkin-Lehner relation, finds the same witness and
    # certificate; h and the tail bound move only by rounding.
    old = get_precision()
    try:
        set_precision(bits)
        for rep in SCREEN_FAMILY:
            got = sup_norm(rep)
            dual = rep.contragredient()
            h, witness, certified, tail = _exhaustive_sup_norm_oracle(
                rep, (rep, dual))
            spec = rep.spec_string()
            assert got.witness == witness, spec
            assert got.certified == certified, spec
            assert _within_tie_ulps(got.h, h), spec
            assert _within_tie_ulps(got.tail_bound, tail), spec
            assert _within_tie_ulps(got.h, sup_norm(dual).h), spec
    finally:
        set_precision(old)


PAIR_FAMILY = standard_family(2, 6) + standard_family(3, 6) + standard_family(5, 4)
PAIR_STATES = [(bits, delta) for bits in (53, 64, 128) for delta in (0.0, 1e-3)]


def _pair_sample(step):
    """Every ``step``-th descriptor of PAIR_FAMILY, each with its partner."""
    out = []
    for rep in PAIR_FAMILY[::step]:
        for r in (rep, engine.scan_partner(rep)):
            if r is not None and r not in out:
                out.append(r)
    return out


@contextmanager
def _state(bits, delta):
    old = get_precision()
    set_precision(bits)
    try:
        with perturb_epsilon(delta):
            yield
    finally:
        set_precision(old)


def _cold(rep):
    # The canary can move h below 1, past the consistency guard.
    engine._partners.cache_clear()
    return sup_norm(rep, tolerance=mpf(1))


def _first_mapped(rep, scanned):
    """The first, in ``rep``'s (k, t, dlog v) order, of the tied points of
    ``scanned``, the partner's scan, mapped to ``rep``: ``-v`` on a row with
    two or more live characters, ``units[0]`` on a single-live row."""
    p, mapped = rep.p, []
    for r, single in scanned.ties:
        units = unit_group(p, r.k).units()
        v = units[0] if single else (-r.v) % p ** r.k
        mapped.append((r.k, r.t, units.index(v), v))
    k, t, _, v = min(mapped)
    return Representative(t, k, v)


def _pair_mismatches(reps):
    """Where a pair's results break the pair rule or the witness rule, each
    descriptor's result taken with the partner store cleared."""
    cold, bad = {rep: _cold(rep) for rep in reps}, []
    for rep in reps:
        spec, got, partner = rep.spec_string(), cold[rep], engine.scan_partner(rep)
        scanned = engine._scan(min(rep, partner or rep, key=lambda r: r.spec_string()))
        fields = (got.h, got.certified, got.tail_bound, got.t_max, got.lower_ref)
        if fields != (scanned.h, scanned.certified, scanned.tail_bound,
                      scanned.t_max, scanned.lower_ref):
            bad.append((spec, "fields"))
        if partner is not None and partner in cold and fields[:3] != (
                cold[partner].h, cold[partner].certified, cold[partner].tail_bound):
            bad.append((spec, "pair"))
        derived = partner is not None and partner.spec_string() < spec
        want = _first_mapped(rep, scanned) if derived else scanned.witness
        if got.witness != want:
            bad.append((spec, "witness"))
        value = abs(whittaker_value(rep, got.witness))
        if abs(value - got.h) > engine.TIE_ULPS * mpf(2) ** -mp.prec * got.h:
            bad.append((spec, "value"))
    return bad


@pytest.mark.parametrize("bits,delta", PAIR_STATES)
def test_pair_members_share_one_scan(bits, delta):
    # Both members of a contragredient pair read h, certified and the tail
    # bound off one scan, bit for bit; the derived witness is the first
    # mapped tied point, and |W| there ties with h.
    reps = _pair_sample(9)
    with _state(bits, delta):
        assert sum(engine.scan_partner(rep) is not None for rep in reps) > 200
        assert _pair_mismatches(reps) == []


def test_a_derived_witness_mapped_v_to_v_fails(monkeypatch):
    # Planted: tied points of the partner's scan kept at v instead of -v.
    def unmapped(res, p):
        ties = res.ties
        return replace(res, witness=min(
            (r for r, _ in ties), key=lambda r: (r.k, r.t, unit_group(p, r.k).index(r.v))))

    monkeypatch.setattr(engine, "_mirrored", unmapped)
    assert any(kind == "witness" for _, kind in _pair_mismatches(_pair_sample(9)))


def _history_mismatches(reps, seed):
    """Where a result depends on what was called before: every (descriptor,
    state) once with the store cleared, then all again, shuffled, with the
    store kept warm."""
    calls = [(rep, state) for rep in reps for state in PAIR_STATES]
    cold = {}
    for rep, state in calls:
        with _state(*state):
            cold[rep, state] = _cold(rep)
    engine._partners.cache_clear()
    random.Random(seed).shuffle(calls)
    bad = []
    for rep, state in calls:
        with _state(*state):
            got = sup_norm(rep, tolerance=mpf(1))
        if got != cold[rep, state] or got.ties != cold[rep, state].ties:
            bad.append((rep.spec_string(), state))
    return bad


def test_results_do_not_depend_on_the_partner_store():
    before = engine._partners.cache_info()
    assert _history_mismatches(_pair_sample(40), seed=3) == []
    assert engine._partners.cache_info().hits > 0 and before.hits == 0


def test_a_partner_store_keyed_without_the_canary_fails(monkeypatch):
    # Planted: the store keyed by precision alone, so a scan made without
    # the canary is read under it.
    monkeypatch.setattr(engine, "working_state", lambda: (mp.prec,))
    assert _history_mismatches(_pair_sample(40), seed=3)


def test_self_dual_descriptors_and_oracles_scan_themselves(monkeypatch):
    def refuse(*args):
        raise AssertionError("the partner store was touched")

    monkeypatch.setattr(engine, "_partners", SimpleNamespace(
        take=refuse, put=refuse, cache_info=engine._partners.cache_info))
    # The perfbench tracer self-test scans standard_family(3, 2)[0] cold.
    assert engine.scan_partner(standard_family(3, 2)[0]) is None
    self_dual = [rep for rep in PAIR_FAMILY if engine.scan_partner(rep) is None]
    oracles = _oracles_with_ramified_centre() + [synthetic_oracle(5, 2, seed=9)]
    assert len(self_dual) > 20
    for rep in self_dual + oracles:
        assert sup_norm(rep) == engine._scan(rep), rep.spec_string()


def test_a_pair_builds_only_the_scanned_members_levels(monkeypatch):
    # Whichever member asks first, sup_norm builds the levels k <= n/2 of
    # the member with the smaller spec string, once for the pair.
    built = []
    build = engine._build_level

    def record(rep, k):
        built.append((rep, k))
        return build(rep, k)

    monkeypatch.setattr(engine, "_build_level", record)
    pairs = [(rep, engine.scan_partner(rep)) for rep in standard_family(3, 5)]
    pairs = [pair for pair in pairs if pair[1] is not None]
    for i, (rep, partner) in enumerate(pairs):
        first, second = (rep, partner) if i % 2 else (partner, rep)
        scanned = min(rep, partner, key=lambda r: r.spec_string())
        built.clear()
        sup_norm(first)
        assert [(r, k) for r, k in built] == [
            (scanned, k) for k in range(rep.n // 2 + 1)], rep.spec_string()
        built.clear()
        sup_norm(second)
        assert built == [], rep.spec_string()
    assert engine._partners.cache_info().currsize == 0


def test_sup_norm_logs_scanned_or_derived(caplog):
    rep = PrincipalSeries(ext(3, 3, [1]), ext(3, 1, [1]))
    partner = engine.scan_partner(rep)
    with caplog.at_level(logging.DEBUG, logger="padwhit"):
        sup_norm(rep)
        sup_norm(partner)
    msgs = [r.getMessage() for r in caplog.records if r.getMessage().startswith("sup_norm ")]
    scanned = partner.spec_string()  # the smaller spec string
    assert msgs == [
        f"sup_norm {rep.spec_string()}: scanned {scanned}; partner store 0 hits, 1 misses",
        f"sup_norm {scanned}: read off the stored scan of {scanned}; partner store "
        "1 hits, 1 misses"]


def test_sup_norm_solves_only_the_newvector_levels(monkeypatch):
    def refuse(*args):
        raise AssertionError("sup_norm reached the contragredient")

    solved = []
    build = engine._build_level

    def record(rep, k):
        solved.append((rep, k))
        return build(rep, k)

    for cls in (PrincipalSeries, SteinbergTwist, SupercuspidalOracle):
        monkeypatch.setattr(cls, "contragredient", refuse)
    monkeypatch.setattr(engine, "_dual", refuse)
    monkeypatch.setattr(engine, "_build_level", record)
    family = standard_family(2, 5) + standard_family(3, 4) + standard_family(5, 3)
    for rep in family:
        solved.clear()
        engine._scan(rep)
        spec = rep.spec_string()
        assert all(fam is rep for fam, _ in solved), spec
        assert [k for _, k in solved] == list(range(rep.n // 2 + 1)), spec


def test_sup_norm_synthesizes_only_above_the_descriptor_floor(monkeypatch):
    # One tie floor for the whole domain: the points synthesized are those
    # whose screened upper bound reaches the floor of the final h, plus at
    # most the largest screened point, synthesized first to set the floor.
    screens, calls = [], []
    screen, synthesize = engine._screen, engine._synthesize

    def record(multi, table):
        screens.append(screen(multi, table))
        return screens[-1]

    def count(*args):
        calls.append(args)
        return synthesize(*args)

    monkeypatch.setattr(engine, "_screen", record)
    monkeypatch.setattr(engine, "_synthesize", count)
    tie = 1 - engine.TIE_ULPS * mpf(2) ** -mp.prec
    above = 0
    for rep in standard_family(3, 5) + standard_family(5, 3):
        screens.clear()
        calls.clear()
        floor = engine._tie_floor(engine._scan(rep).h, tie)
        assert None not in screens, rep.spec_string()
        reach = sum(int((~(values + bounds[:, None] < floor)).sum())
                    for values, bounds in screens)
        assert reach <= len(calls) <= reach + 1, rep.spec_string()
        above += reach
    assert above > 500


def _random_rows(rng, n_chars, count):
    """``count`` rows of live (index, coefficient), magnitudes over 1e-30..1e8."""
    rows = []
    for _ in range(count):
        idx = sorted(rng.sample(range(n_chars), rng.randint(2, n_chars)))
        rows.append([(i, mpc(rng.gauss(0, 1), rng.gauss(0, 1))
                      * mpf(10) ** rng.randint(-30, 8)) for i in idx])
    return rows


@pytest.mark.parametrize("bits", [53, 128])
def test_screen_bound_holds_on_random_coefficients(bits):
    rng = random.Random(7 + bits)
    old = get_precision()
    try:
        set_precision(bits)
        for p, k in ((2, 4), (3, 3), (5, 2), (7, 1)):
            units, rows, table = characters.character_table(p, k)
            multi = _random_rows(rng, len(rows), 40)
            values, bounds = engine._screen(multi, table)
            for r, live in enumerate(multi):
                scale = sum(abs(c) for _, c in live)
                assert bounds[r] < mpf("1e-12") * scale  # a useful screen
                for j in range(len(units)):
                    x = engine._synthesize(live, rows, j)
                    assert abs(mpf(values[r, j]) - x) <= mpf(bounds[r]), (p, k, r, j)
    finally:
        set_precision(old)


@pytest.mark.parametrize("bits", [53, 128])
def test_screen_bound_holds_against_512_bit_values(bits):
    # One-sided: every screened value, from the complex128 coefficients the
    # levels give the screen, lies within its bound of |W| synthesized at
    # 512 bits from the same descriptor's 512-bit levels.  The rows cover
    # heads whose conductor-1 factors the screen reads in complex128.
    old = get_precision()
    try:
        rows = heads = 0
        for rep in SCREEN_FAMILY:
            for k in range(rep.n // 2 + 1):
                set_precision(bits)
                level = tables_for_level(rep, k)
                table = characters.character_table(rep.p, k)[2]
                multi = [t for t in sorted(level.by_t) if len(level.by_t[t]) > 1]
                if not multi:
                    continue
                heads += sum(isinstance(tab.head[6], engine._Epsilons)
                             for tab in (level.columns[i] for t in multi
                                         for i in level.by_t[t]) if tab.head)
                values, bounds = engine._screen(
                    [[(i, level.columns[i].complex128(t)) for i in level.by_t[t]]
                     for t in multi], table)
                set_precision(512)
                columns = tables_for_level(rep, k).columns
                exact_rows = characters.character_table(rep.p, k)[1]
                for r, t in enumerate(multi):
                    for j in range(table.shape[1]):
                        w = mpc(0)
                        for i, tab in enumerate(columns):
                            w += tab.value(t) * exact_rows[i][j]
                        assert abs(mpf(values[r, j]) - abs(w)) <= mpf(bounds[r]), \
                            (bits, rep.spec_string(), k, t, j)
                    rows += 1
        assert rows > 500
        assert heads > 500
    finally:
        set_precision(old)


def test_screen_falls_back_on_non_finite_coefficient():
    p, k, lo, hi = 3, 2, -3, 1
    char_values = characters.character_table(p, k)
    units, rows, table = char_values
    rng = random.Random(11)
    coeffs = [{t: mpc(rng.random(), rng.random()) for t in range(lo, hi + 1)}
              for _ in characters_mod(p, k)]
    tie = 1 - engine.TIE_ULPS * mpf(2) ** -mp.prec

    def level(coeffs):
        level = engine.Level(p, k, {}, {i: engine.CoefficientTable(k, mu, 0, c, None, ())
                                        for i, (mu, c) in enumerate(
                                            zip(characters_mod(p, k), coeffs))},
                             {}, hi)
        [entries], screened, synthesized = engine._domain_values(
            [engine._stage(level, char_values, lo, hi)], tie)
        return entries, screened, synthesized

    entries, screened, synthesized = level(coeffs)
    assert screened == (hi - lo + 1) * len(units)
    assert len(entries) == synthesized < screened
    coeffs[1][0] = mpc(mpf("1e400"), 1)  # overflows float64
    assert engine._screen([[(1, coeffs[1][0]), (0, mpc(1))]], table) is None
    entries, screened, synthesized = level(coeffs)
    assert screened == 0
    assert synthesized == (hi - lo + 1) * len(units)
    # The exact loop: every point of the level, in (t, dlog v) order.
    want = [(engine._synthesize([(i, c[t]) for i, c in enumerate(coeffs)],
                                rows, j), t, v)
            for t in range(lo, hi + 1) for j, v in enumerate(units)]
    assert entries == want


def test_screen_keeps_near_ties():
    # At 53 bits values within TIE_ULPS = 2^16 ulps (7.3e-12 relative) of the
    # maximum tie with it; one 1e-12 below it lies well outside the screen's
    # error bound, so only the tie threshold keeps it.
    old = get_precision()
    try:
        set_precision(53)
        p, k = 3, 1
        char_values = characters.character_table(p, k)
        units = char_values[0]
        s = 1 - mpf("1e-12")
        level = engine.Level(
            p, k, {}, {i: engine.CoefficientTable(k, mu, 0, {0: mpc(s), 1: mpc(1)}, None, ())
                       for i, mu in enumerate(characters_mod(p, k))}, {}, 1)
        tie = 1 - engine.TIE_ULPS * mpf(2) ** -mp.prec
        [entries], screened, _ = engine._domain_values(
            [engine._stage(level, char_values, 0, 1)], tie)
        assert screened == 2 * len(units)
        top = max(value for value, _, _ in entries)
        assert top == 2
        ties = [(t, value) for value, t, _ in entries if value >= top * tie]
        assert ties == [(0, 2 * s), (1, top)]
    finally:
        set_precision(old)


def test_sup_norm_logs_screen_counts(caplog):
    rep = PrincipalSeries(ext(3, 3, [1]), ext(3, 1, [1]))
    with caplog.at_level(logging.DEBUG, logger="padwhit"):
        engine._scan(rep)
    [msg] = [r.getMessage() for r in caplog.records
             if r.levelno == logging.DEBUG and "screened" in r.getMessage()]
    match = re.search(r"(\d+) points screened in complex128, (\d+) "
                      r"synthesized at 128 bits", msg)
    assert match, msg
    screened, synthesized = map(int, match.groups())
    assert screened > synthesized > 0
    assert rep.spec_string() in msg
    match = re.search(r"(\d+) columns solved by coefficient_table, (\d+) read "
                      r"from exact arrays, (\d+) exact heads embedded", msg)
    assert match, msg
    solved, built, embedded = map(int, match.groups())
    # The levels as sup_norm builds them, each afresh.
    levels = [engine._build_level(rep, k) for k in range(rep.n // 2 + 1)]
    # Only chi2^-1 at k = 1 is solved: at k = 2 its column is zero (no
    # diagonal ratio and cond 1 < k) and is read from the arrays with the
    # rest; only heads that reached a synthesized point or a single-live
    # modulus are embedded.
    assert solved == sum(level.solved for level in levels) == 1
    assert solved + built == sum(len(level.chars) for level in levels)
    assert 0 < embedded < sum(len(level.heads) for level in levels) < built
    # Conductor-1 factors are formed only for the heads that were read at
    # working precision.
    match = re.search(r"(\d+) conductor-1 factors formed at working precision", msg)
    assert match, msg
    formed = int(match.group(1))
    heads = sum(isinstance(head[6], engine._Epsilons)
                for level in levels for head in level.heads.values())
    assert 0 < formed < heads


def test_sup_norm_leaves_the_level_cache_alone():
    # sup_norm reads each level once and builds it afresh: the cache that
    # point values read neither gains nor loses an entry, hit or miss.
    reps = standard_family(3, 4)[:20]
    whittaker_value(reps[0], Representative(-2, 1, 1))  # one cached level
    before = engine.tables_for_level.cache_info()
    for rep in reps:
        sup_norm(rep)
    assert engine.tables_for_level.cache_info() == before


def test_sup_norm_logs_why_not_certified(caplog, monkeypatch):
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 0, []))
    with caplog.at_level(logging.INFO, logger="padwhit"):
        assert sup_norm(rep).certified
    assert not [r for r in caplog.records if r.levelno >= logging.INFO]
    monkeypatch.setattr(engine, "_tail_sup_level", lambda level, t_max: mpf(10))
    with caplog.at_level(logging.INFO, logger="padwhit"):
        res = sup_norm(rep)
    assert not res.certified
    [msg] = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert "not certified" in msg and rep.spec_string() in msg
    assert "tail_sup 10.0 " in msg and "h 1.7320508075688773" in msg


def test_sup_norm_logging_silent_by_default():
    # Without a configured handler, neither message reaches stdout or stderr.
    code = (
        "from mpmath import mpf\n"
        "from padwhit import engine\n"
        "from padwhit.representations import parse_rep\n"
        "engine._tail_sup_level = lambda level, t_max: mpf(10)\n"
        "rep = parse_rep('ps', '3^2:1@0/1,3^0:0@0/1')\n"
        "assert not engine.sup_norm(rep).certified\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == proc.stderr == ""


def test_lower_bound_witness_examples():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 0, []))
    w = lower_bound_witness(rep)
    assert w == Representative(-3, 1, 1)
    val = abs(whittaker_value(rep, w, direct=True))
    assert val >= mpf(2) / 3 * mp.power(3, mpf(3 * rep.m // 2) / 2 - mpf(rep.n) / 2)
    # guard: needs cond(chi1) > 2 cond(chi2)
    balanced = PrincipalSeries(ext(3, 1, [1]), ext(3, 1, [1]))
    with pytest.raises(ValueError):
        lower_bound_witness(balanced)
    with pytest.raises(ValueError):
        lower_bound_witness(SteinbergTwist(ext(3, 0, [])))


def test_lower_bound_witness_positive_a2():
    rep = PrincipalSeries(ext(3, 3, [1]), ext(3, 1, [1]))
    w = lower_bound_witness(rep)
    a1 = rep.chi1.conductor
    assert (w.t, w.k) == (-(3 * a1 // 2), a1 // 2)
    val = abs(whittaker_value(rep, w, direct=True))
    ref = mp.power(3, mpf(3 * rep.m // 2) / 2 - mpf(rep.n) / 2)
    assert val >= mpf(2) / 3 * ref


def test_supercuspidal_k0_column_and_closed_form():
    sc = synthetic_oracle(3, 3, make_character(3, 1, [1]), seed=12)
    n = sc.n
    eps_dual = sc.twist_data(sc.omega.inverse()).eps
    for t in range(-n - 2, 2):
        got = whittaker_value(sc, Representative(t, 0, 1))
        if t == -n:
            assert abs(got - eps_dual) < TOL_PT
            assert abs(abs(got) - 1) < TOL_PT
        else:
            assert abs(got) < TOL_PT
    rng = random.Random(2)
    for k in range(n + 1):
        for t in range(-2 * n - 2, 1):
            kn = max(min(k, n - k), 1)
            v = rng.choice(unit_group(3, kn).units())
            got = whittaker_value(sc, Representative(t, k, v), direct=True)
            want = supercuspidal_closed_value(sc, Representative(t, k, v))
            assert abs(got - want) < TOL_PT


def test_supercuspidal_sup_norm_certified():
    sc = synthetic_oracle(5, 2, seed=9)
    res = sup_norm(sc)
    assert res.certified
    assert res.h >= 1 - mpf("1e-12")


def test_reduce_matrix_examples():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 0, []))
    n = rep.n
    # identity: the representative is the identity coset and the reconstructed
    # value is exactly W(1) = 1.
    g = Mat2.from_rationals(3, [1, 0, 0, 1])
    psi_ph, om_ph, r = reduce_matrix(rep, g)
    assert r == Representative(-2 * n, n, 1)
    val = psi_ph.embed() * om_ph.embed() * whittaker_value(rep, r, direct=True)
    assert abs(val - 1) < TOL
    # the Weyl element lands in the (0,0,1) coset with trivial phases
    g = Mat2.from_rationals(3, [0, 1, -1, 0])
    psi_ph, om_ph, r = reduce_matrix(rep, g)
    assert r == Representative(0, 0, 1)
    assert psi_ph == RootOfUnity(0, 1) and om_ph == RootOfUnity(0, 1)
    # integral unipotent absorbs into the level subgroup
    g = Mat2.from_rationals(3, [1, 7, 0, 1])
    psi_ph, om_ph, r = reduce_matrix(rep, g)
    assert r == Representative(-2 * n, n, 1)
    val = psi_ph.embed() * om_ph.embed() * whittaker_value(rep, r, direct=True)
    assert abs(val - 1) < TOL


def test_reduce_matrix_roundtrip_random():
    p = 3
    rep = PrincipalSeries(ext(p, 2, [1]), ext(p, 1, [1]))
    n = rep.n
    pn = p**n
    rng = random.Random(5)
    for _ in range(30):
        t = rng.randint(-5, 2)
        k = rng.randint(0, n)
        v = rng.choice([u for u in range(1, pn) if u % p])
        u = rng.choice([1, 2, 4, 5])
        x = Fraction(rng.randint(-8, 8), 3 ** rng.randint(0, 2))
        a_, b_, c_, d_ = (
            Fraction(0), Fraction(3) ** t, Fraction(-1), -Fraction(3) ** (-k) * v,
        )
        a_, b_ = a_ + x * c_, b_ + x * d_
        a_, b_, c_, d_ = u * a_, u * b_, u * c_, u * d_
        ka, kb, kc, kd = 1 + pn * rng.randint(-1, 1), rng.randint(-2, 2), \
            pn * rng.randint(-1, 1), rng.choice([1, 2, 4, 5, 7, 8])
        g = Mat2.from_rationals(
            p,
            [a_ * ka + b_ * kc, a_ * kb + b_ * kd,
             c_ * ka + d_ * kc, c_ * kb + d_ * kd],
        )
        psi_ph, om_ph, r2 = reduce_matrix(rep, g)
        lhs = psi_ph.embed() * om_ph.embed() * whittaker_value(rep, r2, direct=True)
        px = psi_eval(PAdicApprox.from_rational(p, x, 12)) if x else RootOfUnity(0, 1)
        rhs = px.embed() * rep.omega.eval_unit(u).embed() \
            * whittaker_value(rep, Representative(t, k, v), direct=True)
        assert abs(lhs - rhs) < mpf("1e-20")


def test_decompose_matrix_rejects_singular():
    # Entries are exact, so a zero determinant is decided, never guessed.
    with pytest.raises(ValueError):
        decompose_matrix(Mat2.from_rationals(3, [1, 1, 1, 1]), 1)


def test_from_rationals_reads_entries_exactly():
    g = Mat2.from_rationals(3, [0.5, 2, Fraction(1, 9), -1])
    assert (g.a, g.b, g.c, g.d) == (Fraction(1, 2), 2, Fraction(1, 9), -1)
    assert Mat2.from_rationals(3, [1, 0, 0, 1], 30) == Mat2.from_rationals(3, [1, 0, 0, 1])
    with pytest.raises(ValueError):
        Mat2.from_rationals(3, [1, 0, 0, 1], 0)


WEYL = (0, 1, -1, 0)


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _kappa(g: Mat2, n: int, weyl=WEYL):
    """``(z(u) n(x) g(t,k,v))^-1 g`` in exact rationals, from the
    decomposition of ``g``, with g(t,k,v) = diag(p^t, 1) w n(p^-k v)."""
    p = g.p
    u, x, r = decompose_matrix(g, n)
    coset = _mul(_mul((Fraction(p) ** r.t, 0, 0, 1), weyl), (1, Fraction(p) ** -r.k * r.v, 0, 1))
    a, b, c, d = _mul((u, u * x, 0, u), coset)
    det = a * d - b * c
    return _mul((d / det, -b / det, -c / det, a / det), (g.a, g.b, g.c, g.d))


def _in_level_subgroup(kappa, p: int, n: int) -> bool:
    """Z_p entries, unit determinant, c in p^n Z_p and a = 1 mod p^n."""
    def val(x):
        return math.inf if x == 0 else split_rational(p, x)[0]
    a, b, c, d = kappa
    return (min(map(val, kappa)) >= 0 and val(a * d - b * c) == 0
            and val(c) >= n and val(a - 1) >= n)


def _random_matrices(rng, p: int, count: int):
    """Invertible matrices with entries 0 (one in ten) or ``p^e * unit``,
    e in [-2, 2], the unit in (-p^6, p^6)."""
    def entry():
        if rng.random() < 0.1:
            return 0
        while (u := rng.randrange(1 - p**6, p**6)) % p == 0:
            pass
        return Fraction(p) ** rng.randint(-2, 2) * u

    out = []
    while len(out) < count:
        a, b, c, d = (entry() for _ in range(4))
        if a * d != b * c:
            out.append(Mat2.from_rationals(p, [a, b, c, d]))
    return out


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (3, 4), (5, 3)])
def test_decompose_matrix_kappa_in_level_subgroup(p, n):
    mats = _random_matrices(random.Random(f"kappa/{p}/{n}"), p, 2500)
    assert any(split_rational(p, x)[0] < 0 for g in mats for x in (g.a, g.b, g.c, g.d) if x)
    assert all(_in_level_subgroup(_kappa(g, n), p, n) for g in mats)
    # A planted wrong Weyl sign turns kappa into -kappa, whose a = -1 mod p^n.
    assert not any(_in_level_subgroup(_kappa(g, n, (0, -1, 1, 0)), p, n) for g in mats[:200])


@pytest.mark.parametrize("e, K", [(20, 8), (40, 30)])
def test_decompose_matrix_beyond_the_digit_count(e, K):
    # Truncated to K digits these determinants read 0 mod 3^K.
    g = Mat2.from_rationals(3, [1, 1, 1, 1 + 3**e], K)
    for n in (2, 4):
        assert _in_level_subgroup(_kappa(g, n), 3, n)


def test_representative_domain_guards():
    rep = small_reps()[0]
    with pytest.raises(ValueError):
        whittaker_value(rep, Representative(0, rep.n + 1, 1))
    with pytest.raises(ValueError):
        whittaker_value(rep, Representative(0, 0, rep.p))


def _fraction_decompose(g: Mat2, n: int):
    """decompose_matrix in Fraction arithmetic, as the engine computed it
    before its valuations were read off integers: the oracle."""
    p, a, b, c, d = g.p, g.a, g.b, g.c, g.d
    det = a * d - b * c
    if det == 0:
        raise ValueError("matrix is singular")
    t_det = split_rational(p, det)[0]
    vc = split_rational(p, c)[0] if c else None
    vd = split_rational(p, d)[0] if d else None
    if vc is None:
        k = n
    elif vd is None:
        k = 0
    else:
        k = min(max(vc - vd, 0), n)
    if k == n:
        t_y = t_det - 2 * vd
        u = -det / d * Fraction(p) ** (n - t_y)
        x = b / d + Fraction(p) ** (t_y - n)
        return u, x, Representative(t_y - 2 * n, n, 1)
    t = t_det - 2 * vc
    e = c if vd is None or vd > vc else d
    v = c * e * Fraction(p) ** (k + t) / det
    mod = p ** max(k, 1)
    return -c, a / c, Representative(t, k, v.numerator * pow(v.denominator, -1, mod) % mod)


def _fraction_reduce(rep, g: Mat2):
    """reduce_matrix on :func:`_fraction_decompose`, with psi evaluated on a
    ``PAdicApprox``: the oracle."""
    u, x, r = _fraction_decompose(g, rep.n)
    p = rep.p
    psi_phase = ONE
    if x:
        t, num, den = split_rational(p, x)
        if t < 0:
            psi_phase = psi_eval(PAdicApprox(p, t, num * pow(den, -1, p**-t), -t))
    _, num, den = split_rational(p, u)
    mod = p ** max(rep.m, 1)
    return psi_phase, rep.omega.eval_unit(num * pow(den, -1, mod) % mod), r


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_matrix_reduction_matches_the_fraction_oracle(p):
    mats = _random_matrices(random.Random(f"oracle/{p}"), p, 600)
    # Entries of negative valuation at odd p, which a stream of dyadic float
    # entries never holds.
    assert any(split_rational(p, x)[0] < 0 for g in mats for x in (g.a, g.b, g.c, g.d) if x)
    family = standard_family(p, 4)
    reps = []
    for n in range(1, 5):
        level = sorted((rep for rep in family if rep.n == n), key=lambda rep: rep.m)
        reps += [level[0], level[-1]]
    assert {rep.n for rep in reps} == {1, 2, 3, 4}
    for n in range(1, 5):
        for g in mats:
            assert decompose_matrix(g, n) == _fraction_decompose(g, n), (g, n)

    def mismatches(reduce) -> int:
        return sum(reduce(rep, g) != _fraction_reduce(rep, g) for rep in reps for g in mats)

    assert mismatches(reduce_matrix) == 0
    # A planted mutation that drops psi(x) where v(x) < 0 is caught.
    assert mismatches(lambda rep, g: (ONE, *reduce_matrix(rep, g)[1:])) > 0


def test_zero_rows_keep_the_triple_guards():
    rep = PrincipalSeries(ext(3, 2, [1]), ext(3, 1, [1]))
    n, p = rep.n, rep.p
    zero = [(t, k) for k in range(n + 1) for t in range(-k - n, n + 1)
            if whittaker_value(rep, Representative(t, k, 1)) == 0]
    # Zero rows on both sides of n/2.
    assert {2 * k > n for _, k in zero} == {False, True}
    for t, k in zero:
        for bad in (Representative(t, k, p), Representative(t, k, 2 * p),
                    Representative(t, n + 1, 1), Representative(t, -1, 1)):
            with pytest.raises(ValueError):
                whittaker_value(rep, bad)
            with pytest.raises(ValueError):
                conjugate_value(rep, bad)


def test_zero_requests_form_no_phase(monkeypatch):
    calls = []
    dual = engine._dual
    monkeypatch.setattr(engine, "_dual", lambda rep: calls.append(rep) or dual(rep))
    family = standard_family(2, 4) + standard_family(3, 4) + standard_family(5, 3)
    zeros = {False: 0, True: 0}
    for rep in family:
        n, p = rep.n, rep.p
        for k in range(n + 1):
            v = unit_group(p, max(min(k, n - k), 1)).units()[-1]
            for t in range(-k - n - 1, n + 1):
                before = len(calls)
                value = whittaker_value(rep, Representative(t, k, v))
                if value == 0:
                    assert isinstance(value, mpc) and value == mpc(0)
                    assert len(calls) == before, (rep.spec_string(), t, k)
                    zeros[2 * k > n] += 1
                else:
                    # The counter sees the phase of every nonzero value above n/2.
                    assert len(calls) == before + (2 * k > n)
    assert min(zeros.values()) > 0
