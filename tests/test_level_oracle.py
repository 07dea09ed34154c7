"""Levels kept as exact heads against the level of coefficient tables.

The oracle below is the engine's level as it was when every column was a
``CoefficientTable``: a column with no Euler factor left kept its head
``(t, scalar, num, order, s, e, factor)`` with the rational already
perturbed and embedded it on first read; its modulus, complex128 copy and
row were read from that table.  Every value the lean level gives must be
equal, bit for bit, at 53 and 128 bits and under the epsilon canary.
"""

import math

import pytest
from mpmath import mp, mpc, mpf

from padwhit import engine
from padwhit.characters import (
    ExtendedCharacter,
    character_table,
    characters_mod,
    level_constants,
    twist_table,
)
from padwhit.engine import _Epsilons
from padwhit.numerics import (
    ONE,
    ScaledRoot,
    _scaled_embed,
    get_precision,
    perturb_epsilon,
    perturbed,
    q_power,
    set_precision,
    working_state,
)
from padwhit.representations import PrincipalSeries, SupercuspidalOracle, standard_family
from padwhit.verify import synthetic_oracle

from column_oracle import _solve


class _OldHead:
    """A head column as a table kept it: embedded on first read, under the
    state it was built under and no other."""

    def __init__(self, k, mu, A, q, head):
        self.k, self.mu, self.A, self.q, self.head = k, mu, A, q, head
        self.state, self._coeffs, self.parts, self.moduli = working_state(), None, (), None

    def _checked(self):
        if self.state != working_state():
            raise RuntimeError("another precision or epsilon canary")
        return self.head

    @property
    def coeffs(self):
        self.coeff(self.head[0])
        return self._coeffs

    def coeff(self, t):
        if self._coeffs is None:
            t0, scalar, num, order, s, e, factor = self._checked()
            q = self.q
            if factor is None:
                c = scalar * _scaled_embed(num, order, q, s + e)
            else:
                approx = factor.value() if isinstance(factor, _Epsilons) else factor
                c = scalar * _scaled_embed(num, order, q, s) * approx * q_power(q, e)
            self._coeffs = {t0: c}
        c = self._coeffs.get(t)
        return mpc(0) if c is None else c

    def support(self):
        return [self.head[0]]

    def modulus(self, t):
        if self.head[6] is None:
            _, scalar, _, _, s, e, _ = self._checked()
            return abs(scalar) * q_power(self.q, s + e)
        return abs(self.coeff(t))

    def complex128(self, t):
        _, scalar, num, order, s, e, factor = self._checked()
        if factor is None or isinstance(factor, _Epsilons):
            z = complex(_scaled_embed(num, order, self.q, s + e)) * float(scalar)
            return z if factor is None else z * factor.complex128()
        return complex(self.coeff(t))


def _old_level_columns(rep, k):
    """``{i: column}`` of the columns with no Satake root left, read from
    the level's arrays with each head's rational perturbed at once."""
    p = rep.p
    ps = isinstance(rep, PrincipalSeries)
    chis = (rep.chi1, rep.chi2) if ps else (rep.xi, rep.xi)
    cond, eps, n = level_constants(p, k)
    cond, eps = cond.tolist(), eps.tolist()
    ratio = rep.diagonal_ratio()
    rho = ScaledRoot(ONE, p) if ratio is None else ratio.shift(1)
    (level1, index1, cond1, root1, n1), (level2, index2, cond2, root2, n2) = (
        twist_table(chis[0], k), twist_table(chis[1], k))
    M = math.lcm(n, rho.root.order, n1, n2)
    rho_num, scale, scale1, scale2 = rho.root.num * (M // rho.root.order), M // n, M // n1, M // n2
    sign = 1 if rep.omega.at_minus_one().is_one() else -1
    chars = characters_mod(p, k)
    cols = {}
    for i in range(len(chars)):
        c1, c2, a = cond1[i], cond2[i], cond[i]
        A = c1 + c2 or int(not ps)
        if a and ((c1 and c2) or (ratio is None and a != k)):
            num, den, e = (p if ratio is not None or a == k else 0), p - 1, a - k
            root, s = (eps[i] * scale if a >= 2 else 0) - e * rho_num, a - e * rho.s
        elif not a and ratio is None:
            (num, den), e, root, s = {0: (1, 1), 1: (-1, p - 1)}.get(k, (0, 1)), 0, 0, 0
        elif not a and k and (c1 or c2):
            num, den, e, root, s = 1, p - 1, -k, k * rho_num, k * rho.s - 2
        else:
            continue
        if not num:
            cols[i] = engine._zero_table(k, chars[i], p)
            continue
        eps_mu, twists, ramified = (chars[i] if a == 1 else None), (), int(a >= 2)
        if root1[i] >= 0 and root2[i] >= 0:
            root -= root1[i] * scale1 + root2[i] * scale2
            ramified -= (c1 > 0) + (c2 > 0)
        else:
            twists = (ExtendedCharacter(characters_mod(p, level1)[index1[i]], chis[0].pi_value),
                      ExtendedCharacter(characters_mod(p, level2)[index2[i]], chis[1].pi_value))
        factor = _Epsilons(eps_mu, twists) if eps_mu or twists else None
        g = math.gcd(root % M, M)
        head = (e - A, perturbed(mpf(sign * num) / den, ramified), root % M // g,
                M // g, s, e, factor)
        cols[i] = _OldHead(k, chars[i], A, p, head)
    return cols


class _OldLevel:
    """Every column a table, indexed by ``t``; rows read off the tables."""

    def __init__(self, rep, k):
        chars = characters_mod(rep.p, k)
        exact = {} if isinstance(rep, SupercuspidalOracle) else _old_level_columns(rep, k)
        self.columns = []
        for i, mu in enumerate(chars):
            tab = exact.get(i)
            if tab is None:
                tab = _solve(rep, k, mu, rep.twist_data(mu))
                if tab.head is not None:  # a solved head: kept lazy, as before
                    t, (num, den, count), *rest = tab.head
                    tab = _OldHead(k, mu, tab.A, rep.p,
                                   (t, perturbed(mpf(num) / den, count), *rest))
            self.columns.append(tab)
        by_t = {}
        for i, tab in enumerate(self.columns):
            for t in tab.support():
                by_t.setdefault(t, []).append(i)
        self.by_t = {t: tuple(live) for t, live in by_t.items()}
        self.rows = {}
        self.tails = tuple((i, tab) for i, tab in enumerate(self.columns) if tab.parts)

    def row(self, t):
        row = self.rows.get(t)
        if row is None:
            row = self.rows[t] = tuple((i, self.columns[i].coeff(t))
                                       for i in self.by_t.get(t, ()))
        return row


def _old_stage(level, char_values, lo, hi):
    by_t, columns = level.by_t, level.columns
    order = sorted(t for t in by_t if lo <= t <= hi)
    multi = [t for t in order if len(by_t[t]) > 1]
    single, falling = {}, set()
    for t in order:
        if len(by_t[t]) == 1 and by_t[t][0] not in falling:
            tab = columns[by_t[t][0]]
            single[t] = tab.modulus(t)
            if tab.moduli and tab.moduli[2] > 0 and t + tab.A >= tab.moduli[0]:
                falling.add(by_t[t][0])
    screen = engine._screen([[(i, columns[i].complex128(t)) for i in by_t[t]]
                             for t in multi], char_values[2]) if multi else None
    upper = None if screen is None else screen[0] + screen[1][:, None]
    return engine._Stage(level, char_values, order, single, multi, upper)


def _old_sup_norm(rep):
    """(h, witness, certified, tail_bound) of sup_norm over the oracle's
    levels."""
    n, p = rep.n, rep.p
    t_max = engine._window(rep)
    tie = 1 - engine.TIE_ULPS * mpf(2) ** -mp.prec
    levels = [_OldLevel(rep, k) for k in range(n // 2 + 1)]
    values, _, _ = engine._domain_values(
        [_old_stage(level, character_table(p, k), -k - n, t_max)
         for k, level in enumerate(levels)], tie)
    h, cands = mpf(-1), []
    for k, entries in enumerate(values):
        threshold = h * tie
        for value, t, v in entries:
            if value > h:
                h = value
                threshold = h * tie
            if value >= threshold:
                cands.append((value, engine.Representative(t, k, v)))
    tail = mpf(0)
    for level in levels:
        sup = mpf(0)
        for _, tab in level.tails:
            sup += tab.tail.coeff_bound(t_max + 1)
        tail = max(tail, engine._rounded_up(sup, len(level.columns) + 7))
    witness = next(r for value, r in cands if value >= h * tie)
    return h, witness, tail < h * (1 - mpf("1e-12")), tail


def _level_mismatches(rep, k, lean):
    """Where ``lean``, the level of ``rep`` at ``k``, differs from the
    oracle's."""
    old, where = _OldLevel(rep, k), (rep.spec_string(), k)
    if lean.by_t != old.by_t or [i for i, _ in lean.tails] != [i for i, _ in old.tails]:
        return [(where, "index")]
    bad = [(where, i, t, kind)
           for t, live in old.by_t.items() for i in live
           for kind, got, want in (
               ("modulus", lean.modulus(i, t), old.columns[i].modulus(t)),
               ("complex128", lean.complex128(i, t), old.columns[i].complex128(t)))
           if got != want]
    bad += [(where, t, "row") for t in old.by_t if lean.row(t) != old.row(t)]
    bad += [(where, i, "coeffs") for i, (got, want)
            in enumerate(zip(lean.columns, old.columns)) if got.coeffs != want.coeffs]
    return bad


def _ramified_oracles():
    oracles = []
    for p, n, m in ((2, 4, 2), (3, 2, 1), (3, 4, 2), (5, 3, 1)):
        omega = next(mu for mu in characters_mod(p, m) if mu.conductor == m)
        oracles.append(synthetic_oracle(p, n, omega, seed=5))
    return oracles


FAMILY = (standard_family(2, 6) + standard_family(3, 4) + standard_family(5, 3)
          + standard_family(7, 2) + _ramified_oracles())


@pytest.fixture(params=[(53, 0.0), (53, 1e-3), (128, 0.0), (128, 1e-3)],
                ids=["53", "53-canary", "128", "128-canary"])
def state(request):
    bits, delta = request.param
    old = get_precision()
    set_precision(bits)
    try:
        with perturb_epsilon(delta):
            yield
    finally:
        set_precision(old)


def test_lean_levels_equal_the_levels_of_tables(state):
    heads = 0
    for rep in FAMILY:
        for k in range(rep.n + 1):
            lean = engine._build_level(rep, k)
            assert _level_mismatches(rep, k, lean) == []
            heads += len(lean.heads)
    assert heads > 5000


def test_sup_norm_over_lean_levels_equals_the_oracle(state):
    for rep in FAMILY:
        got = engine._scan(rep)
        assert (got.h, got.witness, got.certified, got.tail_bound) == _old_sup_norm(rep), \
            rep.spec_string()


def test_a_value_cache_without_the_canary_count_fails(monkeypatch):
    # Planted: the monomial value cache keyed without the count of ramified
    # epsilon factors, so that under the canary two heads that differ only
    # in that count share one value.
    real, seen = engine._monomial, {}

    def dropped(rational, num, order, q, s):
        key = (rational[:2], num, order, q, s, working_state())
        if key not in seen:
            seen[key] = real(rational, num, order, q, s)
        return seen[key]

    monkeypatch.setattr(engine, "_monomial", dropped)
    with perturb_epsilon(1e-3):
        bad = [m for rep in standard_family(2, 6) for k in range(rep.n + 1)
               for m in _level_mismatches(rep, k, engine._build_level(rep, k))]
    assert bad


@pytest.mark.parametrize("bits", [53, 128])
def test_screen_inputs_of_lean_levels_hold_against_512_bit_values(bits):
    # One-sided, as test_engine's check of the columns' complex128 values:
    # every value screened from the complex128 inputs that _stage reads off
    # a level, heads with conductor-1 factors among them, lies within its
    # bound of |W| synthesized from the 512-bit level.
    family = standard_family(2, 4) + standard_family(3, 4) + standard_family(5, 3)
    old = get_precision()
    try:
        rows = heads = 0
        for rep in family:
            for k in range(rep.n // 2 + 1):
                set_precision(bits)
                level = engine._build_level(rep, k)
                multi = [t for t in sorted(level.by_t) if len(level.by_t[t]) > 1]
                table = character_table(rep.p, k)[2]
                values, bounds = engine._screen(
                    [[(i, level.complex128(i, t)) for i in level.by_t[t]] for t in multi],
                    table) if multi else ((), ())
                heads += sum(isinstance(level.heads[i][6], _Epsilons)
                             for t in multi for i in level.by_t[t] if i in level.heads)
                set_precision(512)
                exact, chi = engine._build_level(rep, k), character_table(rep.p, k)[1]
                for r, t in enumerate(multi):
                    for j in range(table.shape[1]):
                        w = engine._synthesize(exact.row(t), chi, j)
                        assert abs(mpf(values[r, j]) - w) <= mpf(bounds[r]), \
                            (bits, rep.spec_string(), k, t, j)
                    rows += 1
        assert rows > 500 and heads > 500
    finally:
        set_precision(old)
