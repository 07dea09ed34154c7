import random

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpc, mpf

from padwhit.numerics import (
    RootOfUnity,
    ScaledRoot,
    approx_equal,
    expand_geometric,
    get_precision,
    perturb_epsilon,
    perturbed,
    set_precision,
    unity_sum,
    unity_table,
    working_cache,
)


def test_root_mul_examples():
    z3 = RootOfUnity(1, 3)
    assert z3 * z3 == RootOfUnity(2, 3)
    m1 = RootOfUnity(1, 2)
    assert m1 * m1 == RootOfUnity(0, 1)
    assert RootOfUnity(1, 4) * RootOfUnity(1, 6) == RootOfUnity(5, 12)


def test_root_canonical_form():
    assert RootOfUnity(2, 6) == RootOfUnity(1, 3)
    assert RootOfUnity(-1, 4) == RootOfUnity(3, 4)
    assert RootOfUnity(7, 7) == RootOfUnity(0, 1)
    r = RootOfUnity(3, 9)
    assert 0 <= r.num < r.order


def test_root_mul_associative_commutative_bulk():
    rng = random.Random(0)
    for _ in range(10_000):
        a = RootOfUnity(rng.randrange(60), rng.randrange(1, 60))
        b = RootOfUnity(rng.randrange(60), rng.randrange(1, 60))
        c = RootOfUnity(rng.randrange(60), rng.randrange(1, 60))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


@given(st.integers(0, 10**6), st.integers(1, 10**4),
       st.integers(0, 10**6), st.integers(1, 10**4))
def test_root_mul_embedding_homomorphism(a, n, b, m):
    r1, r2 = RootOfUnity(a, n), RootOfUnity(b, m)
    lhs = (r1 * r2).embed()
    rhs = r1.embed() * r2.embed()
    assert abs(lhs - rhs) < mpf(2) ** (4 - get_precision())


def test_embed_examples():
    assert approx_equal(RootOfUnity(0, 1).embed(), 1)
    assert approx_equal(RootOfUnity(1, 4).embed(), mpc(0, 1))
    assert approx_equal(
        RootOfUnity(1, 3).embed(), mpc(mpf(-1) / 2, mp.sqrt(3) / 2)
    )
    for _, r in [(0, RootOfUnity(3, 17)), (1, RootOfUnity(11, 23))]:
        assert abs(abs(r.embed()) - 1) < mpf(2) ** (1 - get_precision())


def test_inverse_and_pow():
    r = RootOfUnity(5, 12)
    assert r * r.inverse() == RootOfUnity(0, 1)
    assert r**0 == RootOfUnity(0, 1)
    assert r**-1 == r.inverse()
    assert r**5 == RootOfUnity(25, 12)


def _root(num, order, q=3, s=0):
    return ScaledRoot(RootOfUnity(num, order), q, s)


def _long_division_oracle(num_coeffs, den_coeffs, upto):
    """Naive synthetic division oracle with plain lists, degree 0 upward."""
    out = []
    num = list(num_coeffs) + [mpc(0)] * (upto + 1 - len(num_coeffs))
    for d in range(upto + 1):
        acc = num[d]
        for j in range(1, min(d, len(den_coeffs) - 1) + 1):
            acc -= den_coeffs[j] * out[d - j]
        out.append(acc / den_coeffs[0])
    return out


def _euler(roots):
    """Coefficient list of prod (1 - a X)."""
    den = [mpc(1)]
    for r in roots:
        a = r.embed()
        den = [c - a * prev for c, prev in zip(den + [mpc(0)], [mpc(0)] + den)]
    return den


def _expansion(terms, roots, upto):
    """Every coefficient from min(e_j) to ``upto``: the head where it spans,
    the partial fractions past it."""
    head, parts = expand_geometric(terms, roots)
    hi = max(e for e, n in terms.items() if n != 0)
    theta = {}
    for d in range(min(terms), upto + 1):
        if d <= hi:
            theta[d] = head.get(d, mpc(0))
        else:
            theta[d] = sum(((b0 + b1 * d) * a.embed() ** d
                            for b0, b1, a in parts), mpc(0))
    return theta


def _check_against_oracle(terms, roots, upto):
    """expand_geometric's head and its partial fractions beyond the top
    numerator degree against long division."""
    lo, hi = min(terms), max(terms)
    head, parts = expand_geometric(terms, roots)
    assert set(head) <= set(range(lo, hi + 1))
    num = [mpc(terms.get(d, 0)) for d in range(lo, hi + 1)]
    oracle = _long_division_oracle(num, _euler(roots), upto - lo)
    theta = _expansion(terms, roots, upto)
    for d in range(lo, upto + 1):
        assert abs(theta[d] - oracle[d - lo]) < mpf("1e-30"), d
    return head, parts


def test_expand_geometric_no_root():
    head, parts = _check_against_oracle({-1: 2, 1: mpc(0, 1)}, (), 4)
    assert head == {-1: 2, 1: mpc(0, 1)}
    assert parts == []


def test_series_expand_geometric():
    head, parts = _check_against_oracle({0: 1}, (_root(0, 1),), 3)
    assert head == {0: 1}
    assert parts == [(1, 0, _root(0, 1))]


def test_series_expand_identity():
    # (1 - X) / (1 - X) = 1: every coefficient past degree 0 cancels exactly.
    head, parts = expand_geometric({0: 1, 1: -1}, (_root(0, 1),))
    assert head == {0: 1}
    assert parts[0][0] == 0


def test_expand_geometric_distinct_roots_against_long_division():
    rng = random.Random(4)
    for _ in range(25):
        r1 = _root(rng.randrange(12), 12, 5, rng.randrange(3))
        r2 = _root(rng.randrange(12), 12, 5, rng.randrange(3))
        if r1 == r2:
            continue
        terms = {e: mpc(rng.randint(1, 3), rng.randint(-2, 2))
                 for e in rng.sample(range(-3, 1), rng.randint(1, 3))}
        _check_against_oracle(terms, (r1, r2), 9)


def test_series_expand_double_pole_against_long_division():
    # 1/(1-X)^2 expands as 1 + 2X + 3X^2 + ...
    one = _root(0, 1)
    _check_against_oracle({0: 1}, (one, one), 6)
    theta = _expansion({0: 1}, (one, one), 6)
    assert approx_equal(theta[1], 2, mpf("1e-30"))
    assert approx_equal(theta[2], 3, mpf("1e-30"))
    _, parts = expand_geometric({0: 1}, (one, one))
    (b0, b1, a), = parts
    assert a == one
    assert approx_equal(b0, 1, mpf("1e-30")) and approx_equal(b1, 1, mpf("1e-30"))
    # A double root off the unit circle with a three-term numerator: the
    # head spans three degrees.
    r = _root(1, 8, 7, 1)
    head, _ = _check_against_oracle({-2: 1, -1: mpc(0, -2), 0: 3}, (r, r), 12)
    assert sorted(head) == [-2, -1, 0]


def test_series_expand_principal_part_exact():
    terms = {-2: 3, 0: 1}
    head, _ = _check_against_oracle(terms, (_root(1, 4),), 4)
    assert approx_equal(head[-2], 3, mpf("1e-30"))
    assert approx_equal(head[-1], mpc(0, 3), mpf("1e-30"))
    assert min(head) == -2


def test_series_product_multiplicativity():
    rng = random.Random(4)
    for _ in range(25):
        r1 = _root(rng.randrange(12), 12)
        r2 = _root(rng.randrange(12), 12)
        f = {rng.randint(-2, 0): mpc(rng.randint(1, 3)), 0: mpc(1)}
        g = {rng.randint(-1, 0): mpc(rng.randint(1, 3))}
        T = 8
        fg = {}
        for d1, c1 in f.items():
            for d2, c2 in g.items():
                fg[d1 + d2] = fg.get(d1 + d2, mpc(0)) + c1 * c2
        lhs = _expansion(fg, (r1, r2), T)
        sf = _expansion(f, (r1,), T + 2)
        sg = _expansion(g, (r2,), T + 2)
        for d in range(min(fg), T + 1):
            rhs = sum((c * sg.get(d - d1, mpc(0)) for d1, c in sf.items()), mpc(0))
            assert abs(lhs[d] - rhs) < mpf("1e-30")


def test_expand_geometric_drops_exact_zeros():
    # (1 + X^2) / ((1 - iX)(1 + iX)) = 1: the head's degrees 1 and 2 and
    # every partial fraction vanish exactly.
    i, minus_i = _root(1, 4), _root(3, 4)
    head, parts = expand_geometric({0: 1, 2: 1}, (i, minus_i))
    assert head == {0: 1}
    assert [(b0, b1) for b0, b1, _ in parts] == [(0, 0), (0, 0)]
    assert expand_geometric({0: 0}, (i,)) == ({}, [])


def test_scaled_root_exact_arithmetic():
    a = _root(1, 6, 5, 1)
    assert a.inverse() == _root(5, 6, 5, -1)
    assert a.shift(2) == ScaledRoot(RootOfUnity(1, 6), 5, 3)
    assert a**3 == _root(1, 2, 5, 3)
    assert a * _root(1, 3, 5, 2) == _root(1, 2, 5, 3)
    assert a * a.inverse() == _root(0, 1, 5, 0)
    assert approx_equal(a.embed(), RootOfUnity(1, 6).embed() / mp.sqrt(5),
                        mpf("1e-35"))
    assert approx_equal(a.shift(2).modulus(), mp.power(5, -1.5), mpf("1e-35"))


def test_set_precision_roundtrip():
    old = get_precision()
    try:
        set_precision(96)
        assert get_precision() == 96
        r = RootOfUnity(1, 7)
        assert abs(abs(r.embed()) - 1) < mpf(2) ** (1 - 96 + 2)
    finally:
        set_precision(old)


def test_unity_table_follows_working_precision():
    unity_table(7)  # cached at the default precision first
    with mp.workprec(80):
        assert unity_table(7)[1] == mp.expjpi(mpf(2) / 7)
    assert unity_table(7)[1] == mp.expjpi(mpf(2) / 7)


def test_working_cache_keys_on_precision_and_canary():
    @working_cache(maxsize=8)
    def third(n):
        return mpf(1) / (3 * n)

    first = third(1)
    assert first == mpf(1) / 3
    assert third(1) is first
    with mp.workprec(53):
        low = third(1)
        assert low == mpf(1) / 3
    assert low != first
    assert third(1) is first
    with perturb_epsilon(1e-3):
        canary = third(1)
        assert canary == first and canary is not first
        assert third(1) is canary
    assert third(1) is first
    assert third.cache_info().currsize == 3
    third.cache_clear()
    assert third.cache_info().currsize == 0
    assert third(1) is not first


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf"), -1,
                                   -1.5, mpf("nan"), mpf(-1) + mpf(2) ** -60])
def test_perturb_epsilon_refuses_an_unusable_delta(delta):
    # Refused at the call, before the canary moves: -1 (or a delta that
    # rounds to it as a double) zeroes every ramified epsilon factor, and
    # nan or inf leaves no finite value.
    with pytest.raises(ValueError, match="finite and > -1"):
        perturb_epsilon(delta)
    with perturb_epsilon(0.0):
        pass
    with perturb_epsilon(-0.5):
        assert perturbed(mpf(1)) == mpf("0.5")
    assert perturbed(mpf(1)) == 1


@pytest.mark.parametrize("bits", [53, 128])
def test_unity_sum_is_within_its_stated_bound(bits):
    # |result - sum| <= 2^-prec |sum| + K 2^(3/2 - prec - 32), against the
    # same sum of the same roots taken at twice the precision.
    import numpy as np

    rng = random.Random(bits)
    for order in (1, 2, 7, 24, 375, 2058):
        for size in (1, 5, 400):
            phases = np.array([rng.randrange(order) for _ in range(size)], dtype=np.int64)
            with mp.workprec(bits):
                got = unity_sum(phases, order)
            with mp.workprec(2 * bits + 64):
                want = sum((mp.expjpi(mpf(2 * int(j)) / order) for j in phases), mpc(0))
                bound = mpf(2) ** -bits * abs(want) + size * mpf(2) ** (mpf(1.5) - bits - 32)
                assert abs(got - want) <= bound, (bits, order, size)
