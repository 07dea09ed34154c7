import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpc, mpf

from padwhit import characters
from padwhit.characters import (
    ExtendedCharacter,
    character_table,
    characters_mod,
    critical_unit,
    epsilon_factor,
    epsilon_root,
    format_char,
    gauss_sum,
    gauss_sum_closed,
    make_character,
    parse_char,
    parse_unit_char,
    twisted,
    verify_critical_unit,
    zeta1,
)
from padwhit.numerics import (
    ONE,
    RootOfUnity,
    approx_equal,
    get_precision,
    perturb_epsilon,
    set_precision,
)
from padwhit.padics import PAdicApprox, _exponent_tuples, unit_group

TOL = mpf("1e-20")


def quad3():
    return make_character(3, 1, [1])


def test_conductor_examples():
    assert make_character(3, 2, [3]).conductor == 1
    assert make_character(3, 2, [1]).conductor == 2
    assert make_character(3, 1, [0]).conductor == 0


def _brute_conductor(p, level, values):
    """Smallest c with triviality on the image of 1 + p^c Z_p."""
    mod = p**level
    for c in range(level + 1):
        if all(values(u) == ONE for u in range(1, mod)
               if u % p and (u - 1) % p**c == 0):
            return c
    return level


def test_conductor_is_exact():
    for p, a_max in [(2, 5), (3, 4), (5, 3)]:
        for chi in characters_mod(p, a_max):
            assert chi.conductor == _brute_conductor(p, a_max, chi.eval_unit)


def test_char_eval_examples():
    assert quad3().eval_unit(2) == RootOfUnity(1, 2)
    assert make_character(5, 0, []).eval_unit(3) == ONE
    assert make_character(3, 2, [1]).eval_unit(4) == RootOfUnity(1, 3)


def test_char_eval_multiplicative():
    rng = random.Random(3)
    for p, a in [(3, 3), (5, 2), (2, 4)]:
        units = unit_group(p, a).units()
        for chi in characters_mod(p, a)[: 6]:
            for _ in range(30):
                u, v = rng.choice(units), rng.choice(units)
                assert chi.eval_unit(u) * chi.eval_unit(v) == chi.eval_unit(
                    u * v % p**a
                )


def test_conductor_product_examples():
    q = quad3()
    assert (q * q).conductor == 0
    mu = make_character(3, 2, [1])
    assert (mu * q).conductor == 2
    triv = make_character(3, 0, [])
    assert (triv * mu).conductor == mu.conductor


def test_conductor_product_brute():
    # Product conductor agrees with a direct triviality scan.
    for p in (3, 5):
        chars = characters_mod(p, 2)
        for mu in chars:
            for nu in chars[:5]:
                want = _brute_conductor(
                    p, 2, lambda u: mu.eval_unit(u) * nu.eval_unit(u)
                )
                assert (mu * nu).conductor == want


# Every character of level <= k listed once per level it belongs to, so
# lifts between all levels meet in the product.
TWIST_ORACLE_LEVELS = ((2, 6), (3, 4), (5, 3), (7, 2))


def _exponent_grid(p, a):
    orders = [order for _, order in unit_group(p, a).generators]
    return list(_exponent_tuples(orders))


def test_make_character_reads_conductor_off_exponents():
    # The reduced character agrees with the unreduced one at every unit, and
    # its conductor with the brute-force triviality scan.
    count = 0
    for p, a in TWIST_ORACLE_LEVELS:
        units = unit_group(p, a).units()
        for exps in _exponent_grid(p, a):
            chi = make_character(p, a, exps)
            full = characters.UnitCharacter(p, a, exps)
            assert [chi.eval_unit(u) for u in units] \
                == [full.eval_unit(u) for u in units], (p, a, exps)
            assert chi.conductor == _brute_conductor(p, a, full.eval_unit), (p, a, exps)
            count += 1
    assert count == 32 + 54 + 100 + 42


def test_make_character_evaluates_no_character(monkeypatch):
    def refuse(*args):
        raise AssertionError("make_character evaluated a character")

    monkeypatch.setattr(characters.UnitCharacter, "eval_unit", refuse)
    for p, kmax in TWIST_ORACLE_LEVELS:
        for a in range(kmax + 1):
            for exps in _exponent_grid(p, a):
                make_character(p, a, exps)


def test_at_minus_one_is_the_value_at_minus_one():
    signs = set()
    for p, kmax in TWIST_ORACLE_LEVELS:
        for a in range(kmax + 1):
            for chi in characters_mod(p, a):
                want = chi.eval_unit(-1 % p ** max(a, 1))
                assert chi.at_minus_one() == want, chi
                signs.add(want)
    assert signs == {ONE, RootOfUnity(1, 2)}


def test_twisted_matches_evaluated_product():
    pairs = 0
    for p, kmax in TWIST_ORACLE_LEVELS:
        chars = [c for k in range(kmax + 1) for c in characters_mod(p, k)]
        for chi in chars:
            for mu in chars:
                assert twisted(chi, mu) == chi * mu, (chi, mu)
                pairs += 1
    assert pairs == 28683


def test_twisted_lifts_level_two_at_p2():
    # The level-2 generator is 3 = -1 (mod 4); at levels >= 3 the generators
    # are -1 and 5, so the level-2 character lifts to exponents (e, 0).
    (quad,) = [c for c in characters_mod(2, 2) if c.conductor == 2]
    assert quad.exps == (1,)
    assert characters._lifted_exps(quad, 5) == (1, 0)
    for level in range(3, 7):
        units = unit_group(2, level).units()
        for mu in characters_mod(2, level):
            for chi, other in ((quad, mu), (mu, quad)):
                got = twisted(chi, other)
                assert got == chi * other
                assert all(got.eval_unit(u) == chi.eval_unit(u) * other.eval_unit(u)
                           for u in units)


def test_twisted_refuses_mixed_primes():
    with pytest.raises(ValueError):
        twisted(make_character(3, 1, [1]), make_character(5, 1, [1]))


def test_character_group_counts():
    for p, k in [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)]:
        chars = characters_mod(p, k)
        expected = unit_group(p, k).size
        assert len(chars) == expected
        assert len(set(chars)) == expected


def test_gauss_sum_examples():
    triv = make_character(3, 0, [])
    x = PAdicApprox(3, 1, 1, 4)
    assert approx_equal(gauss_sum(x, triv), 1, TOL)
    x = PAdicApprox(3, -1, 1, 4)
    assert approx_equal(gauss_sum(x, triv), mpf(-1) / 2, TOL)
    got = gauss_sum(x, quad3())
    assert approx_equal(got, mpc(0, mp.sqrt(3) / 2), TOL)
    x = PAdicApprox(3, -2, 1, 4)
    assert abs(gauss_sum(x, quad3())) < TOL


def test_gauss_sum_matches_closed_form_small_family():
    for p in (2, 3, 5):
        for mu in characters_mod(p, 2):
            for t in range(-3, 2):
                for u in (1, p + 1 if (p + 1) % p else p + 2):
                    x = PAdicApprox(p, t, u, max(4, -t + 1))
                    assert abs(gauss_sum(x, mu) - gauss_sum_closed(x, mu)) < TOL


def test_epsilon_examples():
    assert approx_equal(epsilon_factor(quad3()), mpc(0, 1), TOL)
    assert approx_equal(epsilon_factor(make_character(3, 0, [])), 1, TOL)
    e = epsilon_factor(quad3()) * epsilon_factor(quad3().inverse())
    assert approx_equal(e, quad3().at_minus_one().embed(), TOL)
    assert approx_equal(e, -1, TOL)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_epsilon_unit_modulus_and_duality(p):
    for mu in characters_mod(p, 3):
        e = epsilon_factor(mu)
        assert abs(abs(e) - 1) < TOL
        assert abs(e * epsilon_factor(mu.inverse()) - mu.at_minus_one().embed()) < TOL


# Every character of conductor 1..a_max at each p: the brute-force sums run
# over up to 500 units.
ORACLE_FAMILY = ((2, 8), (3, 6), (5, 4), (7, 3))


@pytest.mark.parametrize("bits", [53, 64, 128])
def test_epsilon_factor_matches_gauss_sum(bits):
    # Error budget in u = 2^(1 - bits); a correctly rounded operation is off
    # by at most u/2 relative, and an embedded root by at most u.
    # * Brute force: gauss_sum adds K <= N = phi(p^a) terms count * root, off
    #   by at most 2u * count each, in K - 1 recursive additions off by at
    #   most u * N each (the partial sums stay below N), then divides by N:
    #   |G_brute - G| <= (N + 2) u.  The scale p^(a/2) / zeta(1) <= p^(a/2)
    #   is off by at most 2u relative, so eps_brute is off by at most
    #   p^(a/2) (N + 4) u.
    # * Closed form: m <= p embedded roots (m = 1 for even a, p for odd
    #   a >= 3, p - 1 at a = 1), m - 1 additions off by at most u * m each,
    #   then one product by p^(-1/2): off by at most (p^2 + p + 2) u.
    old = get_precision()
    try:
        set_precision(bits)
        u = mpf(2) ** (1 - bits)
        for p, a_max in ORACLE_FAMILY:
            closed_err = (p * p + p + 2) * u
            for mu in characters_mod(p, a_max):
                a = mu.conductor
                if a == 0:
                    continue
                n_terms = p**a - p ** (a - 1)
                scale = mp.power(p, mpf(a) / 2)
                x = PAdicApprox(p, -a, 1, a)
                brute = scale / zeta1(p) * gauss_sum(x, mu.inverse())
                eps = epsilon_factor(mu)
                spec = (bits, format_char(mu))
                assert abs(eps - brute) <= scale * (n_terms + 4) * u + closed_err, spec
                assert abs(abs(eps) - 1) <= closed_err + u, spec
                pair = eps * epsilon_factor(mu.inverse())
                assert abs(pair - mu.at_minus_one().embed()) <= 2 * closed_err + 3 * u, spec
    finally:
        set_precision(old)


# The exact roots are compared over the oracle family and every character
# mod 11^3.
ROOT_FAMILY = ORACLE_FAMILY + ((11, 3),)


def _epsilon_root_mismatches(bits):
    """Specs of the characters of conductor >= 2 in ROOT_FAMILY whose exact
    epsilon_root is off the brute-force Gauss sum at ``bits`` bits.

    Error budget in u = 2^(1 - bits): gauss_sum is within u |G| + 2^(3/2 -
    bits - 32) of G, |G| = zeta(1) p^(-a/2); the scale p^(a/2) / zeta(1) is
    off by at most 2u relative and the product by u/2, so the brute force is
    within 4u + p^(a/2) 2^(-30 - bits) <= 5u of epsilon; the embedded root is
    within u of it.  The tolerance 8u leaves room; a wrong root is off by at
    least |1 - e(1/8)| > 0.7."""
    u = mpf(2) ** (1 - bits)
    bad = []
    with mp.workprec(bits):
        for p, a_max in ROOT_FAMILY:
            for mu in characters_mod(p, a_max):
                a = mu.conductor
                if a < 2:
                    continue
                x = PAdicApprox(p, -a, 1, a)
                brute = mp.power(p, mpf(a) / 2) / zeta1(p) * gauss_sum(x, mu.inverse())
                if abs(epsilon_root(mu).embed() - brute) > 8 * u:
                    bad.append(format_char(mu))
    return bad


@pytest.mark.parametrize("bits", [53, 64, 128])
def test_epsilon_root_matches_gauss_sum(bits):
    assert _epsilon_root_mismatches(bits) == []


@pytest.fixture
def fresh_epsilon_roots():
    characters.epsilon_root.cache_clear()
    yield
    characters.epsilon_root.cache_clear()
    characters.epsilon_factor.cache_clear()


@pytest.mark.parametrize("mutation", ["dropped Legendre symbol", "swapped eps_p"])
def test_epsilon_root_oracle_catches_a_planted_mutation(mutation, monkeypatch,
                                                       fresh_epsilon_roots):
    if mutation == "dropped Legendre symbol":
        monkeypatch.setattr(characters, "_legendre", lambda b, p: ONE)
    else:
        monkeypatch.setattr(characters, "_sqrt_p_phase",
                            lambda p: RootOfUnity(1, 4) if p % 4 == 1 else ONE)
    bad = _epsilon_root_mismatches(64)
    # Odd conductors >= 3 at odd p are the ones decided by the formula.
    assert bad and all(not spec.startswith("2^") for spec in bad)


def test_epsilon_root_refuses_a_sum_that_is_not_a_root_of_unity():
    # Phases linear in z sum to 0 or p, not to a root of unity times sqrt(p).
    with pytest.raises(RuntimeError):
        characters._coset_phase(5, [RootOfUnity(z, 5) for z in range(5)])
    with pytest.raises(RuntimeError):
        characters._coset_phase(3, [ONE, ONE, ONE])
    with pytest.raises(RuntimeError):
        characters._coset_phase(2, [ONE, RootOfUnity(1, 2)])
    with pytest.raises(RuntimeError):
        characters._coset_phase(5, [ONE, RootOfUnity(1, 25), ONE, ONE, ONE])


def test_epsilon_root_is_exact_from_conductor_two():
    for p, a_max in ((2, 5), (3, 4), (5, 3)):
        for mu in characters_mod(p, a_max):
            root = epsilon_root(mu)
            if mu.conductor == 1:
                assert root is None
                continue
            assert isinstance(root, RootOfUnity)
            assert root * epsilon_root(mu.inverse()) == mu.at_minus_one()
            assert epsilon_factor(mu) == root.embed()


def test_critical_unit_examples():
    chi = make_character(3, 2, [1])
    assert critical_unit(chi) % 3 == 1
    assert verify_critical_unit(chi, critical_unit(chi))
    assert critical_unit(quad3()) == 1  # r0 = 0: vacuous class
    for chi in characters_mod(5, 2):
        if chi.conductor != 2:
            continue
        v0 = critical_unit(chi)
        assert verify_critical_unit(chi, v0)
        # uniqueness of the class mod 5
        others = [v for v in range(1, 5) if v != v0 % 5]
        assert all(not verify_critical_unit(chi, v) for v in others)


def test_pair_sum_spot_values():
    # p=3, levels (r, r') = (2, 1): the pair sum has magnitude
    # zeta(1)^-1 q^(r - r'/2) = 2 sqrt(3) exactly on -1 + 3*(units) mod 9,
    # and vanishes elsewhere (including v = -1 itself).
    from padwhit.verify import pair_sum

    chi = quad3()
    mag = (1 - mpf(1) / 3) * mp.power(3, 2 - mpf(1) / 2)
    assert approx_equal(mag, 2 * mp.sqrt(3), mpf("1e-30"))
    for v in (2, 5):
        assert abs(abs(pair_sum(3, 2, chi, v)) - mag) < mpf("1e-18")
    for v in (1, 4, 7, 8):
        assert abs(pair_sum(3, 2, chi, v)) < mpf("1e-18")


def test_pair_sum_refuses_levels_without_exact_weights():
    from padwhit.verify import pair_sum

    with pytest.raises(ValueError):
        pair_sum(3, 1, make_character(3, 0, []), 1)
    with pytest.raises(ValueError):
        pair_sum(3, 2, make_character(3, 2, [1]), 1)


def test_pair_sum_follows_epsilon_perturbation():
    from padwhit.verify import pair_sum

    chi = quad3()
    plain = pair_sum(3, 2, chi, 2)
    with perturb_epsilon(1e-3):
        assert abs(pair_sum(3, 2, chi, 2) - plain) > mpf("1e-6")
    assert repr(pair_sum(3, 2, chi, 2)) == repr(plain)


def _character_table_by_evaluation(p, k):
    """The character table as it was built before indexing: one eval_unit
    per entry."""
    units = unit_group(p, k).units()
    return tuple(tuple(mu.eval_unit(v).embed() for v in units)
                 for mu in characters_mod(p, k))


@pytest.mark.parametrize("p, k", [(2, k) for k in range(6)]
                         + [(3, k) for k in range(5)]
                         + [(5, k) for k in range(5)]
                         + [(7, k) for k in range(4)])
def test_character_table_matches_evaluation(p, k):
    for bits in (64, 128):
        with mp.workprec(bits):
            units, rows, table = character_table(p, k)
            want = _character_table_by_evaluation(p, k)
            assert units == unit_group(p, k).units()
            assert rows == want
            assert np.array_equal(table, np.array(want, dtype=np.complex128))
            assert not table.flags.writeable


def test_character_table_evaluates_no_character(monkeypatch):
    def refuse(*args):
        raise AssertionError("a character table entry was evaluated one by one")

    monkeypatch.setattr(characters.UnitCharacter, "eval_unit", refuse)
    characters.character_table.cache_clear()
    units, rows, _ = character_table(5, 4)
    assert len(rows) == len(units) == 500


def test_extended_character_epsilon():
    unit = make_character(3, 1, [1])
    chi = ExtendedCharacter(unit, RootOfUnity(1, 4))
    # unramified shift: eps picks up pi-value^conductor
    assert approx_equal(chi.epsilon(), mpc(0, 1) * epsilon_factor(unit), TOL)
    assert chi.epsilon_root() is None  # conductor 1: a Gauss sum over F_3
    unram = ExtendedCharacter(make_character(3, 0, []), RootOfUnity(1, 2))
    assert approx_equal(unram.epsilon(), 1, TOL)
    assert unram.epsilon_root() == ONE
    unit = make_character(3, 3, [1])
    chi = ExtendedCharacter(unit, RootOfUnity(1, 4))
    assert chi.epsilon_root() == RootOfUnity(3, 4) * epsilon_root(unit)
    assert approx_equal(chi.epsilon(), mpc(0, -1) * epsilon_factor(unit), TOL)


def test_char_grammar_roundtrip():
    for text in ["3^2:1@0/1", "3^0:0@0/1", "2^3:1,1@1/2", "5^1:3@2/3"]:
        chi = parse_char(text)
        again = parse_char(format_char(chi))
        assert again == chi
    assert parse_char("3^1:3@0/1").unit_part == quad3()  # exponents reduce


def test_char_grammar_errors():
    with pytest.raises(ValueError):
        parse_char("3^2")
    with pytest.raises(ValueError):
        parse_char("4^1:1")  # 4 not prime
    with pytest.raises(ValueError):
        parse_char("2^3:1")  # needs two exponents
    with pytest.raises(ValueError):
        parse_char("3^1:1@1/2", p_expect=5)
    with pytest.raises(ValueError):
        parse_unit_char("3^1:1@1/2")  # nontrivial value at p


@given(st.sampled_from([2, 3, 5]), st.integers(-3, 1), st.integers(0, 40))
def test_gauss_sum_unit_scaling_covariance(p, t, seed):
    # G(u x, mu) = mu(u)^-1 G(x, mu): substitute y -> u^-1 y in the average.
    rng = random.Random(seed)
    units = unit_group(p, 3).units()
    u = rng.choice(units)
    mu = rng.choice(characters_mod(p, 2))
    x = PAdicApprox(p, t, 1, 5)
    ux = PAdicApprox(p, t, u, 5)
    lhs = gauss_sum(ux, mu)
    rhs = mu.eval_unit(u).inverse().embed() * gauss_sum(x, mu)
    assert abs(lhs - rhs) < TOL


@given(st.sampled_from([3, 5]), st.integers(0, 10**6))
def test_character_inverse_cancels(p, seed):
    rng = random.Random(seed)
    mu = rng.choice(characters_mod(p, 3))
    prod = mu * mu.inverse()
    assert prod.conductor == 0
    assert prod.is_trivial()


def test_perturbation_hook():
    base = epsilon_factor(quad3())
    with perturb_epsilon(1e-6):
        assert abs(epsilon_factor(quad3()) - base) > mpf("1e-7")
    assert approx_equal(epsilon_factor(quad3()), base, mpf("1e-30"))
