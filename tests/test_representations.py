import json
import pickle
import random

import pytest
from mpmath import mp, mpc, mpf

from padwhit.characters import (
    ExtendedCharacter,
    characters_mod,
    epsilon_factor,
    format_char,
    make_character,
)
from padwhit.numerics import ONE, MINUS_ONE, RootOfUnity, approx_equal, get_precision, set_precision
from padwhit.representations import (
    PrincipalSeries,
    SteinbergTwist,
    dump_oracle,
    load_oracle,
    principal_series_family,
    standard_family,
    steinberg_family,
    trivial_character,
)
from padwhit.verify import synthetic_oracle

TOL = mpf("1e-20")


def ext(p, a, exps, piv=ONE):
    return ExtendedCharacter(make_character(p, a, exps), piv)


def quad_ps():
    return PrincipalSeries(ext(3, 1, [1]), ext(3, 0, []))


def test_make_rep_examples():
    rep = quad_ps()
    assert (rep.n, rep.m) == (1, 1)
    st = SteinbergTwist(ext(3, 0, []))
    assert (st.n, st.m) == (1, 0)
    sc = synthetic_oracle(3, 2, make_character(3, 1, [1]))
    assert (sc.n, sc.m) == (2, 1)


def test_make_rep_rejections():
    # central character must be trivial at the uniformizer
    with pytest.raises(ValueError):
        PrincipalSeries(ext(3, 1, [1], RootOfUnity(1, 3)), ext(3, 0, []))
    # spherical rejected
    with pytest.raises(ValueError):
        PrincipalSeries(ext(3, 0, []), ext(3, 0, []))
    # Steinberg pi-value must square to one
    with pytest.raises(ValueError):
        SteinbergTwist(ext(3, 1, [1], RootOfUnity(1, 3)))
    # supercuspidal central character bound
    with pytest.raises(ValueError):
        synthetic_oracle(3, 2, make_character(3, 2, [1]))


def test_tunnell_contrapositive_on_families():
    for p in (2, 3, 5):
        for rep in standard_family(p, 3):
            assert rep.m <= rep.n
            if 2 * rep.m > rep.n:
                assert isinstance(rep, PrincipalSeries)


def test_principal_series_canonical_order():
    rep = PrincipalSeries(ext(3, 0, []), ext(3, 2, [1]))
    assert rep.chi1.conductor == 2
    assert rep.n == 2


def test_twist_data_steinberg_trivial():
    st = SteinbergTwist(ext(5, 0, []))
    td = st.twist_data(trivial_character(5))
    assert td.A == 1
    assert approx_equal(td.eps, -1, TOL)
    assert len(td.l_num) == 1 and len(td.l_den) == 1
    assert approx_equal(td.l_num[0].embed(), 1 / mp.sqrt(5), TOL)
    # sign twist flips the epsilon factor
    st2 = SteinbergTwist(ext(5, 0, [], MINUS_ONE))
    assert approx_equal(st2.twist_data(trivial_character(5)).eps, 1, TOL)


def test_twist_data_ps_example():
    rep = quad_ps()
    td = rep.twist_data(trivial_character(3))
    assert td.A == 1
    assert approx_equal(td.eps, epsilon_factor(make_character(3, 1, [1])), TOL)
    assert len(td.l_num) == 1  # unramified chi2 contributes one Satake entry
    assert approx_equal(td.l_num[0].embed(), 1, TOL)


def test_twist_data_conductor_arithmetic():
    # A = a(mu chi1) + a(mu chi2) against direct conductor products.
    for p in (3, 5):
        chi1 = make_character(p, 2, [1])
        chi2 = make_character(p, 1, [1])
        rep = PrincipalSeries(ExtendedCharacter(chi1), ExtendedCharacter(chi2))
        for mu in characters_mod(p, 3):
            td = rep.twist_data(mu)
            want = (mu * chi1).conductor + (mu * chi2).conductor
            assert td.A == want
            assert abs(abs(td.eps) - 1) < TOL


def test_twist_data_steinberg_ramified():
    xi = ext(3, 1, [1])
    st = SteinbergTwist(xi)
    assert st.n == 2
    td = st.twist_data(trivial_character(3))
    assert td.A == 2
    e = epsilon_factor(xi.unit_part)
    assert approx_equal(td.eps, e * e, TOL)
    assert td.l_num == () and td.l_den == ()
    # twisting by the inverse character makes it unramified again
    td2 = st.twist_data(xi.unit_part.inverse())
    assert td2.A == 1
    assert approx_equal(td2.eps, -1, TOL)


def test_supercuspidal_oracle_passthrough_and_errors():
    sc = synthetic_oracle(3, 2, seed=4)
    mu = characters_mod(3, 2)[1]
    td = sc.twist_data(mu)
    table = {m: (A, e) for m, A, e in sc.twists}
    assert (td.A, td.eps) == (table[mu][0], mpc(table[mu][1]))
    with pytest.raises(KeyError):
        sc.twist_data(characters_mod(3, 3)[-1])  # conductor 3 not in oracle


def test_contragredient_involution_and_invariants():
    reps = [
        quad_ps(),
        PrincipalSeries(ext(3, 2, [1]), ext(3, 1, [1])),
        SteinbergTwist(ext(3, 1, [1])),
        SteinbergTwist(ext(5, 0, [], MINUS_ONE)),
        synthetic_oracle(3, 2, make_character(3, 1, [1]), seed=6),
    ]
    for rep in reps:
        dual = rep.contragredient()
        assert (dual.n, dual.m) == (rep.n, rep.m)
        assert dual.contragredient() == rep
    st = SteinbergTwist(ext(5, 0, []))
    assert st.contragredient() == st  # self-dual


def test_contragredient_sc_rekey():
    omega = make_character(3, 1, [1])
    sc = synthetic_oracle(3, 2, omega, seed=8)
    dual = sc.contragredient()
    omega_inv = omega.inverse()
    table = {m: (A, e) for m, A, e in sc.twists}
    for mu, A, eps in dual.twists:
        want = table[mu * omega_inv]
        assert (A, eps) == want


def test_diagonal_values_examples():
    st = SteinbergTwist(ext(3, 0, []))
    assert approx_equal(st.diagonal_value(2), mpf(1) / 9, TOL)
    assert approx_equal(st.diagonal_value(-1), 0, TOL)
    rep = quad_ps()
    assert approx_equal(rep.diagonal_value(-1), 0, TOL)
    assert approx_equal(rep.diagonal_value(1), 1 / mp.sqrt(3), TOL)
    assert approx_equal(rep.diagonal_value(1, v=2), -1 / mp.sqrt(3), TOL)
    two_ram = PrincipalSeries(ext(3, 1, [1]), ext(3, 1, [1]))
    assert approx_equal(two_ram.diagonal_value(0, v=2), two_ram.omega.eval_unit(2).embed(), TOL)
    assert approx_equal(two_ram.diagonal_value(0, v=2, conjugate=True), 1, TOL)
    assert approx_equal(two_ram.diagonal_value(1), 0, TOL)


def test_diagonal_conjugate_branch_matches_contragredient():
    # The conjugate branch carries no unit dependence; the contragredient's
    # diagonal differs from it exactly by its central character at v.
    piv = RootOfUnity(1, 8)
    rep = PrincipalSeries(ext(5, 2, [1], piv), ext(5, 0, [], piv.inverse()))
    dual = rep.contragredient()
    for t in range(-1, 4):
        for v in (1, 2, 3):
            got = rep.diagonal_value(t, v, conjugate=True)
            want = dual.diagonal_value(t, v)
            assert approx_equal(got * dual.omega.eval_unit(v).embed(), want, TOL)


def test_oracle_json_roundtrip(tmp_path):
    old = get_precision()
    try:
        for bits in (53, 64, 128):
            set_precision(bits)
            sc = synthetic_oracle(5, 2, make_character(5, 1, [1]), seed=2)
            path = tmp_path / f"oracle{bits}.json"
            path.write_text(json.dumps(dump_oracle(sc)))
            loaded = load_oracle(str(path))
            assert loaded.n == sc.n and loaded.omega == sc.omega
            assert loaded.twists == sc.twists, bits  # bit for bit
    finally:
        set_precision(old)


def test_oracle_loads_float_files():
    # Files written with eps as two JSON numbers still load.
    sc = synthetic_oracle(5, 2, make_character(5, 1, [1]), seed=2)
    doc = dump_oracle(sc)
    for entry in doc["twists"]:
        entry["eps"] = [float(x) for x in entry["eps"]]
    loaded = load_oracle(json.loads(json.dumps(doc)))
    for (mu, A, eps), (mu2, A2, eps2) in zip(loaded.twists, sc.twists):
        assert (mu, A) == (mu2, A2)
        assert abs(eps - eps2) < mpf("1e-15")


def test_oracle_validation_errors():
    sc = synthetic_oracle(3, 2, seed=2)
    doc = dump_oracle(sc)
    bad = dict(doc)
    bad["twists"] = doc["twists"][:-1]  # drop a key
    with pytest.raises(ValueError):
        load_oracle(bad)
    bad = dict(doc)
    bad["twists"] = [dict(t) for t in doc["twists"]]
    bad["twists"][0]["eps"] = [2.0, 0.0]  # not unit modulus
    with pytest.raises(ValueError):
        load_oracle(bad)


def test_oracle_duality_pairing_is_checked():
    # eps(mu) eps(mu^-1 omega^-1) = omega(-1) at every twist.  A p = 3,
    # n = 3 table with independent random phases breaks it and is refused,
    # naming a twist; synthetic oracles and their dumps are accepted.
    rng = random.Random(4)
    doc = {"p": 3, "n": 3, "omega": "3^0:0", "twists": []}
    for mu in characters_mod(3, 3):
        phase = mp.expjpi(mpf(2 * rng.randrange(840)) / 840)
        doc["twists"].append({"mu": format_char(mu), "a_mu_pi": max(3, 2 * mu.conductor),
                              "eps": [str(phase.real), str(phase.imag)]})
    with pytest.raises(ValueError, match=r"oracle epsilon at 3\^.* breaks the duality"):
        load_oracle(doc)
    for p, n, m, seed in ((3, 3, 0, 4), (3, 2, 1, 6), (5, 2, 1, 2), (2, 4, 2, 5), (3, 4, 2, 5)):
        omega = next(mu for mu in characters_mod(p, m) if mu.conductor == m)
        sc = synthetic_oracle(p, n, omega, seed=seed)
        loaded = load_oracle(json.loads(json.dumps(dump_oracle(sc))))
        assert loaded.twists == sc.twists


def test_families_deterministic_and_sized():
    fam1 = standard_family(3, 2)
    fam2 = standard_family(3, 2)
    assert [r.spec_string() for r in fam1] == [r.spec_string() for r in fam2]
    # p=3: conductor-1 pool has 1 character, conductor-2 pool has 4.
    ps = principal_series_family(3, 2, 1)
    a_counts = {}
    for rep in ps:
        key = (rep.chi1.conductor, rep.chi2.conductor)
        a_counts[key] = a_counts.get(key, 0) + 1
    assert a_counts == {(1, 0): 1, (2, 0): 4, (1, 1): 1, (2, 1): 4}
    st = steinberg_family(3, 1)
    assert len(st) == 4  # (trivial, quad) x (+1, -1)
    assert all(2 * r.m <= r.n for r in st)


def _standard_family_by_filtering(p, nmax, kinds="all"):
    """standard_family as it was built before: principal_series_family for
    every a1, keeping conductor a1 and n <= nmax."""
    out = []
    if kinds in ("ps", "all"):
        for a1 in range(1, nmax + 1):
            for rep in principal_series_family(p, a1, min(a1, nmax - a1)):
                if rep.chi1.conductor == a1 and rep.n <= nmax:
                    out.append(rep)
    if kinds in ("steinberg", "all"):
        for rep in steinberg_family(p, nmax // 2):
            if rep.n <= nmax:
                out.append(rep)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_standard_family_matches_the_filtered_construction(p):
    # Same members in the same order: stratified samples of the family
    # depend on it.  p = 7, nmax = 6 (278,564 descriptors) is left out for
    # time.
    for nmax in range(-1, 7 if p < 7 else 6):
        for kinds in ("ps", "steinberg", "all"):
            assert (standard_family(p, nmax, kinds)
                    == _standard_family_by_filtering(p, nmax, kinds)), (nmax, kinds)


def test_omega_and_oracle_table_are_built_once():
    ps = PrincipalSeries(ext(3, 2, [1]), ext(3, 1, [1]))
    st = SteinbergTwist(ext(3, 1, [1]))
    for rep in (ps, st):
        assert rep.omega is rep.omega
        # n is computed once and then read off the instance.
        assert rep.n == vars(rep)["n"] == (2 if rep is st else 3)
        # The cached value travels with a pickled descriptor and does not
        # enter equality or hashing.
        clone = pickle.loads(pickle.dumps(rep))
        assert clone == rep and hash(clone) == hash(rep)
        assert clone.omega == rep.omega
    # No factor of an exact 1 enters an epsilon factor, and two roots of
    # unity are multiplied before they are embedded.
    for mu in characters_mod(3, 2):
        tw1, tw2 = ps.chi1.twist(mu), ps.chi2.twist(mu)
        td = ps.twist_data(mu)
        if 1 in (tw1.conductor, tw2.conductor):
            assert td.root is None
            assert td.eps == tw1.epsilon() * tw2.epsilon()
        else:
            assert td.root == tw1.epsilon_root() * tw2.epsilon_root()
            assert td.eps == td.root.embed()
    chi = ext(3, 2, [1], RootOfUnity(1, 2))  # pi^2 = 1 exactly
    assert chi.epsilon() == epsilon_factor(chi.unit_part)
    chi = ext(3, 1, [1], RootOfUnity(1, 2))
    assert chi.epsilon() == RootOfUnity(1, 2).embed() * epsilon_factor(chi.unit_part)
    sc = synthetic_oracle(3, 2, seed=2)
    assert sc._table is sc._table
    mu = characters_mod(3, 2)[1]
    assert sc.twist_data(mu).eps == dict((m, e) for m, _, e in sc.twists)[mu]
