from padwhit import engine
from padwhit.characters import make_character
from padwhit.numerics import perturb_epsilon
from padwhit.representations import PrincipalSeries, standard_family
from padwhit.characters import ExtendedCharacter
from padwhit.verify import (
    check_atkin_lehner,
    check_dual_tables,
    check_epsilon_alignment,
    check_epsilon_properties,
    check_gauss_closed_form,
    check_main_theorem,
    check_normalization,
    check_pair_sum_dichotomy,
    check_parseval,
    check_representation,
    check_supercuspidal_structure,
    check_support,
    manifest,
    run_suite,
    synthetic_oracle,
)


def test_gl1_checks_pass():
    assert check_gauss_closed_form((2, 3), 2).passed
    assert check_epsilon_properties((2, 3, 5), 2).passed
    assert check_epsilon_alignment((2, 3)).passed
    assert check_pair_sum_dichotomy((2, 3)).passed


def test_representation_checks_pass():
    from padwhit.verify import check_closed_forms, check_diagonal_and_reduction

    rep = PrincipalSeries(
        ExtendedCharacter(make_character(3, 2, [1])),
        ExtendedCharacter(make_character(3, 1, [1])),
    )
    for check in (check_normalization, check_support, check_dual_tables,
                  check_parseval, check_closed_forms,
                  check_diagonal_and_reduction):
        report = check(rep)
        assert report.passed, report.as_dict()
    assert check_atkin_lehner(rep, count=20).passed
    assert check_representation(rep).passed


def test_representation_check_supercuspidal_structural_subset():
    # The aggregate runs the structural subset on an oracle-backed descriptor
    # and passes; the genuine-representation identities are excluded because
    # a synthetic oracle does not encode them.
    sc = synthetic_oracle(3, 3, seed=2)
    report = check_representation(sc)
    assert report.passed, report.as_dict()
    assert not check_normalization(sc).passed  # direct level-n solve: genuine-only


def _clear_engine_caches():
    for obj in vars(engine).values():
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()


def test_dual_tables_catch_a_wrong_contragredient(monkeypatch):
    # A contragredient that forgets to invert chi2 (of order 4 here) breaks
    # c~[t,k](nu) = omega(-1) nu(-1) conj(c[t,k](nu^-1)).
    rep = PrincipalSeries(
        ExtendedCharacter(make_character(5, 2, [1])),
        ExtendedCharacter(make_character(5, 1, [1])),
    )
    assert check_dual_tables(rep).passed
    monkeypatch.setattr(PrincipalSeries, "contragredient",
                        lambda self: PrincipalSeries(self.chi1.inverse(), self.chi2))
    _clear_engine_caches()
    try:
        report = check_dual_tables(rep)
    finally:
        monkeypatch.undo()
        _clear_engine_caches()
    assert not report.passed
    assert check_dual_tables(rep).passed


def test_main_theorem_check_passes():
    family = standard_family(3, 2) + standard_family(5, 1)
    report = check_main_theorem(family)
    assert report.passed, report.as_dict()
    assert report.cases >= 2 * len(family)


def test_supercuspidal_structure_passes():
    oracle = synthetic_oracle(3, 2, make_character(3, 1, [1]), seed=5)
    report = check_supercuspidal_structure(oracle)
    assert report.passed, report.as_dict()


def test_suite_determinism():
    r1 = run_suite(p_list=(3,), a_max=2, nmax=1)
    r2 = run_suite(p_list=(3,), a_max=2, nmax=1)
    assert manifest(r1) == manifest(r2)
    assert all(r.passed for r in r1)


def test_manifest_covers_expected_checks():
    reports = run_suite(p_list=(3,), a_max=2, nmax=1)
    ids = {r.check_id for r in reports}
    assert {
        "gauss-closed-form",
        "epsilon-unitarity-duality",
        "epsilon-shift-alignment",
        "epsilon-pair-sum-dichotomy",
        "representation-all",
        "supercuspidal-structure",
        "supnorm-sandwich",
    } <= ids
    for entry in manifest(reports):
        assert entry["statement"]
        assert entry["cases"] > 0


def test_perturbation_canary_detected():
    # An injected epsilon error must flip the harness to fail.
    with perturb_epsilon(1e-6):
        report = check_epsilon_properties((3,), 2)
    assert not report.passed
    report = check_epsilon_properties((3,), 2)
    assert report.passed
