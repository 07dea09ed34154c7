import random
from fractions import Fraction

import pytest

from padwhit.numerics import RootOfUnity
from padwhit.padics import (
    PAdicApprox,
    PrecisionError,
    psi_eval,
    unit_group,
)


def test_decompose_rational_examples():
    x = PAdicApprox.from_rational(3, 12, 2)
    assert (x.t, x.unit) == (1, 4)
    x = PAdicApprox.from_rational(3, Fraction(1, 9), 2)
    assert (x.t, x.unit) == (-2, 1)
    x = PAdicApprox.from_rational(3, Fraction(-5, 3), 2)
    assert (x.t, x.unit) == (-1, 4)


def test_decompose_zero_rejected():
    with pytest.raises(ValueError):
        PAdicApprox.from_rational(3, 0, 2)


def test_psi_examples():
    assert psi_eval(PAdicApprox(3, 0, 1, 2)) == RootOfUnity(0, 1)
    assert psi_eval(PAdicApprox(3, -1, 1, 2)) == RootOfUnity(1, 3)
    assert psi_eval(PAdicApprox(3, -2, 7, 2)) == RootOfUnity(7, 9)
    assert psi_eval(PAdicApprox(3, 2, 2, 1)) == RootOfUnity(0, 1)


def test_psi_requires_precision():
    with pytest.raises(PrecisionError):
        psi_eval(PAdicApprox(3, -3, 1, 2))


def test_psi_additive():
    rng = random.Random(1)
    for _ in range(200):
        x = Fraction(rng.randint(-40, 40), 3 ** rng.randint(0, 3))
        y = Fraction(rng.randint(-40, 40), 3 ** rng.randint(0, 3))
        if x == 0 or y == 0 or x + y == 0:
            continue
        px = psi_eval(PAdicApprox.from_rational(3, x, 8))
        py = psi_eval(PAdicApprox.from_rational(3, y, 8))
        pxy = psi_eval(PAdicApprox.from_rational(3, x + y, 8))
        assert px * py == pxy


def test_unit_group_examples():
    g = unit_group(3, 2)
    assert g.generators == ((2, 6),)
    g = unit_group(2, 3)
    assert g.generators == ((7, 2), (5, 2))
    g = unit_group(5, 0)
    assert g.generators == ()
    assert g.units() == [1]


def test_unit_group_2adic_tower():
    assert unit_group(2, 1).generators == ()
    assert unit_group(2, 2).generators == ((3, 2),)
    assert unit_group(2, 4).generators == ((15, 2), (5, 4))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
def test_unit_group_roundtrip_and_size(p, a):
    g = unit_group(p, a)
    expected = p ** (a - 1) * (p - 1) if not (p == 2 and a == 1) else 1
    assert g.size == expected
    seen = set()
    for u in range(1, p**a):
        if u % p == 0:
            continue
        exps = g.dlog(u)
        assert g.from_dlog(exps) == u
        seen.add(exps)
    assert len(seen) == g.size


def test_unit_enumeration_deterministic():
    g = unit_group(3, 2)
    assert g.units() == [1, 2, 4, 8, 7, 5]
    assert g.units() == [g.from_dlog((e,)) for e in range(6)]


def test_unit_mod_precision_guard():
    x = PAdicApprox(3, 0, 4, 2)
    assert x.unit_mod(1) == 1
    assert x.unit_mod(2) == 4
    with pytest.raises(PrecisionError):
        x.unit_mod(3)
