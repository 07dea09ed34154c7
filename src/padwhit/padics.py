"""Bookkeeping for the base field Q_p.

A nonzero rational splits exactly as ``p^t * num/den`` with ``num`` and
``den`` prime to p (:func:`split_rational`); that is all the matrix route
needs.  A point of the additive character is a :class:`PAdicApprox`,
``p^t * u`` with ``u`` a unit residue modulo ``p^K``; ``psi`` of conductor
Z_p evaluates it to an exact root of unity.  Unit groups ``(Z/p^a)^x`` come
with canonical generators and a full discrete-log table, which is what
character evaluation and enumeration run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .numerics import RootOfUnity


class PrecisionError(ArithmeticError):
    """A p-adic value is not known to the accuracy an operation needs."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def split_rational(p: int, x) -> tuple[int, int, int]:
    """``(t, num, den)`` with ``x = p^t * num / den`` and ``num``, ``den``
    prime to ``p``; ``x`` is read exactly through ``Fraction(x)``."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 has no valuation")
    num, den = x.numerator, x.denominator
    t = 0
    while num % p == 0:
        num //= p
        t += 1
    while den % p == 0:
        den //= p
        t -= 1
    return t, num, den


@dataclass(frozen=True)
class PAdicApprox:
    """``p^t * unit`` with ``unit`` a unit residue modulo ``p^K``: a point at
    which ``psi`` and the Gauss transforms are evaluated.  It carries no
    arithmetic; exact values are rationals, split by :func:`split_rational`.

    ``exact_zero`` marks the additive identity; its ``t`` is meaningless.
    """

    p: int
    t: int
    unit: int
    K: int
    exact_zero: bool = False

    def __post_init__(self):
        if self.exact_zero:
            return
        if self.K < 1:
            raise PrecisionError("working exponent K must be >= 1")
        u = self.unit % self.p**self.K
        if u % self.p == 0:
            raise ValueError("unit part is divisible by p")
        object.__setattr__(self, "unit", u)

    @classmethod
    def from_rational(cls, p: int, x, K: int) -> "PAdicApprox":
        """Decompose a nonzero rational as ``p^t * u * (1 + O(p^K))``."""
        t, num, den = split_rational(p, x)
        mod = p**K
        return cls(p, t, num * pow(den, -1, mod) % mod, K)

    def valuation(self) -> int:
        if self.exact_zero:
            raise ValueError("0 has no valuation")
        return self.t

    def unit_mod(self, exponent: int) -> int:
        """The unit part modulo ``p^exponent``; errors if not known that far."""
        if self.exact_zero:
            raise ValueError("0 has no unit part")
        if exponent > self.K:
            raise PrecisionError(
                f"unit known mod p^{self.K}, requested mod p^{exponent}"
            )
        return self.unit % self.p**max(exponent, 0) if exponent > 0 else 0

    def __repr__(self):
        if self.exact_zero:
            return f"PAdicApprox(p={self.p}, 0)"
        return f"PAdicApprox(p={self.p}, {self.p}^{self.t} * {self.unit} mod p^{self.K})"


def psi_eval(x: PAdicApprox) -> RootOfUnity:
    """Additive character of conductor Z_p: ``e^{2 pi i {x}_p}``.

    Trivial on integers; for ``t < 0`` needs the unit part mod ``p^-t``.
    """
    if x.exact_zero or x.t >= 0:
        return RootOfUnity(0, 1)
    denom = x.p ** (-x.t)
    return RootOfUnity(x.unit_mod(-x.t), denom)


@dataclass(frozen=True)
class UnitGroupStructure:
    """``(Z/p^a)^x`` with canonical generators and a complete dlog table.

    Canonical generators: for odd p the least primitive root mod p^2 (which
    generates for every a >= 1); for p = 2 the pair (-1, 5) when a >= 3, the
    single -1 when a = 2, and the trivial group when a <= 1.
    """

    p: int
    a: int
    generators: tuple[tuple[int, int], ...]  # (residue mod p^a, order)
    _dlog: tuple  # numpy arrays, one per generator, indexed by residue

    @property
    def modulus(self) -> int:
        return self.p**self.a

    @property
    def size(self) -> int:
        n = 1
        for _, order in self.generators:
            n *= order
        return n

    def units(self) -> list[int]:
        """Unit residues, enumerated in dlog-lexicographic order."""
        if not self.generators:
            return [1]
        orders = [o for _, o in self.generators]
        return [self.from_dlog(exps) for exps in _exponent_tuples(orders)]

    def dlog(self, u: int) -> tuple[int, ...]:
        if not self.generators:
            return ()
        u = u % self.modulus
        if u % self.p == 0:
            raise ValueError(f"{u} is not a unit mod {self.p}^{self.a}")
        return tuple(int(arr[u]) for arr in self._dlog)

    def index(self, u: int) -> int:
        """The position of the unit ``u`` in :meth:`units`: the mixed-radix
        number of its dlog, so indices order units as their dlogs do."""
        j = 0
        for e, (_, order) in zip(self.dlog(u), self.generators):
            j = j * order + e
        return j

    def from_dlog(self, exps) -> int:
        r = 1
        for (g, order), e in zip(self.generators, exps):
            r = r * pow(g, e % order, self.modulus) % self.modulus
        return r

    def dlog_arrays(self) -> tuple:
        return self._dlog


def _exponent_tuples(orders):
    if not orders:
        yield ()
        return
    head, rest = orders[0], orders[1:]
    for e in range(head):
        for tail in _exponent_tuples(rest):
            yield (e,) + tail


@lru_cache(maxsize=None)
def least_primitive_root(p: int) -> int:
    """Least primitive root modulo p^2 for odd prime p."""
    phi = p * (p - 1)
    prime_factors = set()
    m = phi
    for d in range(2, int(math.isqrt(m)) + 1):
        while m % d == 0:
            prime_factors.add(d)
            m //= d
    if m > 1:
        prime_factors.add(m)
    mod = p * p
    for g in range(2, mod):
        if g % p == 0:
            continue
        if all(pow(g, phi // r, mod) != 1 for r in prime_factors):
            return g
    raise RuntimeError(f"no primitive root found mod {p}^2")


@lru_cache(maxsize=None)
def unit_group(p: int, a: int) -> UnitGroupStructure:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a < 0:
        a = 0
    mod = p**a
    if a == 0 or (p == 2 and a == 1):
        return UnitGroupStructure(p, a, (), ())
    if p == 2:
        if a == 2:
            gens = ((3, 2),)
        else:
            gens = ((mod - 1, 2), (5, 2 ** (a - 2)))
    else:
        g = least_primitive_root(p) % mod
        gens = ((g, p ** (a - 1) * (p - 1)),)
    tables = [np.full(mod, -1, dtype=np.int64) for _ in gens]
    # Walk the full group once; every unit appears exactly once.
    orders = [o for _, o in gens]
    for exps in _exponent_tuples(orders):
        r = 1
        for (g, _), e in zip(gens, exps):
            r = r * pow(g, e, mod) % mod
        for arr, e in zip(tables, exps):
            if arr[r] != -1:
                raise RuntimeError("generator orders do not multiply out the group")
            arr[r] = e
    for arr, (g, order) in zip(tables, gens):
        assert pow(g, order, mod) == 1
    return UnitGroupStructure(p, a, gens, tuple(tables))
