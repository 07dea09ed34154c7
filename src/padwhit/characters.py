"""Characters of Q_p^x, Gauss sums, conductors, and GL(1) epsilon factors.

A :class:`UnitCharacter` is a character of Q_p^x that is trivial at the
uniformizer, stored as an exponent vector over the canonical generators of
``(Z/p^a)^x`` at its exact conductor ``a``.  :func:`make_character` reads
that conductor off the p-adic valuation of the exponent on the generator of
the ``1 + pZ_p`` factor, and ``chi(-1)`` is ``(-1)^exps[0]``, so neither
evaluates a character.  An :class:`ExtendedCharacter`
adds an exact root-of-unity value at the uniformizer.  Character values stay
exact until a final embedding, so Gauss sums of thousands of terms carry no
phase drift.  :func:`character_table` holds every character of level ``k``
at every unit, each entry a root of unity found by index from the exponent
vectors; value synthesis and the epsilon pair sums read it.  A twist
``chi * mu`` is read the same way by :func:`twisted`: both exponent vectors
are lifted to the larger conductor and added, and the sum indexes
:func:`characters_mod` there, so the column solve's twist data evaluate no
character.  ``UnitCharacter.__mul__`` and ``ExtendedCharacter.twist``
evaluate the product at the generators, and only the product; they are the
independent route that ``verify`` and the tests check the index against.

Gauss sums are unit-group averages (``vol((Z/p^a)^x) = 1``).  The epsilon
factor of a character ``mu`` of conductor ``a >= 1`` is, up to the scale
``zeta(1) q^(-a/2)``, the Gauss sum of ``nu = mu^-1`` at valuation ``-a``,
but it is never summed over all ``phi(p^a)`` units.  With ``c = floor(a/2)``,
every unit is ``y = y0 (1 + p^(a-c) z)`` with ``y0`` a unit mod ``p^(a-c)``
and ``z`` mod ``p^c``, and since ``2(a - c) >= a``, ``z -> nu(1 + p^(a-c) z)``
is the additive character ``e(beta z / p^c)``, ``nu(1 + p^(a-c)) =
e(beta / p^c)``.  The sum over ``z`` of ``e((y0 + beta) z / p^c)`` vanishes
unless ``y0 = -beta (mod p^c)``, so only that coset survives (the
stationary phase of Iwaniec-Kowalski, *Analytic Number Theory*, Lemmas
12.2-12.3), and ``epsilon(1/2, mu) = p^(c - a/2) sum nu(y) e(y / p^a)`` over
its units ``y mod p^(a-c)``, each term an exact root of unity.  For
``a >= 2`` that sum is itself a root of unity, decided in integers by
:func:`epsilon_root`:

* even ``a``: the coset is the single unit ``y0``, and ``p^(c - a/2) = 1``;
* odd ``a >= 3`` and odd ``p``: the ``p`` terms at ``y = y0 + p^c z`` are
  ``r0 e(k_z / p)``, with ``k_z = A z + B z^2 (mod p)`` and ``B != 0``
  (second-order stationary phase; checked on the integers ``k_z``, and
  automatic at ``p = 3``, where any three values are a quadratic).
  Completing the square, ``sum_z e((A z + B z^2) / p) = e(-A^2 (4B)^-1 / p)
  (B/p) eps_p sqrt(p)``, with the Legendre symbol ``(B/p)`` and the sign of
  the quadratic Gauss sum ``eps_p = 1`` for ``p = 1 (mod 4)``, ``i`` for
  ``p = 3 (mod 4)`` (Ireland-Rosen, ch. 6).  So ``epsilon = r0
  e(-A^2 (4B)^-1 / p) (B/p) eps_p``;
* odd ``a >= 3`` and ``p = 2``: the two terms are ``r0`` and ``r0 i^(+-1)``,
  and ``1 +- i = sqrt(2) e(+-1/8)``, so ``epsilon = r0 e(+-1/8)``.

Any other pattern of phases raises ``RuntimeError``.  Only conductor 1
keeps a numeric sum: ``epsilon = p^(-1/2) sum nu(y) e(y/p)`` over the
``p - 1`` units is a normalized Gauss sum over ``F_p``, a root of unity
only for the quadratic character, and is embedded term by term at working
precision; every twist that involves it (``TwistData.root`` is None) takes
the ``mpc`` path of the column solve.  The brute-force :func:`gauss_sum`
stays as the independent oracle that the tests and ``verify`` compare
against.  Epsilon factors are cached, since sup-norm scans reuse thousands
of them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from mpmath import mpc, mpf

from .numerics import (
    MINUS_ONE,
    ONE,
    RootOfUnity,
    perturbed,
    q_power,
    unity_sum,
    unity_table,
    working_cache,
)
from .padics import PAdicApprox, _exponent_tuples, unit_group


@dataclass(frozen=True)
class UnitCharacter:
    """Character of Q_p^x with value 1 at p, of exact conductor ``conductor``.

    ``exps[i]`` is the exponent on the i-th canonical generator ``g_i`` of
    ``(Z/p^conductor)^x``: the character sends ``g_i`` to ``zeta_{ord(g_i)}^{exps[i]}``.
    """

    p: int
    conductor: int
    exps: tuple[int, ...]

    def __post_init__(self):
        group = unit_group(self.p, self.conductor)
        if len(self.exps) != len(group.generators):
            raise ValueError("exponent vector does not match the generator list")
        reduced = tuple(e % order for e, (_, order) in zip(self.exps, group.generators))
        object.__setattr__(self, "exps", reduced)

    @property
    def group(self):
        return unit_group(self.p, self.conductor)

    def is_trivial(self) -> bool:
        return self.conductor == 0

    def eval_unit(self, u: int) -> RootOfUnity:
        """Value at a unit residue (known at least mod p^conductor)."""
        if self.conductor == 0:
            return ONE
        group = self.group
        num, den = 0, 1
        for e, exp_dl, (_, order) in zip(self.exps, group.dlog(u), group.generators):
            num = num * order + e * exp_dl * den
            den *= order
        return RootOfUnity(num, den)

    def at_minus_one(self) -> RootOfUnity:
        """``chi(-1) = (-1)^exps[0]``: -1 is ``g^(phi/2)`` for odd p and the
        first generator at p = 2."""
        return MINUS_ONE if self.exps and self.exps[0] % 2 else ONE

    def __mul__(self, other: "UnitCharacter") -> "UnitCharacter":
        if self.p != other.p:
            raise ValueError("mixed residue characteristics")
        level = max(self.conductor, other.conductor)
        gens = unit_group(self.p, level).generators
        exps = []
        for g, order in gens:
            val = self.eval_unit(g) * other.eval_unit(g)
            e = val.num * order
            if e % val.order:
                raise RuntimeError("character value has wrong order at generator")
            exps.append(e // val.order)
        return make_character(self.p, level, exps)

    def inverse(self) -> "UnitCharacter":
        return UnitCharacter(self.p, self.conductor, tuple(-e for e in self.exps))

    def __repr__(self):
        return f"UnitCharacter({format_char(self)!r})"


def make_character(p: int, level: int, exps) -> UnitCharacter:
    """Character of (Z/p^level)^x by generator exponents, stored at its exact
    conductor (the input level is only an upper bound).

    The conductor is read off the exponent ``e`` on the last generator, whose
    cyclic factor holds ``1 + pZ_p``: the primitive root for odd p, 5 at
    p = 2 from level 3.  For ``c >= 1`` (``c >= 2`` at p = 2) the image of
    ``1 + p^c Z_p`` mod ``p^a`` is that factor's subgroup of order
    ``p^(a-c)``, on whose generator the character is ``e(e / p^(a-c))``.  So
    it is trivial there exactly when ``p^(a-c)`` divides ``e``: the conductor
    is ``a - v_p(e)``, and the exponent at that level is ``e / p^v_p(e)``
    (Ireland-Rosen, ch. 4).  At p = 2 a character with ``e = 0`` factors
    through ``(Z/4)^x``, generated by -1.  No character is evaluated.
    """
    exps = tuple(int(e) for e in exps)
    if not unit_group(p, level).generators and exps in ((), (0,)):
        exps = ()
    exps = UnitCharacter(p, level, exps).exps  # checked and reduced
    if len(exps) == 2 and exps[1] == 0:
        level, exps = 2, exps[:1]
    e = exps[-1] if exps else 0
    if e == 0:
        return UnitCharacter(p, 0, ())
    shift = 0
    while e % p == 0:
        e //= p
        shift += 1
    return UnitCharacter(p, level - shift, exps[:-1] + (e,))


@lru_cache(maxsize=None)
def characters_mod(p: int, k: int) -> tuple[UnitCharacter, ...]:
    """All characters of (Z/p^k)^x, in lexicographic exponent order."""
    orders = [order for _, order in unit_group(p, k).generators]
    return tuple(make_character(p, k, exps) for exps in _exponent_tuples(orders))


def _lifted_exps(chi: UnitCharacter, level: int) -> tuple[int, ...]:
    """The exponent vector of ``chi`` on the generators of level
    ``level >= cond(chi)``.  Each level's generators reduce to the lower
    level's, so an exponent on a cyclic factor of order ``ord`` becomes
    ``e * ord_level / ord``; at p = 2 the level-2 generator ``3 = -1 (mod 4)``
    lifts to ``-1`` and leaves ``5 = 1 (mod 4)`` trivial."""
    a, exps = chi.conductor, chi.exps
    if a == level:
        return exps
    if not exps:
        return (0,) * len(unit_group(chi.p, level).generators)
    if chi.p == 2:
        return (exps[0], 0) if a == 2 else (exps[0], exps[1] << (level - a))
    return (exps[0] * chi.p ** (level - a),)


def twisted(chi: UnitCharacter, mu: UnitCharacter) -> UnitCharacter:
    """``chi * mu``, read by index from :func:`characters_mod` at the level
    ``L = max(cond chi, cond mu)``: both exponent vectors lifted to level
    ``L`` are added modulo the generator orders, and the sum's mixed-radix
    number is its position in that lexicographic list.  No character is
    evaluated and no conductor searched; ``UnitCharacter.__mul__`` computes
    the same character by evaluation."""
    if chi.p != mu.p:
        raise ValueError("mixed residue characteristics")
    level = max(chi.conductor, mu.conductor)
    j = 0
    for e, f, (_, order) in zip(_lifted_exps(chi, level), _lifted_exps(mu, level),
                                unit_group(chi.p, level).generators):
        j = j * order + (e + f) % order
    return characters_mod(chi.p, level)[j]


@lru_cache(maxsize=None)
def level_constants(p: int, level: int):
    """``(cond, eps, N)`` over ``characters_mod(p, level)``: the conductors,
    and the epsilon factors as exact roots ``e(eps[j] / N)``, with
    ``eps[j] = -1`` at conductor 1, where :func:`epsilon_root` has none."""
    chars = characters_mod(p, level)
    roots = [epsilon_root(mu) for mu in chars]
    n = math.lcm(*(r.order for r in roots if r is not None))
    eps = [-1 if r is None else r.num * (n // r.order) for r in roots]
    cond = [mu.conductor for mu in chars]
    return np.array(cond, dtype=np.int64), np.array(eps, dtype=np.int64), n


# Bounded: a scan reuses a character's tables only over nearby descriptors,
# and at p = 7, n <= 4 unbounded tables held 7 MB more peak memory.
@lru_cache(maxsize=1024)
def twist_table(chi: "ExtendedCharacter", k: int) -> tuple:
    """``(level, index, cond, root, order)`` for the twists of ``chi`` by
    every ``mu_i`` of ``characters_mod(p, k)``, each found as :func:`twisted`
    finds one, by the mixed-radix sum of the exponents lifted to ``level =
    max(cond chi, k)``: ``chi mu_i`` has the unit part
    ``characters_mod(p, level)[index[i]]``, conductor ``cond[i]`` and
    epsilon factor ``e(root[i] / order)``, read off
    :func:`level_constants`; ``root[i]`` is -1 at conductor 1."""
    pi, level = chi.pi_value, max(chi.conductor, k)
    orders = [order for _, order in unit_group(chi.p, level).generators]
    radix = [math.prod(orders[g + 1:]) for g in range(len(orders))]
    chars = characters_mod(chi.p, k)
    exps = np.array([_lifted_exps(mu, level) for mu in chars],
                    dtype=np.int64).reshape(len(chars), len(orders))
    exps += np.array(_lifted_exps(chi.unit_part, level), dtype=np.int64)
    index = exps % np.array(orders, dtype=np.int64) @ np.array(radix, dtype=np.int64)
    cond, eps, n = level_constants(chi.p, level)
    cond, eps, order = cond[index], eps[index], math.lcm(n, pi.order)
    # ExtendedCharacter.epsilon_root: chi(p)^cond times the unit part's.
    root = (eps * (order // n) + cond * (pi.num * (order // pi.order))) % order
    return level, index.tolist(), cond.tolist(), np.where(eps < 0, -1, root).tolist(), order


def character_phases(p: int, k: int):
    """``(n, index)``: ``characters_mod(p, k)[i]`` takes the value
    ``e(index[i, j] / n)`` at ``unit_group(p, k).units()[j]``."""
    # Characters and units are both listed by their level-k exponent tuples,
    # e and j, in lexicographic order.  With N the lcm of the generator
    # orders, the character e takes the value e(sum_g e_g j_g / ord(g)) at
    # the unit j: the N-th root of unity of index sum_g e_g j_g N/ord(g).
    group = unit_group(p, k)
    orders = [order for _, order in group.generators]
    n = math.lcm(*orders)
    grid = np.array(list(_exponent_tuples(orders)),
                    dtype=np.int64).reshape(group.size, len(orders))
    return n, (grid * (n // np.array(orders, dtype=np.int64))) % n @ grid.T % n


@working_cache(maxsize=None)
def character_table(p: int, k: int):
    """``(units, rows, table)`` of ``(Z/p^k)^x`` at working precision:
    ``units`` is :meth:`UnitGroupStructure.units`, ``rows[i][j]`` the
    embedded value of ``characters_mod(p, k)[i]`` at ``units[j]`` and
    ``table`` the same matrix in complex128 (read-only)."""
    group = unit_group(p, k)
    n, index = character_phases(p, k)
    roots = unity_table(n)
    rows = tuple(tuple(roots[x] for x in row) for row in index.tolist())
    table = np.array([complex(z) for z in roots], dtype=np.complex128)[index]
    table.flags.writeable = False
    return group.units(), rows, table


@lru_cache(maxsize=None)
def _units_array(p: int, M: int) -> np.ndarray:
    mod = p**M
    r = np.arange(mod, dtype=np.int64)
    return r[(r % p) != 0] if M >= 1 else np.array([1], dtype=np.int64)


def _char_phase_data(mu: UnitCharacter):
    """(denominator d, numer array over residues mod p^conductor) for mu."""
    if mu.conductor == 0:
        return 1, None
    group = mu.group
    d = 1
    for _, order in group.generators:
        d = math.lcm(d, order)
    nums = np.zeros(mu.p**mu.conductor, dtype=np.int64)
    for e, arr, (_, order) in zip(mu.exps, group.dlog_arrays(), group.generators):
        nums = (nums + e * np.where(arr >= 0, arr, 0) * (d // order)) % d
    return d, nums


def gauss_sum(x: PAdicApprox, mu: UnitCharacter) -> mpc:
    """Unit-average Gauss transform: mean of psi(x*y)*mu(y) over y in (Z/p^M)^x,
    M = max(cond(mu), -v(x), 1), summed by brute force over every unit.

    Each term is an exact phase; their histogram is summed against a
    fixed-point root table by :func:`unity_sum`, and the mean is within
    ``2^(1 - prec) |G| + 2^(3/2 - prec - 32)`` of the exact value ``G``: the
    sum's bound divided by the ``phi(p^M)`` terms, plus one rounding of the
    division."""
    p = mu.p
    if x.exact_zero:
        return mpc(1 if mu.is_trivial() else 0)
    t = x.valuation()
    M = max(mu.conductor, -t, 1)
    ys = _units_array(p, M)
    if t < 0:
        d1 = p**-t
        nums1 = (x.unit_mod(-t) * ys) % d1
    else:
        d1, nums1 = 1, 0
    d2, mu_nums = _char_phase_data(mu)
    if mu_nums is None:
        nums2 = 0
    else:
        nums2 = mu_nums[ys % (p**mu.conductor)]
    L = math.lcm(d1, d2)
    if L == 1:
        return mpc(1)
    # L > 1: x has negative valuation or mu is ramified, so an array.
    joint = (nums1 * (L // d1) + nums2 * (L // d2)) % L
    return unity_sum(np.asarray(joint, dtype=np.int64), L) / len(ys)


def zeta1(p: int) -> mpf:
    """The local zeta value ``zeta(1) = p / (p - 1)``, a fraction in lowest
    terms, at the working precision."""
    return mpf(p) / (p - 1)


def zeta1_q_power(p: int, a: int) -> mpf:
    """``zeta(1) q^(-a/2)``, the scale of a Gauss transform at valuation
    ``-a``, at the working precision."""
    return zeta1(p) * q_power(p, a)


def gauss_sum_closed(x: PAdicApprox, mu: UnitCharacter) -> mpc:
    """The five-case closed form of the unit-average Gauss transform."""
    p = mu.p
    if x.exact_zero:
        return mpc(1 if mu.is_trivial() else 0)
    t = x.valuation()
    if mu.is_trivial():
        if t >= 0:
            return mpc(1)
        if t == -1:
            return mpc(-zeta1(p) / p)
        return mpc(0)
    a = mu.conductor
    if t != -a:
        return mpc(0)
    mu_inv_at_x = mu.eval_unit(x.unit_mod(a)).inverse()
    return zeta1_q_power(p, a) * epsilon_factor(mu.inverse()) * mu_inv_at_x.embed()


def _stationary_terms(mu: UnitCharacter) -> list:
    """The exact terms ``nu(y) e(y / p^a)``, ``nu = mu^-1``, over the units
    ``y mod p^(a-c)`` with ``y = -beta (mod p^c)``, in increasing ``y``: the
    unit ``y0`` for even ``a``, ``y0 + p^c z`` for ``z < p`` at odd
    ``a >= 3``, the ``p - 1`` units at ``a = 1``."""
    p, a = mu.p, mu.conductor
    nu = mu.inverse()
    beta, c = _critical_phase(nu)
    step, mod = p**c, p**a
    return [nu.eval_unit(y) * RootOfUnity(y, mod)
            for y in range(-beta % step, p ** (a - c), step) if y % p]


def _legendre(b: int, p: int) -> RootOfUnity:
    """The Legendre symbol ``(b/p)`` of a unit ``b``, as the root 1 or -1."""
    return ONE if pow(b, (p - 1) // 2, p) == 1 else MINUS_ONE


def _sqrt_p_phase(p: int) -> RootOfUnity:
    """``eps_p``: the quadratic Gauss sum ``sum_z e(z^2 / p)`` over
    ``sqrt(p)``, 1 for ``p = 1 (mod 4)`` and ``i`` for ``p = 3 (mod 4)``."""
    return ONE if p % 4 == 1 else RootOfUnity(1, 4)


# p = 2, odd conductor: the second stationary term over the first, and the
# root (1 + that ratio) / sqrt(2).
_P2_COSET_PHASE = {RootOfUnity(1, 4): RootOfUnity(1, 8),
                   RootOfUnity(3, 4): RootOfUnity(7, 8)}


def _coset_phase(p: int, ratios) -> RootOfUnity:
    """The root of unity ``p^(-1/2) sum_z ratios[z]`` for the stationary
    terms of an odd conductor ``a >= 3`` over the first one; ``RuntimeError``
    when the sum is not a root of unity times ``sqrt(p)``."""
    if p == 2:
        phase = _P2_COSET_PHASE.get(ratios[1])
        if phase is None:
            raise RuntimeError(f"stationary terms 1, {ratios[1]} at p = 2 do not "
                               "sum to a root of unity times sqrt(2)")
        return phase
    k = []
    for r in ratios:
        if p % r.order:
            raise RuntimeError(f"stationary term ratio {r} is not a {p}-th root of unity")
        k.append(r.num * (p // r.order))
    # k_z = A z + B z^2: B and A from z = 1 and z = 2, then checked at every z.
    B = (k[2] - 2 * k[1]) * pow(2, -1, p) % p
    A = (k[1] - B) % p
    if B == 0 or any((A * z + B * z * z - kz) % p for z, kz in enumerate(k)):
        raise RuntimeError(f"stationary phases {k} mod {p} are not A z + B z^2 "
                           "with B != 0; their sum is not a root of unity times sqrt(p)")
    return RootOfUnity(-A * A * pow(4 * B, -1, p), p) * _legendre(B, p) * _sqrt_p_phase(p)


@lru_cache(maxsize=None)
def epsilon_root(mu: UnitCharacter) -> RootOfUnity | None:
    """epsilon(1/2, mu) as an exact root of unity: 1 when unramified, the
    stationary coset decided in integers for conductor ``a >= 2`` (see the
    module docstring), and None at conductor 1, where it is a normalized
    Gauss sum over ``F_p``."""
    a = mu.conductor
    if a == 0:
        return ONE
    if a == 1:
        return None
    terms = _stationary_terms(mu)
    r0 = terms[0]
    if a % 2 == 0:
        return r0
    return r0 * _coset_phase(mu.p, [t * r0.inverse() for t in terms])


@working_cache(maxsize=None)
def epsilon_factor(mu: UnitCharacter) -> mpc:
    """epsilon(1/2, mu) for mu trivial at the uniformizer; 1 when unramified.

    Normalized so that the Gauss transform at valuation -a equals
    ``zeta(1) q^{-a/2} epsilon(1/2, mu^{-1})``; unit modulus for these
    (unitary) characters.  With ``nu = mu^-1``, ``c = floor(a/2)`` and
    ``nu(1 + p^(a-c)) = e(beta / p^c)``, the units ``y = y0 (1 + p^(a-c) z)``
    outside the coset ``y0 = -beta (mod p^c)`` cancel in the sum over ``z``,
    which leaves

        ``epsilon(1/2, mu) = p^(c - a/2) sum nu(y) e(y / p^a)``

    over the units ``y mod p^(a-c)`` with ``y = -beta (mod p^c)``
    (Iwaniec-Kowalski, *Analytic Number Theory*, Lemmas 12.2-12.3).  For
    ``a >= 2`` this is :func:`epsilon_root`, embedded once; at ``a = 1`` the
    ``p - 1`` terms are embedded and summed.  A ramified factor is scaled
    under :func:`~padwhit.numerics.perturb_epsilon`.
    """
    if mu.conductor == 0:
        return mpc(1)
    root = epsilon_root(mu)
    if root is not None:
        return perturbed(root.embed())
    total = mpc(0)
    for term in _stationary_terms(mu):
        total += term.embed()
    return perturbed(total * q_power(mu.p, 1))


def _critical_phase(chi: UnitCharacter) -> tuple[int, int]:
    """``(beta, r0)`` with ``chi(1 + p^(r - r0)) = e(beta / p^r0)``, where
    r = cond(chi) and r0 = floor(r/2); beta is a unit mod p^r0 when r0 >= 1,
    since chi is nontrivial on ``1 + p^(r-1)``, a power of ``1 + p^(r - r0)``."""
    r0 = chi.conductor // 2
    if r0 == 0:
        return 0, 0
    value = chi.eval_unit(1 + chi.p ** (chi.conductor - r0))
    if value.order != chi.p**r0:
        raise RuntimeError("no aligning unit exists; character data is inconsistent")
    return value.num, r0


def critical_unit(chi: UnitCharacter) -> int:
    """The unit class v (mod p^floor(r/2)) aligning chi on the principal units
    with the additive character: chi(1 + p^{r - r0} u) = psi(v^{-1} p^{-r0} u)
    for all integers u, where r = cond(chi) >= 1 and r0 = floor(r/2).

    Both sides are homomorphisms in u on Z/p^{r0} (since 2(r - r0) >= r), and
    that group is generated by 1, so matching at u = 1 suffices: v is the
    inverse of :func:`_critical_phase`'s beta.  The full condition is
    re-verified by :func:`verify_critical_unit` at check time.
    """
    if chi.conductor < 1:
        raise ValueError("critical_unit needs a ramified character")
    beta, r0 = _critical_phase(chi)
    return pow(beta, -1, chi.p**r0) if r0 else 1


def verify_critical_unit(chi: UnitCharacter, v0: int) -> bool:
    """Check the alignment identity for every u mod p^floor(r/2)."""
    r, p = chi.conductor, chi.p
    r0 = r // 2
    if r0 == 0:
        return True
    mod0 = p**r0
    v_inv = pow(v0, -1, mod0)
    for u in range(mod0):
        lhs = chi.eval_unit(1 + p ** (r - r0) * u)
        rhs = RootOfUnity(v_inv * u, mod0)
        if lhs != rhs:
            return False
    return True


@dataclass(frozen=True)
class ExtendedCharacter:
    """A unitary character of Q_p^x: a UnitCharacter plus an exact
    root-of-unity value at the uniformizer."""

    unit_part: UnitCharacter
    pi_value: RootOfUnity = ONE

    @property
    def p(self) -> int:
        return self.unit_part.p

    @property
    def conductor(self) -> int:
        return self.unit_part.conductor

    def at_minus_one(self) -> RootOfUnity:
        return self.unit_part.at_minus_one()

    def twist(self, mu: UnitCharacter) -> "ExtendedCharacter":
        return ExtendedCharacter(self.unit_part * mu, self.pi_value)

    def inverse(self) -> "ExtendedCharacter":
        return ExtendedCharacter(self.unit_part.inverse(), self.pi_value.inverse())

    def epsilon_root(self) -> RootOfUnity | None:
        """epsilon(1/2, .) exactly, None at conductor 1: the unramified part
        shifts the phase by its value at the uniformizer raised to the
        conductor exponent."""
        root = epsilon_root(self.unit_part)
        if root is None or self.pi_value.is_one():
            return root
        return self.pi_value**self.conductor * root

    def epsilon(self) -> mpc:
        """epsilon(1/2, .) at working precision, perturbation included."""
        a = self.conductor
        if a == 0:
            return mpc(1)
        root = self.epsilon_root()
        if root is not None:
            return perturbed(root.embed())
        phase = self.pi_value**a
        if phase.is_one():
            return epsilon_factor(self.unit_part)
        return phase.embed() * epsilon_factor(self.unit_part)

    def __repr__(self):
        return f"ExtendedCharacter({format_char(self)!r})"


_CHAR_RE = re.compile(
    r"^(\d+)\^(\d+):(-?\d+(?:,-?\d+)*)(?:@(-?\d+)/(\d+))?$"
)


def parse_char(text: str, p_expect: int | None = None) -> ExtendedCharacter:
    """Parse the character grammar ``p "^" a ":" e1[,e2] ["@" num "/" den]``."""
    m = _CHAR_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed character spec: {text!r}")
    p, a = int(m.group(1)), int(m.group(2))
    if p_expect is not None and p != p_expect:
        raise ValueError(f"character spec {text!r} is not over p={p_expect}")
    exps = [int(e) for e in m.group(3).split(",")]
    gens = unit_group(p, a).generators
    if not gens:
        if any(exps):
            raise ValueError(f"level-{a} character group over p={p} is trivial")
        exps = []
    elif len(exps) != len(gens):
        raise ValueError(
            f"expected {len(gens)} exponent(s) for p={p}, level {a}, got {len(exps)}"
        )
    unit_part = make_character(p, a, exps)
    if m.group(4) is None:
        pi_value = ONE
    else:
        pi_value = RootOfUnity(int(m.group(4)), int(m.group(5)))
    return ExtendedCharacter(unit_part, pi_value)


def parse_unit_char(text: str, p_expect: int | None = None) -> UnitCharacter:
    chi = parse_char(text, p_expect)
    if not chi.pi_value.is_one():
        raise ValueError(f"character {text!r} must take value 1 at the uniformizer")
    return chi.unit_part


def format_char(chi) -> str:
    """Canonical spec string at the exact conductor."""
    if isinstance(chi, ExtendedCharacter):
        unit, piv = chi.unit_part, chi.pi_value
    else:
        unit, piv = chi, ONE
    exps = ",".join(str(e) for e in unit.exps) if unit.exps else "0"
    return f"{unit.p}^{unit.conductor}:{exps}@{piv.num}/{piv.order}"
