"""Whittaker newvector engine.

Values are organized along the double-coset representatives
``g(t, k, v) = diag(p^t, 1) . w . n(p^-k v)`` with ``t`` an integer,
``0 <= k <= n`` and ``v`` a unit mod ``p^min(k, n-k)``; these exhaust the
group modulo the center, the unipotent upper triangulars, and the level
subgroup.  For each level ``k`` and unit character ``mu`` the function
``v -> W(g(t,k,v))`` has a Fourier coefficient ``c[t,k](mu)``, and the local
functional equation pins the generating function of ``t -> c[t,k](mu)`` as an
explicit rational function of X = q^-s: a numerator of at most three terms
over at most two linear Euler factors.  A level derives the numerator of
every column at once, from integer arrays over its characters
(:func:`_level_columns`; the diagonal data is finite plus geometric, with
the geometric part cancelling exactly against the matching dual Euler
factor).  Most columns of a principal series or a Steinberg twist have no
Satake root left; each is one exact term, kept as an exact head, a plain
tuple.  :func:`_expand` finishes the others, and an oracle's, from the
twist data, reading every coefficient off the partial fractions, a finite
head plus a geometric tail in the Satake parameters.  Coefficients are
embedded at working precision only where something reads them, and a
conductor-1 epsilon factor is kept as its characters until then
(:class:`_Epsilons`).  :func:`sup_norm` builds its levels afresh, uncached,
and screens its whole domain in complex128 first, reading each head from
cached complex128 copies of its root, q-power and epsilon values, and
synthesizes at working precision only the points at or above one tie floor
for the whole domain.

Columns with ``k > n/2`` are never solved directly in normal operation: the
generalized Atkin-Lehner relation takes a point there to the contragredient
at level ``n - k``, whose newvector is the complex conjugate one for unitary
``pi``.  So values, the conjugate variant and :func:`sup_norm` read only the
descriptor's own levels ``k <= n/2``.  The direct solve remains available
behind ``direct=True`` precisely so the reduction can be tested against it.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from mpmath import mp, mpc, mpf

from .characters import (
    ExtendedCharacter,
    UnitCharacter,
    character_table,
    characters_mod,
    critical_unit,
    epsilon_factor,
    format_char,
    level_constants,
    twist_table,
    zeta1,
    zeta1_q_power,
)
from .numerics import (
    ONE,
    RootOfUnity,
    ScaledRoot,
    _scaled_embed,
    expand_geometric,
    perturbed,
    q_power,
    working_cache,
    working_state,
)
from .padics import split_integers, unit_group
from .representations import (
    PrincipalSeries,
    Representation,
    SupercuspidalOracle,
    TwistData,
)

log = logging.getLogger("padwhit")


@dataclass(frozen=True)
class Representative:
    """Index triple of the coset representative diag(p^t,1) w n(p^-k v)."""

    t: int
    k: int
    v: int = 1


def _window(rep: Representation) -> int:
    """The last t at which every column stores its coefficient; beyond it
    coefficients come from the column's partial fractions."""
    return 2 * rep.n + 20


@dataclass(frozen=True, slots=True)
class TailBound:
    """Certified bound on trailing Fourier coefficients.

    For degrees ``d > d_from`` of the solved generating function,
    ``|theta_d| <= (a0 + a1 (d - d_from)) rho^(d - d_from)``, hence
    ``|c_t| <= bound(t)`` for ``t + A > d_from``.
    """

    a0: mpf
    a1: mpf
    rho: mpf
    d_from: int
    A: int
    q: int

    def coeff_bound(self, t: int) -> mpf:
        d = t + self.A
        if d <= self.d_from:
            raise ValueError("tail bound queried inside the computed range")
        s = d - self.d_from
        return (self.a0 + self.a1 * s) * self.rho**s * q_power(self.q, d)


class CoefficientTable:
    """Fourier coefficients ``t -> c[t,k](mu)`` of one unit character: those
    up to the window stored, a tail certificate for every ``t`` beyond it,
    and the partial fractions ``(b0, b1, w)`` that give each of them as
    ``sum (b0 + b1 d) w^d`` with ``d = t + A`` (:func:`_closed_form`).

    ``moduli``, when not None, is ``(d_lo, K, sigma, tau)`` with
    ``|c[t]| = K q^(-(sigma d + tau)/2)`` for every ``d >= d_lo``: one simple
    partial fraction.  ``head``, when not None, is the exact head
    (:func:`_head_value`) of a column with no Euler factor left, whose one
    coefficient the table holds.

    Coefficients are embedded by the operations :func:`_expand` uses.
    One simple partial fraction ``b0 w^d``, ``b0 != 0``, leaves a ``fill``
    ``(d_lo, d_hi)``: those degrees, all nonzero, are filled by
    :func:`_closed_form` when one is first read, under ``state``, the
    precision and epsilon canary the column was solved under, and no
    other."""

    __slots__ = ("k", "mu", "A", "_coeffs", "tail", "parts", "moduli", "head",
                 "fill", "state")

    def __init__(self, k: int, mu: UnitCharacter, A: int, coeffs: dict,
                 tail: TailBound, parts: tuple, moduli: tuple | None = None,
                 head: tuple | None = None, fill: tuple | None = None):
        self.k, self.mu, self.A, self._coeffs = k, mu, A, coeffs
        self.tail, self.parts, self.moduli = tail, parts, moduli
        self.head, self.fill = head, fill
        self.state = working_state() if fill else None

    @property
    def coeffs(self) -> dict:
        if self.fill:
            self._embed()
        return self._coeffs

    def coeff(self, t: int) -> mpc:
        """The stored coefficient at ``t``, 0 if none."""
        if self.fill and t + self.A >= self.fill[0]:
            self._embed()
        c = self._coeffs.get(t)
        return mpc(0) if c is None else c

    def _embed(self) -> None:
        if self.state != working_state():
            raise RuntimeError(
                f"column {format_char(self.mu)} at k={self.k} was solved at another "
                "precision or epsilon canary; solve it again under this one")
        d_lo, d_hi = self.fill
        for d, c in enumerate(_closed_form(self.parts, d_lo, d_hi), d_lo):
            self._coeffs[d - self.A] = c
        self.fill = None

    def support(self) -> list:
        """The ``t`` of the nonzero coefficients, read without embedding."""
        live = [t for t, c in self._coeffs.items() if c]
        if self.fill:
            live.extend(range(self.fill[0] - self.A, self.fill[1] - self.A + 1))
        return live

    def value(self, t: int) -> mpc:
        if self.parts and t + self.A > self.tail.d_from:
            return _closed_form(self.parts, t + self.A, t + self.A)[0]
        return self.coeff(t)

    def modulus(self, t: int) -> mpf:
        """``|c[t]|``: read off ``moduli`` where they cover ``t``, else
        ``abs(coeff(t))``."""
        if self.moduli is not None and t + self.A >= self.moduli[0]:
            _, K, sigma, tau = self.moduli
            return K * q_power(self.tail.q, sigma * (t + self.A) + tau)
        return abs(self.coeff(t))

    def complex128(self, t: int) -> complex:
        """``c[t]`` in complex128, for :func:`_screen`."""
        return complex(self.coeff(t))

    def __repr__(self):
        return f"CoefficientTable(k={self.k}, mu={self.mu!r}, {len(self.support())} coeffs)"


@dataclass(frozen=True, slots=True)
class _Epsilons:
    """The numeric epsilon factors of a head read from a level's arrays,
    kept as characters: ``eps(mu)`` when ``mu`` has conductor 1 (else
    ``mu`` is None), over ``eps(tw1) eps(tw2)`` when a twist
    ``tw1 = chi1 mu`` or ``tw2 = chi2 mu`` has conductor 1 (``twists``
    empty otherwise)."""

    mu: UnitCharacter | None
    twists: tuple

    def value(self) -> mpc:
        """The factor at working precision, by :func:`_expand`'s operations
        in its order, so bit for bit its ``approx``."""
        approx = None if self.mu is None else epsilon_factor(self.mu)
        if self.twists:
            tw1, tw2 = self.twists
            eps_tw = tw1.epsilon() * tw2.epsilon()
            approx = 1 / eps_tw if approx is None else approx / eps_tw
        return approx

    def complex128(self) -> complex:
        """The factor in complex128, ``(eps(mu) / eps(tw1)) / eps(tw2)``
        multiplied from the cached copies of :func:`_epsilon128`; no ``mpc``
        operation per column."""
        z = 1 if self.mu is None else _epsilon128(self.mu)[0]
        for tw in self.twists:
            z *= _epsilon128(tw)[1]
        return z


# Bounded: the twists of a scan range over the characters of every level it
# reaches, times the unramified values of its inducing characters.
@working_cache(maxsize=4096)
def _epsilon128(chi) -> tuple:
    """complex128 copies of ``eps(chi)`` and ``1 / eps(chi)`` for a unit or
    an extended character, each computed at working precision,
    perturbation included, and converted once."""
    eps = epsilon_factor(chi) if isinstance(chi, UnitCharacter) else chi.epsilon()
    return complex(eps), complex(1 / eps)


def _closed_form(parts, d_lo: int, d_hi: int) -> list:
    """``sum (b0 + b1 d) w^d`` over the partial fractions ``(b0, b1, w)``,
    each ``w`` an exact :class:`ScaledRoot`, for ``d_lo <= d <= d_hi``.

    Each ``w^d_lo`` is embedded exactly, times ``b0`` when ``b1 = 0``, and
    then advanced by one product per degree, so a simple root costs one
    product per coefficient."""
    terms = []
    for b0, b1, w in parts:
        x, step = (w**d_lo).embed(), w.embed()
        col = []
        if b1:
            for d in range(d_lo, d_hi + 1):
                col.append((b0 + b1 * d) * x)
                x *= step
        else:
            x *= b0
            for _ in range(d_lo, d_hi + 1):
                col.append(x)
                x *= step
        terms.append(col)
    first, *rest = terms
    for col in rest:
        first = [u + v for u, v in zip(first, col)]
    return first


@working_cache(maxsize=256)
def _scalar(rational: tuple) -> mpf:
    """``num/den`` of ``rational = (num, den, count)``, :func:`perturbed` by
    ``count`` ramified epsilon factors."""
    return perturbed(mpf(rational[0]) / rational[1], rational[2])


@working_cache(maxsize=4096)
def _monomial(rational: tuple, num: int, order: int, q: int, s: int) -> tuple:
    """A monomial ``scalar e(num/order) q^(-s/2)``, its exact modulus, and its
    complex128 copy, from the embedded root and q-power converted once."""
    r, z = _scalar(rational), _scaled_embed(num, order, q, s)
    return r * z, abs(r) * q_power(q, s), complex(z) * float(r)


def _head_value(head: tuple, q: int) -> mpc:
    """The one coefficient ``scalar e(num/order) q^(-(s + e)/2) factor`` of
    a column with no Euler factor left, from its exact head ``(t, rational,
    num, order, s, e, factor)``; ``factor`` is None for an exact monomial,
    an :class:`_Epsilons` for a head read from a level's arrays (its
    conductor-1 factors formed here), or an ``mpc`` for an oracle's."""
    _, rational, num, order, s, e, factor = head
    if factor is None:
        return _monomial(rational, num, order, q, s + e)[0]
    approx = factor.value() if isinstance(factor, _Epsilons) else factor
    return _scalar(rational) * _scaled_embed(num, order, q, s) * approx * q_power(q, e)


def _head_table(k: int, mu: UnitCharacter, head: tuple, p: int,
                window: int) -> CoefficientTable:
    """The column of ``head``, its coefficient embedded."""
    t, A = head[0], head[5] - head[0]
    return CoefficientTable(k, mu, A, {t: _head_value(head, p)},
                            _no_tail(window + A, A, p), (), None, head)


def _zero_table(k: int, mu: UnitCharacter, p: int) -> CoefficientTable:
    return CoefficientTable(k, mu, 0, {}, _no_tail(-10**9, 0, p), ())


_ZERO = mpf(0)


@lru_cache(maxsize=None)
def _no_tail(d_from: int, A: int, p: int) -> TailBound:
    """The tail bound of a column with no Satake root left: zero."""
    return TailBound(_ZERO, _ZERO, _ZERO, d_from, A, p)


def coefficient_table(rep: Representation, k: int, mu: UnitCharacter) -> CoefficientTable:
    """The column (k, mu), one index of the level builder
    (:func:`_level_columns`): a head or a zero column as its level reads
    it, any other column expanded by :func:`_expand`.  Columns with
    cond(mu) > k are identically zero and come back empty."""
    if not 0 <= k <= rep.n:
        raise ValueError(f"level k={k} outside [0, {rep.n}]")
    if mu.conductor > k:
        return _zero_table(k, mu, rep.p)
    i = characters_mod(rep.p, k).index(mu)
    heads, numerators = _level_columns(rep, k, (i,))
    if i in numerators:
        return _expand(rep, k, mu, numerators[i], rep.twist_data(mu))
    return (_zero_table(k, mu, rep.p) if heads[i] is None
            else _head_table(k, mu, heads[i], rep.p, _window(rep)))


def _expand(rep: Representation, k: int, mu: UnitCharacter, numerator: tuple,
            td: TwistData) -> CoefficientTable:
    """The column (k, mu) from its numerator ``C X^e``
    (:func:`_level_columns`) and the twist data ``td`` of ``rep``.

    The generating function of ``d -> c[d - A, k](mu) q^(d/2)`` is
    ``C X^e prod_j (1 - c_j X^-1) / prod_i (1 - a_i X)``: the ``c_j`` are the
    dual Euler roots and the ``a_i`` the Satake parameters.  The dual root
    equal to the numerator's diagonal root ``rho``, an exact decision on
    :class:`ScaledRoot` values, is replaced by ``q rho`` from k = 1 on.  No
    dual factor left cancels an Euler factor: the one that can, ``q rho``
    against ``chi2``'s root, cancels in the arrays, and every other dual
    root differs from an inverse Satake root in its power of q.

    ``C`` is kept as ``num/den`` times an exact :class:`ScaledRoot` times a
    numeric factor, which is there only when ``mu`` or the twist has an
    epsilon factor that is not a root of unity (conductor 1, or an oracle
    table).  :func:`perturb_epsilon` scales the rational by ``(1 + delta)``
    per exact ramified epsilon factor in the numerator and by
    ``(1 + delta)^-1`` per one in the denominator.
    """
    p = rep.p
    (num, den, ramified), root, e, eps_mu, rho = numerator
    approx = None if eps_mu is None else epsilon_factor(eps_mu)
    duals, roots = [g.shift(2) for g in td.l_den], td.l_num
    if rho is not None:
        matches = [i for i, c in enumerate(duals) if c == rho]
        if len(matches) != 1:
            raise RuntimeError(
                "no dual Euler factor cancels the geometric diagonal tail"
            )
        del duals[matches[0]]
        if k >= 1:
            duals.append(rho.shift(-2))
    # Over the twist's epsilon factor.
    if td.root is not None:
        root = root * ScaledRoot(td.root.inverse(), p)
        ramified -= td.ramified
    else:
        approx = 1 / td.eps if approx is None else approx / td.eps
    A = td.A
    if not duals and not roots:
        # No Euler factor left: theta_e q^(-e/2) is the whole column.
        head = (e - A, (num, den, ramified), root.root.num, root.root.order, root.s,
                e, approx)
        return _head_table(k, mu, head, p, _window(rep))
    d_last = _window(rep) + A
    coeff = _scalar((num, den, ramified)) * root.embed()
    if approx is not None:
        coeff *= approx
    # C X^e prod_j (1 - c_j X^-1), with C = coeff.
    terms = {e: coeff}
    if duals:
        terms[e - 1] = -coeff * sum((c.embed() for c in duals), mpc(0))
    if len(duals) == 2:
        terms[e - 2] = coeff * (duals[0] * duals[1]).embed()
    head, parts = expand_geometric(terms, roots)
    coeffs = {d - A: c * q_power(p, d) for d, c in head.items()}
    # Past the head, theta_d q^(-d/2) = sum (b0 + b1 d) w^d, w = a q^(-1/2).
    parts_w = tuple((b0, b1, a.shift(1)) for b0, b1, a in parts)
    moduli = fill = None
    if len(parts_w) == 1 and not parts_w[0][1]:
        b0, _, w = parts_w[0]
        moduli = (e + 1, abs(b0), w.s, 0)
        if b0:
            # The head ends at e, the degree of the leading numerator term.
            fill = (e + 1, d_last)
    if parts_w and not fill:
        for d, c in enumerate(_closed_form(parts_w, e + 1, d_last), e + 1):
            if c:
                coeffs[d - A] = c
    # The largest Satake root; none: an identically zero tail.
    rho = max((a.modulus() for a in roots), default=mpf(0))
    a0 = a1 = mpf(0)
    for b0, b1, a in parts:
        amp = abs(a.embed()) ** d_last
        a0 += (abs(b0) + abs(b1) * d_last) * amp
        a1 += abs(b1) * amp
    tail = TailBound(a0, a1, rho, d_last, A, p)
    return CoefficientTable(k, mu, A, coeffs, tail, parts_w, moduli, fill=fill)


def _level_columns(rep: Representation, k: int, wanted) -> tuple:
    """``(heads, numerators)`` for the columns ``i`` in ``wanted`` of level
    ``k``, read from integer arrays over ``characters_mod(p, k)``
    (:func:`~padwhit.characters.level_constants`,
    :func:`~padwhit.characters.twist_table`): ``heads[i]`` is the exact head
    of a column with no Euler factor left, None for a zero column, and
    ``numerators[i]`` the numerator of a column that keeps a Satake root,
    which :func:`_expand` finishes.  ``xi . St`` enters as ``xi boxplus
    xi``: conductor ``2 cond(xi mu)`` (1 when unramified), epsilon
    ``eps(xi mu)^2``.  A supercuspidal oracle has no inducing characters:
    it enters with every twist unramified, so each of its nonzero columns
    is a numerator, finished from its table's twist data.

    The numerator is ``zeta(1) q^(-a/2) eps(mu) X^(a - k)`` for
    ``a = cond(mu) >= 1``, times ``rho^(k - a)`` for the diagonal ratio
    ``rho`` (here ``q^(-1/2) rho``) and zero without one unless ``a = k``;
    for trivial ``mu``, 1 at k = 0 and ``-zeta(1)/q`` at k = 1 without a
    ratio, and with one ``-(zeta(1)/q) rho^(k-1) X^(1-k)`` for k >= 1 (1 at
    k = 0), the diagonal's finite head and geometric tail summed: the tail
    cancels the dual Euler factor with root ``rho``, as
    ``1 + zeta(1)/q = zeta(1)``, and leaves ``1 - q rho X^-1``.  Then the
    sign ``omega(-1)``.  A numerator is ``((num, den, ramified), root, e,
    eps_mu, rho)``: ``C X^e`` with ``C`` the rational times the
    :class:`ScaledRoot` ``root`` times ``eps(eps_mu)`` for a conductor-1
    ``eps_mu`` (else None), and ``rho`` the diagonal root of a trivial
    ``mu`` (else None).

    A head is that numerator with the one Satake root cancelled, if any,
    over the twist's epsilon factor.  The roots of unity add as numerators
    over one order ``M``, and the sum is reduced.  A conductor-1 epsilon
    factor is kept as its character in the head's :class:`_Epsilons` and
    formed only when the coefficient is read.
    """
    p = rep.p
    ps = isinstance(rep, PrincipalSeries)
    chars = characters_mod(p, k)
    cond, eps, n = level_constants(p, k)
    cond, eps = cond.tolist(), eps.tolist()
    ratio = rep.diagonal_ratio()
    rho = ScaledRoot(ONE, p) if ratio is None else ratio.shift(1)
    if isinstance(rep, SupercuspidalOracle):
        unramified = (k, None, [0] * len(chars), None, 1)
        twist_tables = (unramified, unramified)
    else:
        chis = (rep.chi1, rep.chi2) if ps else (rep.xi, rep.xi)
        twist_tables = twist_table(chis[0], k), twist_table(chis[1], k)
    (level1, index1, cond1, root1, n1), (level2, index2, cond2, root2, n2) = twist_tables
    M = math.lcm(n, rho.root.order, n1, n2)
    rho_num, scale, scale1, scale2 = rho.root.num * (M // rho.root.order), M // n, M // n1, M // n2
    sign = 1 if rep.omega.at_minus_one().is_one() else -1
    heads, numerators = {}, {}
    for i in wanted:
        c1, c2, a = cond1[i], cond2[i], cond[i]
        if a:
            num, den, e = (p if ratio is not None or a == k else 0), p - 1, a - k
            root, s = (eps[i] * scale if a >= 2 else 0) - e * rho_num, a - e * rho.s
        elif ratio is None:
            (num, den), e, root, s = {0: (1, 1), 1: (-1, p - 1)}.get(k, (0, 1)), 0, 0, 0
        elif k:
            num, den, e, root, s = -1, p - 1, 1 - k, (k - 1) * rho_num, (k - 1) * rho.s
        else:
            num, den, e, root, s = 1, 1, 0, 0, 0
        if not num:
            heads[i] = None
            continue
        num, eps_mu, ramified = sign * num, (chars[i] if a == 1 else None), int(a >= 2)
        if not (c1 and c2):  # an unramified twist: its Satake root
            if a or ratio is None or not k or not (c1 or c2):
                numerators[i] = ((num, den, ramified), ScaledRoot(RootOfUnity(root, M), p, s),
                                 e, eps_mu, None if a or ratio is None else rho)
                continue
            # chi2's Satake root cancels the dual factor q rho: times -q rho X^-1.
            num, e, root, s = -num, e - 1, root + rho_num, s + rho.s - 2
        A, twists = c1 + c2 or int(not ps), ()  # xi mu unramified: conductor 1 for xi . St
        if root1[i] >= 0 and root2[i] >= 0:
            root -= root1[i] * scale1 + root2[i] * scale2
            ramified -= (c1 > 0) + (c2 > 0)
        else:
            twists = (ExtendedCharacter(characters_mod(p, level1)[index1[i]], chis[0].pi_value),
                      ExtendedCharacter(characters_mod(p, level2)[index2[i]], chis[1].pi_value))
        factor = _Epsilons(eps_mu, twists) if eps_mu or twists else None
        g = math.gcd(root % M, M)
        heads[i] = (e - A, (num, den, ramified), root % M // g, M // g, s, e, factor)
    return heads, numerators


class Level:
    """The columns of one level k, in :func:`characters_mod` order, indexed
    by ``t``: ``heads`` maps those with no Euler factor left to their exact
    heads (:func:`_head_value`), ``tables`` the other nonzero ones to their
    tables; zero columns are in neither.

    ``by_t[t]`` lists the columns ``i`` with a nonzero coefficient at ``t``,
    in column order, and ``row(t)`` their ``(i, c)``, formed on first use
    and kept; ``tails`` lists ``(i, column)`` for the columns with partial
    fractions, the only ones nonzero past ``window``.  ``solved`` counts the
    columns :func:`coefficient_table` expanded.  ``columns`` builds every
    column's table on first use.  Under another precision or epsilon canary
    than ``state``, the one it was built under, a level refuses to form a
    value: ``modulus`` and ``complex128`` raise, and so do ``row`` and
    ``columns`` where they are not yet formed.
    """

    __slots__ = ("p", "k", "chars", "heads", "tables", "by_t", "rows", "tails",
                 "window", "solved", "state", "_columns")

    def __init__(self, p: int, k: int, heads: dict, tables: dict, window: int,
                 solved: int = 0):
        self.p, self.k, self.chars = p, k, characters_mod(p, k)
        self.heads, self.tables, self.window, self.solved = heads, tables, window, solved
        self.state, self.rows, self._columns = working_state(), {}, None
        by_t: dict = {}
        for i in range(len(self.chars)):
            head = heads.get(i)
            for t in ((head[0],) if head else tables[i].support() if i in tables else ()):
                by_t.setdefault(t, []).append(i)
        self.by_t = {t: tuple(live) for t, live in by_t.items()}
        self.tails = tuple((i, tables[i]) for i in sorted(tables) if tables[i].parts)

    def check(self) -> None:
        if self.state != working_state():
            raise RuntimeError(
                f"level k={self.k} was built at another precision or epsilon "
                "canary; build it again under this one")

    @property
    def columns(self) -> tuple:
        """Every column's :class:`CoefficientTable`, a head's embedded."""
        if self._columns is None:
            self.check()
            self._columns = tuple(
                _head_table(self.k, mu, self.heads[i], self.p, self.window)
                if i in self.heads else self.tables.get(i) or _zero_table(self.k, mu, self.p)
                for i, mu in enumerate(self.chars))
        return self._columns

    def modulus(self, i: int, t: int) -> mpf:
        """``|c[t,k](mu_i)|``, exact for a monomial head."""
        self.check()
        head = self.heads.get(i)
        if head is None:
            return self.tables[i].modulus(t)
        _, rational, num, order, s, e, factor = head
        if factor is None:
            return _monomial(rational, num, order, self.p, s + e)[1]
        return abs(dict(self.row(t))[i])

    def complex128(self, i: int, t: int) -> complex:
        """``c[t,k](mu_i)`` in complex128, for :func:`_screen`.  Heads other
        than an oracle's are read from cached complex128 copies, embedding
        nothing."""
        self.check()
        head = self.heads.get(i)
        if head is None:
            return self.tables[i].complex128(t)
        _, rational, num, order, s, e, factor = head
        if factor is None or isinstance(factor, _Epsilons):
            z = _monomial(rational, num, order, self.p, s + e)[2]
            return z if factor is None else z * factor.complex128()
        return complex(_head_value(head, self.p))

    def row(self, t: int) -> tuple:
        """The nonzero ``(i, c[t,k](mu_i))`` at ``t <= window``."""
        row = self.rows.get(t)
        if row is None:
            self.check()
            heads, tables, p = self.heads, self.tables, self.p
            row = self.rows[t] = tuple(
                (i, _head_value(heads[i], p) if i in heads else tables[i].coeff(t))
                for i in self.by_t.get(t, ()))
        return row

    def live(self, t: int):
        """The nonzero ``(i, c[t,k](mu_i))``, in column order."""
        if t <= self.window:
            return self.row(t)
        live = []
        for i, tab in self.tails:
            c = tab.value(t)
            if c != 0:
                live.append((i, c))
        return live


def _build_level(rep: Representation, k: int) -> Level:
    """The :class:`Level` of every unit character of level <= k, built
    afresh from the exact arrays; the columns that keep a Satake root, and
    an oracle's, go through :func:`coefficient_table`."""
    if not 0 <= k <= rep.n:
        raise ValueError(f"level k={k} outside [0, {rep.n}]")
    chars = characters_mod(rep.p, k)
    exact, numerators = _level_columns(rep, k, range(len(chars)))
    heads, tables = {i: head for i, head in exact.items() if head}, {}
    for i in numerators:
        tab = coefficient_table(rep, k, chars[i])
        if tab.head:
            heads[i] = tab.head
        elif tab.parts or tab.coeffs:
            tables[i] = tab
    return Level(rep.p, k, heads, tables, _window(rep), len(numerators))


# For point reads, bounded so that a long run does not keep every level it
# built; the largest working set in use, ~400 descriptors of conductor <= 4
# queried at random points, holds about 1,200 levels.
@working_cache(maxsize=2048)
def tables_for_level(rep: Representation, k: int) -> Level:
    """The cached :class:`Level` of every unit character of level <= k."""
    return _build_level(rep, k)


# The contragredient's root number, the Atkin-Lehner phase's constant: for
# GL(2), pi~ = pi (x) omega^-1, so eps(1/2, pi~) = eps(1/2, pi (x) omega^-1).
@working_cache(maxsize=1024)
def _dual(rep: Representation) -> mpc:
    return rep.twist_data(rep.omega.inverse()).eps


def _validate_rep_triple(rep: Representation, r: Representative) -> None:
    if not 0 <= r.k <= rep.n:
        raise ValueError(f"level index k={r.k} outside [0, {rep.n}]")
    if r.v % rep.p == 0:
        raise ValueError(f"v={r.v} is not a unit at p={rep.p}")


_NO_VALUE = mpc(0)  # an empty row's exact value; mpc values are immutable


def whittaker_value(rep: Representation, r: Representative,
                    direct: bool = False) -> mpc:
    """Value of the normalized newvector at the representative ``r``.

    Fourier synthesis over the level-k character group when ``2k <= n`` (or
    when forced by ``direct``): the sum of ``c[t,k](mu) mu(v)`` over the
    characters live at ``t``, in column order, with ``mu(v)`` read from the
    cached character table.  Otherwise one Atkin-Lehner reduction to the
    contragredient, read off the newvector's own level ``n - k`` as
    ``W(g(t,k,v)) = phase omega(-1) conj W(g(t + 2k - n, n - k, v))``
    (:func:`atkin_lehner_reduce`, :func:`conjugate_value`).  The live set of
    the row synthesized is read right after the triple is validated: an
    empty row is the exact ``mpc(0)``, with no phase, character-table row or
    unit index formed.
    """
    _validate_rep_triple(rep, r)
    n, k, t = rep.n, r.k, r.t
    if t < -k - n:
        return _NO_VALUE
    reflect = 2 * k > n and not direct
    if reflect:
        k, t = n - k, t + 2 * k - n
    live = tables_for_level(rep, k).live(t)
    if not live:
        return _NO_VALUE
    rows = character_table(rep.p, k)[1]
    j = unit_group(rep.p, k).index(r.v)
    total = _NO_VALUE
    for i, c in live:
        total += c * rows[i][j]
    if not reflect:
        return total
    w = total.conjugate()
    return atkin_lehner_reduce(rep, r)[0] * (w if rep.omega.at_minus_one().is_one() else -w)


def conjugate_value(rep: Representation, r: Representative) -> mpc:
    """Value of the opposite-invariance variant; equals the contragredient's
    newvector on every representative, ``omega(-1) conj W(g(t,k,-v))`` for
    unitary ``pi``, with :func:`whittaker_value`'s zero-row shortcut."""
    w = whittaker_value(rep, Representative(r.t, r.k, -r.v)).conjugate()
    return w if rep.omega.at_minus_one().is_one() else -w


def atkin_lehner_reduce(rep: Representation, r: Representative):
    """Phase and reduced triple with
    ``W(r) = phase * W~(g(t + 2k - n, n - k, -v))`` for the contragredient
    newvector W~; the phase has modulus 1.  Its constant is the
    contragredient's root number, read off ``rep`` as
    ``eps(1/2, pi (x) omega^-1)``; its root, ``omega(v)^-1`` times
    ``psi(-v^-1 p^(t+k))``, is formed as one reduced :class:`RootOfUnity`."""
    _validate_rep_triple(rep, r)
    n, p, v = rep.n, rep.p, r.v
    omega, mod = rep.omega.eval_unit(v), p ** max(-r.t - r.k, 0)
    root = RootOfUnity(-omega.num * mod - pow(v, -1, mod) * omega.order, omega.order * mod)
    k2 = n - r.k
    reduced = Representative(r.t + 2 * r.k - n, k2, (-v) % (p ** max(k2, 1)))
    return _dual(rep) * root.embed(), reduced


def _rounded_up(value: mpf, k: int) -> mpf:
    """``value (1 + u)^k`` with ``u = 2^(1 - prec)``, at least ``x`` for any
    ``x`` that ``value`` approximates within ``k`` roundings.

    One mpmath operation rounds to nearest, within ``2^-prec`` relative, so
    a computed ``y`` lies between ``x (1 + u)^-1`` and ``x (1 + u)``, as
    ``1 / (1 - 2^-prec) <= 1 + u``; ``k`` such factors, as Higham counts
    them (*Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 3),
    put ``x`` below ``value (1 + u)^k``.  ``1 + u`` is exact in ``prec``
    bits; the three roundings of this inflation itself, two for the power
    and one for the product, are counted here on top of ``k``."""
    return value * _inflation(k)


@working_cache(maxsize=256)
def _inflation(k: int) -> mpf:
    return (1 + mp.ldexp(1, 1 - mp.prec)) ** (k + 3)


def lambda_sq_sum(rep: Representation, k: int):
    """(sum over the window of lambda^2, certified bound on the rest).

    Past the window each column's tail bound is ``(a0 + a1 s) rho^s
    q^(-(d_from + s)/2)`` at ``s = 1, 2, ...``, so its squares sum to
    ``q^(-d_from) sum_s (a0 + a1 s)^2 x^s`` with ``x = rho^2 / q <= 1/2``,
    the closed form below.

    The tail is rounded up (:func:`_rounded_up`), so it bounds that sum for
    the stored ``a0``, ``a1`` and ``rho``.  Counting roundings, with every
    integer power as two (mpmath's powers carry guard bits), ``x`` is within
    3 and ``y = 1 - x`` within 5: as ``x <= 1/2``, ``x``'s error moves ``y``
    by at most the same relative amount, plus its own rounding and one for
    the second-order terms.  The three terms of the bracket are then within
    12, 18 and 29, and 30 after their two additions; ``q^(-d_from)`` and the
    product add 3.  All terms are positive, so summing ``m`` columns from
    zero adds ``m - 1``: ``k = m + 32``.
    """
    columns = tables_for_level(rep, k).columns
    total = mpf(0)
    for tab in columns:
        for c in tab.coeffs.values():
            total += abs(c) ** 2
    tail = mpf(0)
    for tab in columns:
        b = tab.tail
        if not (b.a0 or b.a1):
            continue
        x = b.rho**2 / b.q
        y = 1 - x
        tail += mp.power(b.q, -b.d_from) * (
            b.a0**2 * x / y + 2 * b.a0 * b.a1 * x / y**2
            + b.a1**2 * x * (1 + x) / y**3)
    return total, _rounded_up(tail, len(columns) + 32)


# sup_norm treats values within this many units in the last place of the
# largest one as tied with it.
TIE_ULPS = 2**16


@dataclass(frozen=True)
class SupNormResult:
    h: mpf
    witness: Representative
    certified: bool
    lower_ref: mpf
    upper_ref: mpf
    t_max: int  # the last t scanned; the tail bound covers the rest
    tail_bound: mpf  # certified sup of |W| beyond t_max
    ties: tuple = field(default=(), compare=False, repr=False)  # (tied point, single-live)


def theorem_refs(rep: Representation):
    """Reference magnitudes (lower, upper) the sup-norm is sandwiched by."""
    q = mpf(rep.p)
    lower = max(mp.power(q, mpf(3 * rep.m // 2) / 2 - mpf(rep.n) / 2), mpf(1))
    upper = mp.power(q, mpf(rep.n // 2) / 2)
    return lower, upper


def sup_norm(rep: Representation, tolerance=mpf("1e-9")) -> SupNormResult:
    """Certified maximum of |W| over the whole group, scanned by :func:`_scan`.

    A descriptor and its contragredient have the same moduli, so one scan,
    of the member with the smaller ``spec_string()`` (:func:`scan_partner`),
    serves both.  The other takes its ``h``, ``certified``, tail bound,
    ``t_max`` and references, and as witness the first, in its own
    (k, t, dlog v) order, of the tied points mapped by ``(t, k, v) ->
    (t, k, -v mod p^k)``, a single-live row's staying at ``units[0]``.
    Self-dual descriptors and oracles scan themselves.  The member asked
    first scans and leaves the scan in a bounded store, keyed by
    ``working_state()`` and the other member, which reads it once: a result
    depends only on the descriptor, the precision and the canary.

    ``tolerance`` only guards consistency: a normalized newvector has
    ``|W(1)| = 1``, so ``h < 1 - tolerance`` raises ``RuntimeError``.  It
    does not enter ``certified``, which compares the tail bound with ``h``
    by the fixed margin ``1e-12``.  A ``tolerance`` that is not a finite
    number ``>= 0`` raises ``ValueError``.

    At DEBUG level the ``padwhit`` logger says which descriptor was scanned,
    whether by this call or before, and the store's hits and misses.
    """
    if not (mp.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    own, partner = _ordered(rep), scan_partner(rep)
    if partner is None:
        res, how, scanned = _scan(rep), "scanned", rep
    else:
        scanned, state = min(own, partner, key=lambda r: r.spec_string()), working_state()
        res, how = _partners.take((state, own)), "read off the stored scan of"
        if res is None:
            res, how = _scan(scanned), "scanned"
            _partners.put((state, partner), res)
        if scanned is not own:
            res = _mirrored(res, rep.p)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("sup_norm %s: %s %s; partner store %d hits, %d misses", rep.spec_string(),
                  how, scanned.spec_string(), *_partners.cache_info()[:2])
    if res.h < 1 - tolerance:
        raise RuntimeError(f"sup-norm {res.h} below 1; the solver is inconsistent")
    if not res.certified:
        log.info("sup_norm %s not certified: tail_sup %s is not below "
                 "h %s by the margin 1e-12", rep.spec_string(),
                 mp.nstr(res.tail_bound, 17), mp.nstr(res.h, 17))
    return res


def _ordered(rep: Representation) -> Representation:
    """``rep``, a principal series' equal-conductor characters in characters_mod order."""
    if (isinstance(rep, PrincipalSeries) and rep.chi1.conductor == rep.chi2.conductor
            and rep.chi2.unit_part.exps < rep.chi1.unit_part.exps):
        return PrincipalSeries(rep.chi2, rep.chi1)
    return rep


def scan_partner(rep: Representation) -> Representation | None:
    """``rep``'s contragredient, ordered by :func:`_ordered`, which shares its
    scan; None for a self-dual descriptor and an oracle."""
    partner = None if isinstance(rep, SupercuspidalOracle) else _ordered(rep.contragredient())
    return None if partner == _ordered(rep) else partner


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _read_once_store(maxsize: int) -> SimpleNamespace:
    """``take(key)`` pops what ``put(key, value)`` left, else None; past
    ``maxsize`` the oldest goes.  ``cache_info``, ``cache_clear`` as lru's."""
    data, counts = OrderedDict(), [0, 0]  # hits, misses

    def take(key):
        value = data.pop(key, None)
        counts[value is None] += 1
        return value

    def put(key, value) -> None:
        data[key] = value
        if len(data) > maxsize:
            data.popitem(last=False)

    def cache_clear() -> None:
        data.clear()
        counts[:] = [0, 0]

    return SimpleNamespace(
        take=take, put=put, cache_clear=cache_clear,
        cache_info=lambda: _CacheInfo(*counts, maxsize, len(data)))


# A serial scan of p=7, n<=5 in spec order holds at most 3,895 open pairs.
_partners = _read_once_store(4096)


def _mirrored(res: SupNormResult, p: int) -> SupNormResult:
    """``res``, one pair member's scan, as the other's: ``|W~(g(t,k,v))| =
    |W(g(t,k,-v))|`` moves a multi-live row's tied point to ``-v``; a single-live
    row's stays at ``units[0]``.  The witness is the first in (k, t, dlog v)."""
    ties = tuple((r if single else Representative(r.t, r.k, -r.v % p ** r.k), single)
                 for r, single in res.ties)
    witness = min((r for r, _ in ties), key=lambda r: (r.k, r.t, unit_group(p, r.k).index(r.v)))
    return replace(res, witness=witness, ties=ties)


def _scan(rep: Representation) -> SupNormResult:
    """:func:`sup_norm` from ``rep``'s own levels, without its consistency guard.

    Scans the newvector's levels k <= n/2 over the complete representative
    domain; the tail certificates of the coefficient tables bound everything
    beyond the window.  The scan takes two steps.  Every level is staged
    first (:func:`_stage`): its single-live moduli are read and its other
    points screened in complex128 (:func:`_screen`).  Then
    :func:`_domain_values` synthesizes the largest screened point of the
    whole domain at working precision, sets one tie floor from that value
    and the largest single-live modulus, and synthesizes only the points at
    or above it, in (k, t, dlog v) order.  Every point that can be the
    maximum or tie with it is synthesized exactly as without the screen, so
    the result is the one of synthesizing every point.  Tied values: the
    witness is the first of them in (k, t, dlog v) order, the order of the
    scan.

    The levels above n/2 hold no other moduli.  The Atkin-Lehner relation
    (:func:`atkin_lehner_reduce`) gives
    ``W(g(t,k,v)) = phase W~(g(t + 2k - n, n - k, -v))`` with
    ``|phase| = 1``, and the contragredient newvector is the conjugate one,
    ``W~(g(t,k,v)) = omega(-1) conj W(g(t,k,-v))``.
    Together ``|W(g(t,k,v))| = |W(g(t + 2k - n, n - k, v))|``, and
    ``t >= -k - n`` exactly when ``t + 2k - n >= -(n - k) - n``, so each
    point of level k > n/2 has the modulus of a scanned point or of one
    beyond the window.  The same identity, expanded in ``v``, gives the
    contragredient's exact coefficients the moduli
    ``|c~[t,k](nu)| = |c[t,k](nu^-1)|``, so the newvector's own tail bounds
    certify the levels above n/2 as well.

    At DEBUG level the ``padwhit`` logger counts the points screened and
    synthesized, the columns solved and read from exact arrays, the heads
    embedded, and the conductor-1 factors formed at working precision.
    """
    n, p = rep.n, rep.p
    t_max = _window(rep)
    tie = 1 - TIE_ULPS * mpf(2) ** -mp.prec
    levels = [_build_level(rep, k) for k in range(n // 2 + 1)]
    values, screened, synthesized = _domain_values(
        [_stage(level, character_table(p, k), -k - n, t_max)
         for k, level in enumerate(levels)], tie)
    h = mpf(-1)
    cands: list[tuple] = []
    for k, entries in enumerate(values):
        threshold = h * tie
        for value, t, v in entries:
            if value > h:
                h = value
                threshold = h * tie
            if value >= threshold:
                cands.append((value, Representative(t, k, v),
                              len(levels[k].by_t[t]) == 1))
    tail_sup = max([mpf(0), *(_tail_sup_level(level, t_max) for level in levels)])
    if log.isEnabledFor(logging.DEBUG):
        solved = sum(level.solved for level in levels)
        size = sum(len(level.chars) for level in levels)
        factors = [level.heads[i][6] for level in levels for row in level.rows.values()
                   for i, _ in row if i in level.heads]
        log.debug("scan of %s: %d points screened in complex128, %d synthesized "
                  "at %d bits; %d columns solved by coefficient_table, %d read "
                  "from exact arrays, %d exact heads embedded, %d conductor-1 "
                  "factors formed at working precision", rep.spec_string(),
                  screened, synthesized, mp.prec, solved, size - solved,
                  len(factors), sum(isinstance(f, _Epsilons) for f in factors))
    ties = tuple((r, single) for value, r, single in cands if value >= h * tie)
    certified = tail_sup < h * (1 - mpf("1e-12"))
    lower, upper = theorem_refs(rep)
    return SupNormResult(h, ties[0][0], certified, lower, upper, t_max, tail_sup, ties)


class _Stage(NamedTuple):
    """One level of :func:`sup_norm`'s domain after :func:`_stage`."""

    level: Level
    char_values: tuple  # character_table(p, k): (units, rows, table)
    order: list  # the rows t in [lo, hi], ascending
    single: dict  # t -> |c| of the single-live rows that are read
    multi: list  # the rows t with two or more live characters
    upper: np.ndarray | None  # screened upper bound per (multi row, unit)


def _stage(level: Level, char_values, lo: int, hi: int) -> _Stage:
    """Step one of :func:`sup_norm` for one level and its rows
    ``lo <= t <= hi``: read the single-live moduli and screen the rest.
    Column i of ``level`` is that of the character of row i of
    ``char_values``, as :func:`_build_level` builds them.

    Points with one live character are read off exactly, and only the first
    of a column's such rows that its ``moduli`` cover, since they fall from
    there on.  The others are screened by :func:`_screen`, and ``upper``
    bounds the working-precision value of each from above.  A coefficient
    outside the float64 range leaves ``upper`` None, and every point of the
    level is synthesized.
    """
    by_t, tables = level.by_t, level.tables
    order = sorted(t for t in by_t if lo <= t <= hi)
    multi = [t for t in order if len(by_t[t]) > 1]
    # A single character: |W| is the same for every v, |c| of its column.
    # Where moduli cover t, |c| falls by q^(-sigma/2) <= 2^(-1/2) a degree,
    # so a column's later single rows can neither be the maximum nor tie.
    single, falling = {}, set()
    for t in order:
        if len(by_t[t]) == 1 and by_t[t][0] not in falling:
            i = by_t[t][0]
            single[t] = level.modulus(i, t)
            tab = tables.get(i)
            if tab and tab.moduli and tab.moduli[2] > 0 and t + tab.A >= tab.moduli[0]:
                falling.add(i)
    screen = _screen([[(i, level.complex128(i, t)) for i in by_t[t]]
                      for t in multi], char_values[2]) if multi else None
    upper = None if screen is None else screen[0] + screen[1][:, None]
    return _Stage(level, char_values, order, single, multi, upper)


def _domain_values(stages, tie: mpf):
    """Step two of :func:`sup_norm`: per stage, the working-precision values
    ``(|W(g(t,k,v))|, t, v)``, in (t, dlog v) order, of every point that
    can reach the tie threshold ``h * tie`` of the maximum ``h`` over all
    stages; then how many points were screened in complex128 and how many
    synthesized.

    The point with the largest screened upper bound, the first in stage
    order on a tie, is synthesized first, unless that bound lies below the
    :func:`_tie_floor` of the largest single-live modulus.  That value and
    that modulus set one floor.  A point whose upper bound lies below it can
    neither be the maximum nor tie with it, so it is skipped; every other
    point is synthesized, by the same operations as without the screen.
    """
    best = max([mpf(-1), *(m for st in stages for m in st.single.values())])
    top = None
    for s, st in enumerate(stages):
        if st.upper is not None and st.upper.size:
            r, j = divmod(int(np.argmax(st.upper)), st.upper.shape[1])
            if top is None or st.upper[r, j] > stages[top[0]].upper[top[1:]]:
                top = s, r, j
    if top is not None and stages[top[0]].upper[top[1:]] < _tie_floor(best, tie):
        top = None
    if top is not None:
        st = stages[top[0]]
        top_value = _synthesize(st.level.row(st.multi[top[1]]), st.char_values[1], top[2])
        best = max(best, top_value)
    floor = _tie_floor(best, tie)
    out, screened, synthesized = [], 0, 0
    for s, st in enumerate(stages):
        units, rows, _ = st.char_values
        if st.upper is None:
            keep = np.ones((len(st.multi), len(units)), dtype=bool)
        else:
            keep = ~(st.upper < floor)
            screened += keep.size
        synthesized += int(keep.sum())
        entries, r = [], 0
        for t in st.order:
            if len(st.level.by_t[t]) == 1:
                if t in st.single:
                    entries.append((st.single[t], t, units[0]))
                continue
            for j in np.flatnonzero(keep[r]).tolist():
                value = (top_value if (s, r, j) == top
                         else _synthesize(st.level.row(t), rows, j))
                entries.append((value, t, units[j]))
            r += 1
        out.append(entries)
    return out, screened, synthesized


def _synthesize(live, rows, j: int) -> mpf:
    """|sum_i c_i chi_i(v_j)| at working precision, summed in table order."""
    w = mpc(0)
    for i, c in live:
        w += c * rows[i][j]
    return abs(w)


# Unit roundoff of complex128 arithmetic, and the absolute error of one
# complex128 operation that underflows.
_F64_U = 2.0**-53
_F64_ETA = 2.0**-1074


def _screen(multi, table):
    """complex128 values ``|sum_i c_i chi_i(v_j)|`` for the rows ``multi``
    (per t, the live ``(i, z_i)``, ``z_i`` the complex128 coefficient that
    :meth:`Level.complex128` gives, or an ``mpc``) and the
    character table ``table``, with a bound per row on their distance from
    the working-precision values, or None when a coefficient is not finite
    in float64.

    A-priori bound (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 3), with ``m`` characters, ``u = 2^-53``,
    ``w = 2^-prec`` (``w <= u``), ``gamma_k = k u / (1 - k u)`` and
    ``P = sum_i |c_i| |chi_i(v)|``, where ``|chi_i(v)| <= 1 + 2w``.  An
    mpmath operation or a conversion to complex128 errs by at most ``w``,
    resp. ``2u`` (mpmath may round toward zero), relative per part; a
    q-power or a division, with its guard bits, by ``2w``; a complex128
    product by a real by ``u``, and one of two complex numbers by
    ``sqrt(2) gamma_2 < 2.9u``.

    * Each ``z_i`` is within ``alpha |c_i|`` of the working-precision
      coefficient ``c_i``:

      - a column that is not a head: ``z_i`` is ``c_i`` converted,
        ``alpha = 2u``;
      - an exact monomial: ``c_i = r Z`` is its rational ``r`` times its
        embedded root and q-power ``Z``, rounded once (``w``); ``z_i`` is
        ``Z`` and ``r`` converted (2u each) and multiplied (u):
        ``alpha = 5u + w``;
      - a head with conductor-1 factors: measure both from the exact
        ``X = r zeta q^(-(s+e)/2) E_mu / (E_1 E_2)`` of its embedded root
        ``zeta`` and the working-precision epsilon values ``E``
        (:class:`_Epsilons`).  ``c_i = ((r Z_s) A) Q_e``, with ``Z_s``
        within 3w of ``zeta q^(-s/2)`` (a q-power and a product), ``Q_e``
        within 2w of ``q^(-e/2)`` and ``A = E_mu / (E_1 E_2)``; its four
        products and one division add 6w, so ``c_i`` is within 11w of
        ``X``.
        ``z_i = (Z_(s+e) r) ((E_mu 1/E_1) 1/E_2)``, from ``Z_(s+e)`` (3w),
        the five conversions of ``Z_(s+e)``, ``r``, ``E_mu``, ``1/E_1`` and
        ``1/E_2`` (10u), the two working-precision reciprocals (4w), the
        product by ``r`` (u) and three complex products (8.7u), is within
        ``19.7u + 7w`` of ``X``.  So ``alpha = 19.7u + 18w``;
    * converting ``chi_i(v)`` adds 2u, so each product moves by at most
      ``(alpha + 2u + 2 alpha u) |c_i| |chi_i(v)|``;
    * the real and imaginary parts of the product are real inner products
      of length 2m, which any summation order, with or without fused
      multiply-adds, computes within ``gamma_2m sum_i |z_i| |chi_i^(v)|``,
      so the complex sum within ``sqrt(2) gamma_2m (1 + alpha)(1 + 2u) P``;
    * ``abs`` (hypot) adds at most ``u`` relative;
    * the working-precision loop itself errs by at most
      ``sqrt(2) gamma^w_2m P + w |W|``.

    That is ``(2.9 m + 22.7)(u + w) P`` to first order.  The bound used,
    ``(4 m + 32)(u + w) sum_i |z_i|``, leaves room for the second-order
    terms, for ``P <= (1 + 2w)(1 + 2u)(1 + alpha) sum_i |z_i|`` and for the
    rounding of the bound itself; ``(30 m + 16) 2^-1074`` covers underflow,
    the up to four products that form a head's ``z_i`` included.
    """
    m = table.shape[0]
    coeffs = np.zeros((len(multi), m), dtype=np.complex128)
    for r, live in enumerate(multi):
        for i, z in live:
            coeffs[r, i] = complex(z)
    if not np.isfinite(coeffs).all():
        return None
    w = math.ldexp(1.0, -mp.prec)
    bounds = ((4 * m + 32) * (_F64_U + w) * np.abs(coeffs).sum(axis=1)
              + (30 * m + 16) * _F64_ETA)
    return np.abs(coeffs @ table), bounds


def _tie_floor(best: mpf, tie: mpf) -> float:
    """A float below the working-precision tie threshold ``h * tie`` of
    every maximum ``h >= best``.  Five roundings separate a screened upper
    bound from that threshold: of ``best * tie``, of its float conversion,
    of this scaling, of the upper bound's last addition and of ``h * tie``,
    each at most ``u`` or ``w`` relative, so the factor ``1 - 4(u + w)``
    keeps the floor under it.  An upper bound below the floor can neither
    be the maximum nor tie with it."""
    if best <= 0:
        return -math.inf
    return float(best * tie) * (1 - 4 * (_F64_U + math.ldexp(1.0, -mp.prec)))


def _tail_sup_level(level: Level, t_max: int) -> mpf:
    """Certified sup over t > t_max of the synthesized value bound
    sum_mu |c[t,k](mu)| of one level: its value at t_max + 1.

    Every tail bound decreases in t.  Its ``a0 >= a1 d_from`` and
    ``d_from >= 20``, and the Satake parameters of a unitary representation
    have ``rho <= 1``, so one step scales it by at most
    ``(1 + 1/d_from) rho q^(-1/2) <= (21/20)/sqrt(2) < 1``.

    The sum is rounded up (:func:`_rounded_up`), so it bounds the exact sum
    of the stored tail bounds.  Counting roundings, with every integer power
    as two, ``a0 + a1 s`` is within 2, times ``rho^s`` within 5, times
    ``q^(-d/2)`` (two) within 8; the terms are positive, so summing ``m``
    columns from zero adds ``m - 1``: ``k = m + 7``.  Only the columns with
    partial fractions (``level.tails``) are read: the others have an
    identically zero tail, whose exact zeros would change no bit of the
    sum, but each still counts in ``m``.
    """
    sup = mpf(0)
    for _, tab in level.tails:
        sup += tab.tail.coeff_bound(t_max + 1)
    return _rounded_up(sup, len(level.chars) + 7)


def lower_bound_witness(rep: Representation) -> Representative:
    """The representative at which aligned epsilon phases force a large value,
    for principal series with cond(chi1) > 2 cond(chi2)."""
    if not isinstance(rep, PrincipalSeries):
        raise ValueError("witness construction applies to principal series only")
    a1 = rep.chi1.conductor
    a2 = rep.chi2.conductor
    if a1 <= 2 * a2:
        raise ValueError(
            f"witness needs cond(chi1) > 2 cond(chi2); got ({a1}, {a2})"
        )
    p, n = rep.p, rep.n
    chi1u = rep.chi1.unit_part
    if a2 == 0:
        n0 = n // 2
        return Representative(-n0 - n, n0, critical_unit(chi1u))
    k = a1 // 2
    v0 = critical_unit(chi1u)
    gap = k - a2
    if gap >= 1:
        w0 = v0 * (1 + p**gap) % p**k
    else:
        # Degenerate boundary floor(a1/2) = a2: the aligned coset collapses;
        # fall back to the aligning unit itself.
        w0 = v0 * (1 + 1) % p**k if p != 2 else v0
    return Representative(-(3 * a1 // 2), k, w0)


def supercuspidal_closed_value(rep: Representation, r: Representative) -> mpc:
    """Direct transcription of the trivial-L-factor closed form: a delta term
    at t = -n plus an epsilon-pair sum over characters of exact level k.

    Independent of the generic solver path; used to cross-check it.
    """
    if not isinstance(rep, SupercuspidalOracle):
        raise ValueError("closed form applies to the supercuspidal descriptor")
    _validate_rep_triple(rep, r)
    n, p = rep.n, rep.p
    t, k, v = r.t, r.k, r.v
    omega_inv = rep.omega.inverse()
    eps_dual = rep.twist_data(omega_inv).eps
    if k == 0:
        return eps_dual if t == -n else mpc(0)
    total = mpc(0)
    if t == -n:
        g = mpc(-zeta1(p) / p) if k == 1 else mpc(0)
        total += g * eps_dual
    acc = mpc(0)
    for mu in characters_mod(p, k):
        if mu.conductor != k:
            continue
        if rep.twist_data(mu).A != -t:
            continue
        term = epsilon_factor(mu) * rep.twist_data(mu.inverse() * omega_inv).eps
        acc += term * mu.eval_unit(v).embed()
    total += zeta1_q_power(p, k) * acc
    return total


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over Q, read p-adically: the prime ``p`` and four exact
    ``Fraction`` entries.  Valuations and unit residues are decided exactly,
    so every invertible matrix reduces."""

    p: int
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def from_rationals(cls, p: int, entries, K: int | None = None) -> "Mat2":
        """The matrix ``[[a, b], [c, d]]``, each entry read as ``Fraction(x)``
        (a float converts to its exact dyadic value).

        ``K`` is ignored.  It is kept, and refused below 1, only for the
        point-values workload in ``perfbench/workloads.py``, which still
        passes a digit count."""
        if K is not None and K < 1:
            raise ValueError("working exponent K must be >= 1")
        return cls(p, *(Fraction(x) for x in entries))


def _decompose(g: Mat2, n: int):
    """:func:`decompose_matrix` with ``u`` and ``x`` as ``(e, num, den)``,
    ``p^e num / den`` (``num = 0`` for 0): valuations and unit parts read off
    integer numerators and denominators (``det``'s over all four)."""
    p, a, b, c, d = g.p, g.a, g.b, g.c, g.d
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    cn, cd, dn, dd = c.numerator, c.denominator, d.numerator, d.denominator
    det = an * dn * bd * cd - bn * cn * ad * dd
    if not det:
        raise ValueError("matrix is singular")
    t_det, det_n, det_d = split_integers(p, det, ad * dd * bd * cd)
    C = split_integers(p, cn, cd) if cn else None
    D = split_integers(p, dn, dd) if dn else None
    k = n if C is None else 0 if D is None else min(max(C[0] - D[0], 0), n)
    if k == n:
        # The lower-triangular kappa [[1, 0], [-c/d, 1]] lies in the level-n
        # subgroup and zeroes c, leaving the upper-left entry det/d; peel
        # z(d) n(b/d) a(y) off the upper triangular result and canonicalize
        # the level-n representative to v = 1.  u = -det/d p^(n - t_y), and
        # x = b/d + p^s = p^m (p^(e - m) num/den + p^(s - m)), m = min(e, s).
        vd, d_num, d_den = D
        t_y = t_det - 2 * vd
        e, num, den = split_integers(p, bn, bd) if bn else (0, 0, 1)
        e, num, den, s = e - vd, num * d_den, den * d_num, t_y - n
        m = min(e, s)
        x = num * p ** (e - m) + den * p ** (s - m)
        f, x, den = split_integers(p, x, den) if x else (0, 0, 1)
        u = (n + vd, -det_n * d_den, det_d * d_num)
        return u, (m + f, x, den), Representative(t_y - 2 * n, n, 1)
    # u = -c and x = a/c.  v is the unit -y p^k / delta, with
    # delta = det p^-t / c^2 and y = -e/c: e = d, unless d/c is integral
    # (k = 0), where a unipotent kappa on the right slides y to -1 and e = c.
    vc, c_num, c_den = C
    E = C if D is None or D[0] > vc else D
    mod = p ** max(k, 1)
    v = c_num * E[1] * det_d * pow(c_den * E[2] * det_n, -1, mod) % mod
    A = split_integers(p, an, ad) if an else (0, 0, 1)
    x = (A[0] - vc, A[1] * c_den, A[2] * c_num)
    return (vc, -c_num, c_den), x, Representative(t_det - 2 * vc, k, v)


def decompose_matrix(g: Mat2, n: int):
    """Write ``g = z(u) n(x) g(t,k,v) kappa`` with kappa in the level-n
    subgroup (upper-left entry 1 mod p^n, lower-left entry in p^n Z_p).

    Returns ``(u, x, Representative(t, k, v))``: ``u`` and ``x`` are exact
    ``Fraction``s, formed last from :func:`_decompose`'s integers, and ``v``
    is an integer representing its class mod p^k.
    """
    u, x, r = _decompose(g, n)
    return (*(Fraction(num, den) * Fraction(g.p) ** e for e, num, den in (u, x)), r)


def reduce_matrix(rep: Representation, g: Mat2):
    """Phases and representative with ``W(g) = psi_phase * omega_phase * W(g(t,k,v))``:
    ``psi(x)`` and ``omega(u)`` of :func:`decompose_matrix`'s ``u`` and ``x``,
    read off their integer unit parts (:func:`_decompose`), no ``Fraction``
    or ``PAdicApprox`` formed."""
    (_, u_num, u_den), (e, num, den), r = _decompose(g, rep.n)
    p, psi_phase = rep.p, ONE
    if num and e < 0:
        psi_phase = RootOfUnity(num * pow(den, -1, p**-e), p**-e)
    mod = p ** max(rep.m, 1)
    return psi_phase, rep.omega.eval_unit(u_num * pow(u_den, -1, mod) % mod), r
