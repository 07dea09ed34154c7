"""Whittaker newvector engine.

Values are organized along the double-coset representatives
``g(t, k, v) = diag(p^t, 1) . w . n(p^-k v)`` with ``t`` an integer,
``0 <= k <= n`` and ``v`` a unit mod ``p^min(k, n-k)``; these exhaust the
group modulo the center, the unipotent upper triangulars, and the level
subgroup.  For each level ``k`` and unit character ``mu`` the function
``v -> W(g(t,k,v))`` has a Fourier coefficient ``c[t,k](mu)``, and the local
functional equation pins the generating function of ``t -> c[t,k](mu)`` as an
explicit rational function of X = q^-s: a numerator of at most three terms
over at most two linear Euler factors.  The solver builds that function in
closed form (the diagonal data is finite plus geometric, with the geometric
part cancelling exactly against the matching dual Euler factor) and reads
every coefficient off the partial fractions, a finite head plus a geometric
tail in the Satake parameters.

Columns with ``k > n/2`` are never solved directly in normal operation; point
values there reduce to the contragredient at ``n - k`` through the
generalized Atkin-Lehner relation.  The direct solve remains available behind
``direct=True`` precisely so the reduction can be tested against it.
:func:`sup_norm` needs neither: the newvector's own levels ``k <= n/2`` hold
every modulus of ``W``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpc, mpf

from .characters import (
    UnitCharacter,
    character_table,
    characters_mod,
    critical_unit,
    epsilon_factor,
    epsilon_root,
    zeta1,
    zeta1_q_power,
)
from .numerics import (
    ONE,
    RootOfUnity,
    ScaledRoot,
    expand_geometric,
    perturbed,
    q_power,
    working_cache,
)
from .padics import PAdicApprox, psi_eval, split_rational, unit_group
from .representations import (
    PrincipalSeries,
    Representation,
    SupercuspidalOracle,
    trivial_character,
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
    ``|c[t]| = K q^(-(sigma d + tau)/2)`` for every ``d >= d_lo``: a
    monomial column whose head is exact, or one simple partial fraction."""

    __slots__ = ("k", "mu", "A", "coeffs", "tail", "parts", "moduli")

    def __init__(self, k: int, mu: UnitCharacter, A: int, coeffs: dict,
                 tail: TailBound, parts: tuple, moduli: tuple | None = None):
        self.k = k
        self.mu = mu
        self.A = A
        self.coeffs = coeffs
        self.tail = tail
        self.parts = parts
        self.moduli = moduli

    def value(self, t: int) -> mpc:
        d = t + self.A
        if not self.parts or d <= self.tail.d_from:
            return self.coeffs.get(t, mpc(0))
        return _closed_form(self.parts, d, d)[0]

    def modulus(self, t: int, c: mpc) -> mpf:
        """``|c|`` for the coefficient ``c`` at ``t``: read off ``moduli``
        where they cover ``t``, else ``abs(c)``."""
        if self.moduli is not None:
            d_lo, K, sigma, tau = self.moduli
            d = t + self.A
            if d >= d_lo:
                return K * q_power(self.tail.q, sigma * d + tau)
        return abs(c)

    def __repr__(self):
        return f"CoefficientTable(k={self.k}, mu={self.mu!r}, {len(self.coeffs)} coeffs)"


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
def _rational(num: int, den: int) -> mpf:
    return mpf(num) / den


_ZERO = mpf(0)


def _no_tail(d_from: int, A: int, p: int) -> TailBound:
    """The tail bound of a column with no Satake root left: zero."""
    return TailBound(_ZERO, _ZERO, _ZERO, d_from, A, p)


def coefficient_table(rep: Representation, k: int,
                      mu: UnitCharacter) -> CoefficientTable:
    """Solve the functional-equation identity for the column (k, mu), from
    the twist data of ``rep`` and its exact diagonal ratio (None for a
    diagonal supported at t = 0).  Columns with cond(mu) > k are identically
    zero and come back empty.

    The generating function of ``d -> c[d - A, k](mu) q^(d/2)`` is
    ``C X^e prod_j (1 - c_j X^-1) / prod_i (1 - a_i X)``: the ``c_j`` are the
    dual Euler roots and the ``a_i`` the Satake parameters.  A dual factor
    with ``c_j a_i = 1`` cancels its Euler factor to ``-c_j X^-1``, an exact
    decision on :class:`ScaledRoot` values.

    ``C`` is kept as ``num/den`` times an exact :class:`ScaledRoot` times a
    numeric factor, which is there only when ``mu`` or the twist has an
    epsilon factor that is not a root of unity (conductor 1, or an oracle
    table).  Otherwise ``C`` has no complex division, and a monomial column
    (no dual factor left, no Satake root) is its rational times one exact
    root, embedded once.  :func:`perturb_epsilon` scales the rational by
    ``(1 + delta)`` per exact ramified epsilon factor in the numerator and
    by ``(1 + delta)^-1`` per one in the denominator.
    """
    if not 0 <= k <= rep.n:
        raise ValueError(f"level k={k} outside [0, {rep.n}]")
    p = rep.p
    if mu.conductor > k:
        return CoefficientTable(k, mu, 0, {}, _no_tail(-10**9, 0, p), ())
    td = rep.twist_data(mu)
    ratio = rep.diagonal_ratio()
    duals = [g.shift(2) for g in td.l_den]
    approx = None
    ramified = 0
    root = ScaledRoot(ONE, p)
    if mu.is_trivial() and ratio is None:
        # 1 at k = 0; -zeta(1)/q = -1/(p - 1) at k = 1.
        (num, den), e = {0: (1, 1), 1: (-1, p - 1)}.get(k, (0, 1)), 0
    elif mu.is_trivial():
        # The diagonal's geometric tail cancels the dual Euler factor with
        # root rho; as 1 + zeta(1)/q = zeta(1), the finite head and that tail
        # sum to -(zeta(1)/q) rho^(k-1) X^(1-k) (1 - q rho X^-1) for k >= 1.
        rho = ratio.shift(1)
        matches = [i for i, c in enumerate(duals) if c == rho]
        if len(matches) != 1:
            raise RuntimeError(
                "no dual Euler factor cancels the geometric diagonal tail"
            )
        del duals[matches[0]]
        num, den, e = 1, 1, 0
        if k >= 1:
            num, den, root, e = -1, p - 1, rho ** (k - 1), 1 - k
            duals.append(rho.shift(-2))
    else:
        # zeta(1) q^(-a/2) eps(mu), with zeta(1) = p/(p - 1).
        a_star = k - mu.conductor
        num, den, e = p, p - 1, -a_star
        eps_mu = epsilon_root(mu)
        if eps_mu is None:
            eps_mu, approx = ONE, epsilon_factor(mu)
        else:
            ramified = 1
        root = ScaledRoot(eps_mu, p, mu.conductor)
        if ratio is not None:
            root = root * ratio.shift(1) ** a_star
        elif a_star != 0:
            num = 0

    if not num:
        return CoefficientTable(k, mu, td.A, {}, _no_tail(-10**9, td.A, p), ())

    roots = list(td.l_num)
    for c in list(duals):
        if c.inverse() in roots:
            roots.remove(c.inverse())
            duals.remove(c)
            num, root = -num, root * c
            e -= 1
    # The sign omega(-1) over the twist's epsilon factor.
    if not rep.omega.at_minus_one().is_one():
        num = -num
    if td.root is not None:
        root = root * ScaledRoot(td.root.inverse(), p)
        ramified -= td.ramified
    else:
        approx = 1 / td.eps if approx is None else approx / td.eps
    scalar = perturbed(_rational(num, den), ramified)
    A = td.A
    d_last = _window(rep) + A
    if not duals and not roots and approx is None:
        # theta_e q^(-e/2), the whole column, is exact up to its rational.
        c = scalar * root.shift(e).embed()
        return CoefficientTable(k, mu, A, {e - A: c}, _no_tail(d_last, A, p), (),
                                (e, abs(scalar), 1, root.s))

    coeff = scalar * root.embed()
    if approx is not None:
        coeff *= approx
    # C X^e prod_j (1 - c_j X^-1), with C = coeff.
    terms = {e: coeff}
    if duals:
        terms[e - 1] = -coeff * sum((c.embed() for c in duals), mpc(0))
    if len(duals) == 2:
        terms[e - 2] = coeff * (duals[0] * duals[1]).embed()
    head, parts = expand_geometric(terms, tuple(roots))
    coeffs = {d - A: c * q_power(p, d) for d, c in head.items()}
    # Past the head, theta_d q^(-d/2) = sum (b0 + b1 d) w^d, w = a q^(-1/2).
    parts_w = tuple((b0, b1, a.shift(1)) for b0, b1, a in parts)
    moduli = None
    if parts_w:
        # The head ends at e, the degree of the leading numerator term.
        for d, c in enumerate(_closed_form(parts_w, e + 1, d_last), e + 1):
            if c:
                coeffs[d - A] = c
        if len(parts_w) == 1 and not parts_w[0][1]:
            b0, _, w = parts_w[0]
            moduli = (e + 1, abs(b0), w.s, 0)
    # The roots left after the cancellation; none: an identically zero tail.
    rho = max((a.modulus() for a in roots), default=mpf(0))
    a0 = a1 = mpf(0)
    for b0, b1, a in parts:
        amp = abs(a.embed()) ** d_last
        a0 += (abs(b0) + abs(b1) * d_last) * amp
        a1 += abs(b1) * amp
    tail = TailBound(a0, a1, rho, d_last, A, p)
    return CoefficientTable(k, mu, A, coeffs, tail, parts_w, moduli)


# Bounded like _dual, which wraps it, so that a long run of point values
# above n/2 does not keep one dual per descriptor it has ever seen.  A
# recomputed dual equals the evicted one, so it still finds its levels in
# the level cache.
@lru_cache(maxsize=1024)
def contragredient_of(rep: Representation) -> Representation:
    return rep.contragredient()


class Level:
    """The columns of one level k, in :func:`characters_mod` order, indexed
    by ``t``.

    ``by_t[t]`` lists the nonzero stored coefficients ``(i, c)`` at ``t`` in
    column order; ``tails`` lists ``(i, column)`` for the columns with
    partial fractions, the only ones nonzero past ``window``.
    """

    __slots__ = ("columns", "by_t", "tails", "window")

    def __init__(self, columns, window: int):
        self.columns = tuple(columns)
        self.window = window
        by_t: dict = {}
        for i, tab in enumerate(self.columns):
            for t, c in tab.coeffs.items():
                if c:
                    by_t.setdefault(t, []).append((i, c))
        self.by_t = {t: tuple(live) for t, live in by_t.items()}
        self.tails = tuple((i, tab) for i, tab in enumerate(self.columns)
                           if tab.parts)

    def live(self, t: int):
        """The nonzero ``(i, c[t,k](mu_i))``, in column order."""
        if t <= self.window:
            return self.by_t.get(t, ())
        live = []
        for i, tab in self.tails:
            c = tab.value(t)
            if c != 0:
                live.append((i, c))
        return live


# Bounded, so that a long scan does not keep every level it ever solved; the
# largest working set in use, ~400 descriptors of conductor <= 4 queried at
# random points, holds about 1,200 levels.
@working_cache(maxsize=2048)
def tables_for_level(rep: Representation, k: int) -> Level:
    """The :class:`Level` of every unit character of level <= k."""
    return Level((coefficient_table(rep, k, mu)
                  for mu in characters_mod(rep.p, k)), _window(rep))


# The Atkin-Lehner data of a descriptor: its contragredient and the
# contragredient's root number.
@working_cache(maxsize=1024)
def _dual(rep: Representation):
    dual = contragredient_of(rep)
    return dual, dual.twist_data(trivial_character(rep.p)).eps


def _validate_rep_triple(rep: Representation, r: Representative) -> None:
    if not 0 <= r.k <= rep.n:
        raise ValueError(f"level index k={r.k} outside [0, {rep.n}]")
    if r.v % rep.p == 0:
        raise ValueError(f"v={r.v} is not a unit at p={rep.p}")


def whittaker_value(rep: Representation, r: Representative,
                    direct: bool = False) -> mpc:
    """Value of the normalized newvector at the representative ``r``.

    Fourier synthesis over the level-k character group when ``2k <= n`` (or
    when forced by ``direct``): the sum of ``c[t,k](mu) mu(v)`` over the
    characters live at ``t``, in column order, with ``mu(v)`` read from the
    cached character table.  Otherwise one Atkin-Lehner reduction to the
    contragredient at level ``n - k``.
    """
    _validate_rep_triple(rep, r)
    n = rep.n
    if r.t < -r.k - n:
        return mpc(0)
    if 2 * r.k <= n or direct:
        p, k = rep.p, r.k
        rows = character_table(p, k)[1]
        j = unit_group(p, k).index(r.v)
        total = mpc(0)
        for i, c in tables_for_level(rep, k).live(r.t):
            total += c * rows[i][j]
        return total
    phase, reduced, dual = atkin_lehner_reduce(rep, r)
    return phase * whittaker_value(dual, reduced)


def conjugate_value(rep: Representation, r: Representative) -> mpc:
    """Value of the opposite-invariance variant; equals the contragredient's
    newvector on every representative."""
    return whittaker_value(contragredient_of(rep), r)


def atkin_lehner_reduce(rep: Representation, r: Representative):
    """Phase and reduced triple with
    ``W(r) = phase * W~(g(t + 2k - n, n - k, -v))`` for the contragredient
    newvector W~; the phase has modulus 1."""
    _validate_rep_triple(rep, r)
    n, p = rep.n, rep.p
    dual, eps_dual = _dual(rep)
    phase_root = rep.omega.eval_unit(r.v).inverse()
    s = r.t + r.k
    if s < 0:
        mod = p**-s
        phase_root = phase_root * RootOfUnity(-pow(r.v, -1, mod), mod)
    k2 = n - r.k
    v2 = (-r.v) % (p ** max(k2, 1))
    reduced = Representative(r.t + 2 * r.k - n, k2, v2)
    return eps_dual * phase_root.embed(), reduced, dual


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
    return value * (1 + mp.ldexp(1, 1 - mp.prec)) ** (k + 3)


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


def theorem_refs(rep: Representation):
    """Reference magnitudes (lower, upper) the sup-norm is sandwiched by."""
    q = mpf(rep.p)
    lower = max(mp.power(q, mpf(3 * rep.m // 2) / 2 - mpf(rep.n) / 2), mpf(1))
    upper = mp.power(q, mpf(rep.n // 2) / 2)
    return lower, upper


def sup_norm(rep: Representation, tolerance=mpf("1e-9")) -> SupNormResult:
    """Certified maximum of |W| over the whole group.

    Scans the newvector's levels k <= n/2 over the complete representative
    domain; the tail certificates of the coefficient tables bound everything
    beyond the window.  Each level is screened in complex128
    (:func:`_screen`) and only the points that can reach the tie threshold
    of the maximum are synthesized at working precision, so the result is
    the one of synthesizing every point.  Tied values: the witness is the
    first of them in (k, t, dlog v) order, the order of the scan.

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

    ``tolerance`` only guards consistency: a normalized newvector has
    ``|W(1)| = 1``, so ``h < 1 - tolerance`` raises ``RuntimeError``.  It
    does not enter ``certified``, which compares the tail bound with ``h``
    by the fixed margin ``1e-12``.
    """
    n, p = rep.n, rep.p
    t_max = _window(rep)
    h = mpf(-1)
    tie = 1 - TIE_ULPS * mpf(2) ** -mp.prec
    cands: list[tuple] = []
    tail_sup = mpf(0)
    screened = synthesized = 0
    for k in range(n // 2 + 1):
        level = tables_for_level(rep, k)
        entries, n_screened, n_synthesized = _level_values(
            level, character_table(p, k), -k - n, t_max, h, tie)
        screened += n_screened
        synthesized += n_synthesized
        threshold = h * tie
        for value, t, v in entries:
            if value > h:
                h = value
                threshold = h * tie
            if value >= threshold:
                cands.append((value, Representative(t, k, v)))
        tail_sup = max(tail_sup, _tail_sup_level(level.columns, t_max))
    log.debug("sup_norm %s: %d points screened in complex128, %d "
              "synthesized at %d bits", rep.spec_string(), screened,
              synthesized, mp.prec)
    witness = next(r for value, r in cands if value >= h * tie)
    if h < 1 - tolerance:
        raise RuntimeError(f"sup-norm {h} below 1; the solver is inconsistent")
    certified = tail_sup < h * (1 - mpf("1e-12"))
    if not certified:
        log.info("sup_norm %s not certified: tail_sup %s is not below "
                 "h %s by the margin 1e-12", rep.spec_string(),
                 mp.nstr(tail_sup, 17), mp.nstr(h, 17))
    lower, upper = theorem_refs(rep)
    return SupNormResult(h, witness, certified, lower, upper, t_max, tail_sup)


def _level_values(level: Level, char_values, lo: int, hi: int, best: mpf,
                  tie: mpf):
    """Working-precision values ``(|W(g(t,k,v))|, t, v)`` of one level, in
    (t, dlog v) order, for every point with ``lo <= t <= hi`` that can reach
    the tie threshold ``best * tie`` of the maximum (``best``: the largest
    value found so far); then how many points with two or more live
    characters were screened in complex128 and how many synthesized.
    ``level.columns[i]`` is the column of the character of row i of
    ``char_values``, as :func:`tables_for_level` builds them.

    Points with one live character are read off exactly.  The others are
    screened by :func:`_screen`; a point is skipped only when its upper bound
    lies below :func:`_tie_floor` of a value already known, so every point
    that can be the maximum or tie with it is synthesized exactly as without
    the screen.  A coefficient outside the float64 range sends the whole
    level to working precision.
    """
    units, rows, table = char_values
    by_t = level.by_t
    order = sorted(t for t in by_t if lo <= t <= hi)
    multi = [by_t[t] for t in order if len(by_t[t]) > 1]
    # A single character: |W| is the same for every v, |c| of its column.
    single = {}
    for t in order:
        if len(by_t[t]) == 1:
            i, c = by_t[t][0]
            single[t] = level.columns[i].modulus(t, c)
    best = max([best, *single.values()])
    screen = _screen(multi, table) if multi else None
    exact: dict = {}
    if screen is None:
        keep = np.ones((len(multi), len(units)), dtype=bool)
    else:
        values, bounds = screen
        upper = values + bounds[:, None]
        keep = ~(upper < _tie_floor(best, tie))
        if keep.any():
            # The largest screened point first, to raise the floor.
            r, j = divmod(int(np.argmax(upper)), upper.shape[1])
            exact[r, j] = _synthesize(multi[r], rows, j)
            keep = ~(upper < _tie_floor(max(best, exact[r, j]), tie))
    out = []
    r = 0
    for t in order:
        if t in single:
            out.append((single[t], t, units[0]))
            continue
        for j in np.flatnonzero(keep[r]).tolist():
            value = exact.get((r, j))
            if value is None:
                value = _synthesize(by_t[t], rows, j)
            out.append((value, t, units[j]))
        r += 1
    return out, 0 if screen is None else keep.size, int(keep.sum())


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
    (per t, the live ``(i, c_i)``) and the character table ``table``, with a
    bound per row on their distance from the working-precision values, or
    None when a coefficient is not finite in float64.

    A-priori bound (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 3), with ``m`` characters, ``u = 2^-53``,
    ``w = 2^-prec`` (``w <= u``), ``gamma_k = k u / (1 - k u)`` and
    ``P = sum_i |c_i| |chi_i(v)|``, where ``|chi_i(v)| <= 1 + 2w``:

    * rounding ``c_i`` and ``chi_i(v)`` to complex128 moves each part by at
      most 2u relative (mpmath may round toward zero), so each product by at
      most ``(4u + 4u^2) |c_i| |chi_i(v)|``;
    * the real and imaginary parts of the product are real inner products
      of length 2m, which any summation order, with or without fused
      multiply-adds, computes within ``gamma_2m sum_i |c_i^| |chi_i^(v)|``,
      so the complex sum within ``sqrt(2) gamma_2m (1 + 2u)^2 P``;
    * ``abs`` (hypot) adds at most ``u`` relative;
    * the working-precision loop itself errs by at most
      ``sqrt(2) gamma^w_2m P + w |W|``.

    That is ``(2.9 m + 5.1)(u + w) P`` to first order.  The bound used,
    ``(4 m + 8)(u + w) sum_i |c_i^|``, leaves room for the second-order
    terms, for ``P <= (1 + 2w)(1 + 2u) sum_i |c_i^|`` and for the rounding of
    the bound itself; ``(16 m + 16) 2^-1074`` covers underflow.
    """
    m = table.shape[0]
    coeffs = np.zeros((len(multi), m), dtype=np.complex128)
    for r, live in enumerate(multi):
        for i, c in live:
            coeffs[r, i] = complex(c)
    if not np.isfinite(coeffs).all():
        return None
    w = math.ldexp(1.0, -mp.prec)
    bounds = ((4 * m + 8) * (_F64_U + w) * np.abs(coeffs).sum(axis=1)
              + (16 * m + 16) * _F64_ETA)
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


def _tail_sup_level(tables, t_max: int) -> mpf:
    """Certified sup over t > t_max of the synthesized value bound
    sum_mu |c[t,k](mu)|: its value at t_max + 1.

    Every tail bound decreases in t.  Its ``a0 >= a1 d_from`` and
    ``d_from >= 20``, and the Satake parameters of a unitary representation
    have ``rho <= 1``, so one step scales it by at most
    ``(1 + 1/d_from) rho q^(-1/2) <= (21/20)/sqrt(2) < 1``.

    The sum is rounded up (:func:`_rounded_up`), so it bounds the exact sum
    of the stored tail bounds.  Counting roundings, with every integer power
    as two, ``a0 + a1 s`` is within 2, times ``rho^s`` within 5, times
    ``q^(-d/2)`` (two) within 8; the terms are positive, so summing ``m``
    columns from zero adds ``m - 1``: ``k = m + 7``.
    """
    # Columns without Satake roots have an identically zero tail; adding
    # their exact zeros would change no bit of the sum.
    sup = mpf(0)
    for tab in tables:
        if tab.tail.a0 or tab.tail.a1:
            sup += tab.tail.coeff_bound(t_max + 1)
    return _rounded_up(sup, len(tables) + 7)


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


def decompose_matrix(g: Mat2, n: int):
    """Write ``g = z(u) n(x) g(t,k,v) kappa`` with kappa in the level-n
    subgroup (upper-left entry 1 mod p^n, lower-left entry in p^n Z_p).

    Returns ``(u, x, Representative(t, k, v))``: ``u`` and ``x`` are exact
    ``Fraction``s and ``v`` is an integer representing its class mod p^k.
    """
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
        # The lower-triangular kappa [[1, 0], [-c/d, 1]] lies in the level-n
        # subgroup and zeroes c, leaving the upper-left entry det/d; peel
        # z(d) n(b/d) a(y) off the upper triangular result and canonicalize
        # the level-n representative to v = 1.
        t_y = t_det - 2 * vd
        u = -det / d * Fraction(p) ** (n - t_y)
        x = b / d + Fraction(p) ** (t_y - n)
        return u, x, Representative(t_y - 2 * n, n, 1)

    # u = -c and x = a/c.  v is the unit -y p^k / delta, with
    # delta = det p^-t / c^2 and y = -e/c: e = d, unless d/c is integral
    # (k = 0), where a unipotent kappa on the right slides y to -1 and e = c.
    t = t_det - 2 * vc
    e = c if vd is None or vd > vc else d
    v = c * e * Fraction(p) ** (k + t) / det
    mod = p ** max(k, 1)
    return -c, a / c, Representative(t, k, v.numerator * pow(v.denominator, -1, mod) % mod)


def reduce_matrix(rep: Representation, g: Mat2):
    """Phases and representative with ``W(g) = psi_phase * omega_phase * W(g(t,k,v))``."""
    u, x, r = decompose_matrix(g, rep.n)
    p = rep.p
    psi_phase = ONE
    if x:
        t, num, den = split_rational(p, x)
        if t < 0:
            psi_phase = psi_eval(PAdicApprox(p, t, num * pow(den, -1, p**-t), -t))
    _, num, den = split_rational(p, u)
    mod = p ** max(rep.m, 1)
    omega_phase = rep.omega.eval_unit(num * pow(den, -1, mod) % mod)
    return psi_phase, omega_phase, r
