"""Scalar arithmetic substrate.

From exact to numeric:

* :class:`RootOfUnity` -- an exact phase ``e^{2 pi i a/N}`` kept as a reduced
  pair of integers, so that products of character values never drift.
* mpmath ``mpf``/``mpc`` scalars at a configurable binary precision
  (128 bits by default).  Sums of exact phases are embedded once, at the end:
  :func:`unity_sum` counts the phases and sums the counts against a
  fixed-point root table in Python integers.
* :class:`ScaledRoot` -- an exact ``root * q^(-s/2)``, the form of every
  Satake parameter and diagonal ratio, so that equalities between them are
  decided exactly.
* :func:`expand_geometric` -- the expansion around X = 0 of a numerator of a
  few terms over at most two linear Euler factors: the degrees the numerator
  spans, and the partial fractions that give every degree after them.

Every cached number depends on two pieces of global state: the working
precision and the epsilon canary's ``delta`` (:func:`perturb_epsilon`).
:func:`working_cache` keys a cache on both, besides the call's arguments;
caches of exact values (roots of unity, characters, unit groups) are plain
``lru_cache``.

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Mapping

import numpy as np
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

DEFAULT_PRECISION = 128

# Absolute tolerance for user-facing comparisons.
TOL_USER = mpf("1e-9")

if mp.prec < DEFAULT_PRECISION:
    mp.prec = DEFAULT_PRECISION


def set_precision(bits: int) -> None:
    """Set the working binary precision for all scalar arithmetic."""
    if bits < 53:
        raise ValueError(f"precision must be at least 53 bits, got {bits}")
    mp.prec = bits


def get_precision() -> int:
    return mp.prec


def approx_equal(a, b, tol=TOL_USER) -> bool:
    """Compare scalars against an explicit absolute tolerance."""
    return abs(mpc(a) - mpc(b)) <= tol


# The epsilon canary's relative error, as the mpf that perturbed() multiplies
# by and as the double that keys working_cache: hashing an mpf is slow.
_canary = [mpf(0), 0.0]


def perturb_epsilon(delta):
    """Context manager that multiplies every ramified epsilon factor by
    ``(1 + delta)``, ``delta`` rounded to a double.  Canary hook for testing
    that the verification harness actually detects wrong constants.

    The rounded ``delta`` must be finite and ``> -1``, else ``ValueError``
    is raised here, before any value moves: ``-1`` zeroes the factors that
    the solver divides by, and nan or inf leaves no finite value to scan."""
    key = float(delta)
    if not (math.isfinite(key) and key > -1):
        raise ValueError(f"epsilon perturbation must be finite and > -1, got {delta}")
    return _perturbation(key)


@contextmanager
def _perturbation(key: float):
    old = _canary[:]
    _canary[:] = [mpf(key), key]
    try:
        yield
    finally:
        _canary[:] = old


def perturbed(value, count: int = 1):
    """``value`` times ``(1 + delta)^count`` under :func:`perturb_epsilon`
    (``count`` ramified epsilon factors, negative in a denominator), and
    ``value`` itself outside it."""
    delta = _canary[0]
    return value * (1 + delta) ** count if delta and count else value


def working_state() -> tuple:
    """The precision and canary that key :func:`working_cache`."""
    return mp._prec, _canary[1]


def working_cache(maxsize):
    """``lru_cache(maxsize)`` for a value computed at working precision.  The
    key is the call's positional arguments plus the live precision and the
    canary's ``delta``, so an entry never outlives either.  The wrapper has
    ``cache_clear`` and ``cache_info``."""
    def decorate(fn):
        keyed = lru_cache(maxsize)(lambda prec, delta, *args: fn(*args))

        # mp._prec is what the mp.prec property returns, read without its
        # call: a hit costs one frame besides the lookup.
        @wraps(fn)
        def cached(*args):
            return keyed(mp._prec, _canary[1], *args)

        cached.cache_clear = keyed.cache_clear
        cached.cache_info = keyed.cache_info
        return cached

    return decorate


@working_cache(maxsize=None)
def _embed(num: int, order: int) -> mpc:
    return mp.expjpi(mpf(2 * num) / order)


def unity_table(order: int) -> tuple:
    """All order-th roots of unity ``(e^{2 pi i j/order})_j`` at working precision."""
    return tuple(mp.expjpi(mpf(2 * j) / order) for j in range(order))


# Bits that the fixed-point root tables of unity_sum carry beyond the
# working precision.
_FIXED_GUARD = 32


@working_cache(maxsize=64)
def _fixed_unity_table(order: int) -> tuple:
    """``(re, im)``: the parts of every ``e(j / order)`` times ``2^bits``,
    ``bits = prec + 32``, floored to integers.  Each integer is within 2 of
    ``2^bits`` times the exact part: the angle and the root are evaluated at
    ``bits + 8`` bits, off by less than ``2^-4`` on that scale, and the floor
    by less than 1.  Each root is converted as it is made, so the ``order``
    roots, about 400 bytes each as ``mpc``, are never held at once."""
    bits = mp.prec + _FIXED_GUARD
    re, im = [], []
    with mp.workprec(bits + 8):
        for j in range(order):
            z = mp.expjpi(mpf(2 * j) / order)
            re.append(to_fixed(z.real._mpf_, bits))
            im.append(to_fixed(z.imag._mpf_, bits))
    return tuple(re), tuple(im)


def unity_sum(phases, order: int) -> mpc:
    """``sum_j e(phases[j] / order)`` at working precision, for an array of
    integers ``0 <= phases[j] < order``.

    The phases are counted, and the counts summed against the roots in
    fixed point: Python integers scaled by ``2^F``, ``F = prec + 32``.  With
    ``K`` phases the integer sum is within ``K 2^(3/2 - F)`` of the exact sum
    (each root within ``2^(1 - F)`` per part, :func:`_fixed_unity_table`),
    and rounding each part once to working precision adds at most
    ``2^-prec`` of the sum:
    ``|result - sum| <= 2^-prec |sum| + K 2^(3/2 - F)``.
    """
    bits = mp.prec + _FIXED_GUARD
    re, im = _fixed_unity_table(order)
    counts = np.bincount(phases, minlength=order)
    live = np.flatnonzero(counts).tolist()
    weights = counts[live].tolist()
    total_re = sum(c * re[j] for c, j in zip(weights, live))
    total_im = sum(c * im[j] for c, j in zip(weights, live))
    return mpc(mp.ldexp(mpf(total_re), -bits), mp.ldexp(mpf(total_im), -bits))


@dataclass(frozen=True)
class RootOfUnity:
    """Exact phase ``e^{2 pi i num/order}`` with ``0 <= num < order`` reduced."""

    num: int
    order: int

    def __post_init__(self):
        if self.order <= 0:
            raise ValueError("order must be positive")
        num = self.num % self.order
        g = math.gcd(num, self.order)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "order", self.order // g)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(
            self.num * other.order + other.num * self.order,
            self.order * other.order,
        )

    def __pow__(self, e: int) -> "RootOfUnity":
        return RootOfUnity(self.num * e, self.order)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.num, self.order)

    def is_one(self) -> bool:
        return self.num == 0

    def embed(self) -> mpc:
        """Numeric value at the working precision; |result| = 1 up to 2^(1-P)."""
        return _embed(self.num, self.order)

    def __repr__(self):
        return f"RootOfUnity({self.num}, {self.order})"


ONE = RootOfUnity(0, 1)
MINUS_ONE = RootOfUnity(1, 2)


@working_cache(maxsize=4096)
def q_power(q: int, s: int) -> mpf:
    """``q^(-s/2)`` at the working precision."""
    return mp.power(q, -mpf(s) / 2)


@working_cache(maxsize=4096)
def _scaled_embed(num: int, order: int, q: int, s: int) -> mpc:
    return _embed(num, order) * q_power(q, s)


@dataclass(frozen=True)
class ScaledRoot:
    """Exact number ``root * q^(-s/2)``: a root of unity times a half-integral
    power of the prime ``q``."""

    root: RootOfUnity
    q: int
    s: int = 0

    def __mul__(self, other: "ScaledRoot") -> "ScaledRoot":
        """The product of two numbers over the same prime ``q``."""
        return ScaledRoot(self.root * other.root, self.q, self.s + other.s)

    def __pow__(self, e: int) -> "ScaledRoot":
        return ScaledRoot(self.root**e, self.q, self.s * e)

    def inverse(self) -> "ScaledRoot":
        return ScaledRoot(self.root.inverse(), self.q, -self.s)

    def shift(self, s: int) -> "ScaledRoot":
        """This number times ``q^(-s/2)``."""
        return ScaledRoot(self.root, self.q, self.s + s)

    def modulus(self) -> mpf:
        return q_power(self.q, self.s)

    def embed(self) -> mpc:
        return _scaled_embed(self.root.num, self.root.order, self.q, self.s)


def expand_geometric(terms: Mapping[int, mpc], roots: tuple):
    """Expand ``sum_j n_j X^(e_j) / prod_i (1 - a_i X)`` around X = 0.

    ``terms`` maps each degree ``e_j`` to ``n_j``; ``roots`` holds at most two
    :class:`ScaledRoot` values ``a_i``, compared exactly.  With ``h_m`` the
    coefficients of ``1 / prod_i (1 - a_i X)`` -- the complete homogeneous
    polynomials of degree m in the ``a_i``, 0 for m < 0 -- the coefficients
    are ``theta_d = sum_j n_j h_(d - e_j)``.

    Returns ``(head, parts)``: ``head`` maps each degree ``min(e_j) <= d <=
    max(e_j)`` to ``theta_d``, summed directly, exact zeros left out;
    ``parts`` lists the partial fractions ``(b0, b1, a)``, ``a`` one of the
    roots, with ``theta_d = sum (b0 + b1 d) a^d`` for every ``d > max(e_j)``.
    Without roots the numerator is the whole expansion and ``parts`` is empty.
    """
    terms = [(e, mp.mpmathify(n)) for e, n in sorted(terms.items()) if n]
    if not roots:
        return dict(terms), []
    if not terms:
        return {}, []
    head = {}
    for d in range(terms[0][0], terms[-1][0] + 1):
        c = mpc(0)
        for e, n in terms:
            if d < e:
                break
            c += n if d == e else n * _complete_homogeneous(roots, d - e)
        if c:
            head[d] = c

    def at(r):  # sum_j n_j r^(-e_j), each power embedded exactly
        return sum((n * (r ** -e).embed() for e, n in terms), mpc(0))

    if len(roots) == 1:
        return head, [(at(roots[0]), mpc(0), roots[0])]
    r0, r1 = roots
    if r0 == r1:
        b0 = sum((n * (1 - e) * (r0 ** -e).embed() for e, n in terms), mpc(0))
        return head, [(b0, at(r0), r0)]
    # a0 / (a0 - a1) = 1 / (1 - w) with w = a1 / a0 exact, and
    # -a1 / (a0 - a1) = 1 - 1 / (1 - w); the inverse is conj(z) / |z|^2.
    z = 1 - (r1 * r0.inverse()).embed()
    inv = z.conjugate() * (1 / (z.real**2 + z.imag**2))
    return head, [(inv * at(r0), mpc(0), r0), ((1 - inv) * at(r1), mpc(0), r1)]


def _complete_homogeneous(roots: tuple, m: int) -> mpc:
    """``h_m``: the sum of the monomials of degree ``m >= 1`` in the roots,
    each an exact :class:`ScaledRoot` embedded once."""
    if len(roots) == 1:
        return (roots[0] ** m).embed()
    r0, r1 = roots
    return sum(((r0**i * r1 ** (m - i)).embed() for i in range(m + 1)), mpc(0))
