"""Descriptors for the generic irreducible unitarizable representations of
GL(2, Q_p) with conductor exponent n >= 1, normalized so the central
character is trivial at the uniformizer.

Three kinds:

* :class:`PrincipalSeries`  -- chi1 boxplus chi2, unitary inducing characters,
  at least one ramified;
* :class:`SteinbergTwist`   -- xi . St with xi(p)^2 = 1;
* :class:`SupercuspidalOracle` -- conductor/epsilon data of all character
  twists supplied externally, since the local constants of a supercuspidal
  are not computable from first principles here.

Each descriptor knows its invariants (n, m, central character), its diagonal
newvector values, the twisted conductor/epsilon/L data entering the Fourier
solver, and its contragredient.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from functools import cached_property

from mpmath import mp, mpc, mpf
from mpmath.libmp import repr_dps

from .numerics import ONE, MINUS_ONE, RootOfUnity, ScaledRoot, approx_equal, perturbed
from .characters import (
    ExtendedCharacter,
    UnitCharacter,
    characters_mod,
    format_char,
    make_character,
    parse_char,
    parse_unit_char,
    twisted,
)


@dataclass(frozen=True)
class TwistData:
    """Conductor, epsilon factor, and Satake data of a character twist.

    ``l_num`` holds the Satake parameters of the twisted representation's own
    L-factor; ``l_den`` those of the dual twist entering at 1 - s.  Each list
    has at most two entries, exact :class:`ScaledRoot` values.

    ``root`` is the epsilon factor as an exact root of unity, the product of
    ``ramified`` ramified GL(1) epsilon factors, each of which
    :func:`~padwhit.numerics.perturb_epsilon` scales.  It is None when a
    factor has conductor 1 or comes from an oracle table; ``approx`` then
    holds the numeric epsilon factor, perturbation included.
    """

    A: int
    l_num: tuple
    l_den: tuple
    root: RootOfUnity | None = None
    ramified: int = 0
    approx: mpc | None = None

    @property
    def eps(self) -> mpc:
        """The epsilon factor at working precision, perturbation included."""
        if self.root is None:
            return self.approx
        return perturbed(self.root.embed(), self.ramified)


class Representation:
    """Common surface shared by the three descriptor kinds."""

    p: int

    @property
    def n(self) -> int:
        raise NotImplementedError

    @property
    def omega(self) -> UnitCharacter:
        raise NotImplementedError

    @property
    def m(self) -> int:
        return self.omega.conductor

    @property
    def has_trivial_lfactor(self) -> bool:
        raise NotImplementedError

    def twist_data(self, mu: UnitCharacter) -> TwistData:
        raise NotImplementedError

    def contragredient(self) -> "Representation":
        raise NotImplementedError

    def diagonal_value(self, t: int, v: int = 1, conjugate: bool = False) -> mpc:
        """Newvector value at diag(p^t v, 1); ``conjugate`` selects the
        variant invariant under the opposite congruence subgroup."""
        raise NotImplementedError

    def diagonal_ratio(self) -> ScaledRoot | None:
        """None if the diagonal is supported at t = 0 only; otherwise the
        exact geometric ratio rho with value(t) = rho^t for t >= 0."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

    def __hash__(self) -> int:
        """The dataclass hash, kept: descriptors key the level caches.  Each
        class binds it in its body, where ``dataclass`` leaves it alone."""
        return self._hash


@dataclass(frozen=True)
class PrincipalSeries(Representation):
    """chi1 boxplus chi2; stored with cond(chi1) >= cond(chi2)."""

    __hash__ = Representation.__hash__

    chi1: ExtendedCharacter
    chi2: ExtendedCharacter

    def __post_init__(self):
        if self.chi1.p != self.chi2.p:
            raise ValueError("inducing characters live over different primes")
        if self.chi1.conductor < self.chi2.conductor:
            c1, c2 = self.chi2, self.chi1
            object.__setattr__(self, "chi1", c1)
            object.__setattr__(self, "chi2", c2)
        if not (self.chi1.pi_value * self.chi2.pi_value).is_one():
            raise ValueError(
                "central character must be trivial at the uniformizer; "
                "twist by an unramified character first"
            )
        if self.n == 0:
            raise ValueError("spherical representations (n = 0) are out of scope")

    @property
    def p(self) -> int:
        return self.chi1.p

    @cached_property
    def n(self) -> int:
        return self.chi1.conductor + self.chi2.conductor

    @cached_property
    def omega(self) -> UnitCharacter:
        return self.chi1.unit_part * self.chi2.unit_part

    @property
    def has_trivial_lfactor(self) -> bool:
        return self.chi2.conductor > 0

    def twist_data(self, mu: UnitCharacter) -> TwistData:
        twists = tuple(ExtendedCharacter(twisted(chi.unit_part, mu), chi.pi_value)
                       for chi in (self.chi1, self.chi2))
        A = twists[0].conductor + twists[1].conductor
        l_num: list = []
        l_den: list = []
        for tw in twists:
            if tw.conductor == 0:
                l_num.append(ScaledRoot(tw.pi_value, self.p))
                l_den.append(ScaledRoot(tw.pi_value.inverse(), self.p))
        r1, r2 = twists[0].epsilon_root(), twists[1].epsilon_root()
        if r1 is None or r2 is None:
            eps = twists[0].epsilon() * twists[1].epsilon()
            return TwistData(A, tuple(l_num), tuple(l_den), approx=eps)
        ramified = (twists[0].conductor > 0) + (twists[1].conductor > 0)
        return TwistData(A, tuple(l_num), tuple(l_den), r1 * r2, ramified)

    def contragredient(self) -> "PrincipalSeries":
        return PrincipalSeries(self.chi1.inverse(), self.chi2.inverse())

    def diagonal_value(self, t: int, v: int = 1, conjugate: bool = False) -> mpc:
        if self.chi2.conductor > 0:
            if t != 0:
                return mpc(0)
            return mpc(1) if conjugate else self.omega.eval_unit(v).embed()
        if t < 0:
            return mpc(0)
        qth = mp.power(self.p, -mpf(t) / 2)
        if conjugate:
            return (self.chi2.pi_value**t).embed() * qth
        return ((self.chi1.pi_value**t) * self.chi1.unit_part.eval_unit(v)).embed() * qth

    def diagonal_ratio(self) -> ScaledRoot | None:
        if self.chi2.conductor > 0:
            return None
        return ScaledRoot(self.chi1.pi_value, self.p, 1)

    def spec_string(self) -> str:
        return f"ps:{format_char(self.chi1)},{format_char(self.chi2)}"


@dataclass(frozen=True)
class SteinbergTwist(Representation):
    """xi . St with xi unitary and xi(p)^2 = 1."""

    __hash__ = Representation.__hash__

    xi: ExtendedCharacter

    def __post_init__(self):
        if not (self.xi.pi_value**2).is_one():
            raise ValueError("Steinberg twist needs xi(p)^2 = 1")

    @property
    def p(self) -> int:
        return self.xi.p

    @cached_property
    def n(self) -> int:
        return max(1, 2 * self.xi.conductor)

    @cached_property
    def omega(self) -> UnitCharacter:
        return self.xi.unit_part * self.xi.unit_part

    @property
    def has_trivial_lfactor(self) -> bool:
        return self.xi.conductor > 0

    def twist_data(self, mu: UnitCharacter) -> TwistData:
        tw = ExtendedCharacter(twisted(self.xi.unit_part, mu), self.xi.pi_value)
        if tw.conductor == 0:
            # Special representation with unramified twist sigma:
            # conductor exponent 1, epsilon -sigma(p), L-roots sigma(p) q^(-1/2).
            z = tw.pi_value
            satake_num = ScaledRoot(z, self.p, 1)
            satake_den = ScaledRoot(z.inverse(), self.p, 1)
            return TwistData(1, (satake_num,), (satake_den,), z * MINUS_ONE)
        root = tw.epsilon_root()
        if root is None:
            e = tw.epsilon()
            return TwistData(2 * tw.conductor, (), (), approx=e * e)
        return TwistData(2 * tw.conductor, (), (), root * root, 2)

    def contragredient(self) -> "SteinbergTwist":
        return SteinbergTwist(self.xi.inverse())

    def diagonal_value(self, t: int, v: int = 1, conjugate: bool = False) -> mpc:
        if self.xi.conductor > 0:
            if t != 0:
                return mpc(0)
            return mpc(1) if conjugate else self.omega.eval_unit(v).embed()
        if t < 0:
            return mpc(0)
        return (self.xi.pi_value**t).embed() * mp.power(self.p, -t)

    def diagonal_ratio(self) -> ScaledRoot | None:
        if self.xi.conductor > 0:
            return None
        return ScaledRoot(self.xi.pi_value, self.p, 2)

    def spec_string(self) -> str:
        return f"st:{format_char(self.xi)}"


@dataclass(frozen=True)
class SupercuspidalOracle(Representation):
    """Supercuspidal descriptor backed by externally supplied twist data.

    ``twists`` maps every unit character mu of conductor <= n to the pair
    (conductor exponent of the mu-twist, epsilon factor of the mu-twist).
    """

    p: int
    n_: int
    omega_: UnitCharacter
    twists: tuple  # sorted tuple of (UnitCharacter, int, mpc)

    __hash__ = Representation.__hash__

    def __post_init__(self):
        if self.n_ < 2:
            raise ValueError("supercuspidal conductor exponent must be >= 2")
        if 2 * self.omega_.conductor > self.n_:
            raise ValueError(
                "central character too ramified for a supercuspidal "
                f"(m = {self.omega_.conductor} > n/2 = {self.n_ / 2})"
            )
        table = self._table
        for mu in characters_mod(self.p, self.n_):
            if mu not in table:
                raise ValueError(f"oracle is missing the twist key {format_char(mu)}")
        for mu, (A, eps) in table.items():
            if not approx_equal(abs(eps), 1):
                raise ValueError(
                    f"oracle epsilon at {format_char(mu)} is not unit modulus"
                )

    @cached_property
    def _table(self) -> dict:
        return {mu: (A, eps) for mu, A, eps in self.twists}

    @property
    def n(self) -> int:
        return self.n_

    @property
    def omega(self) -> UnitCharacter:
        return self.omega_

    @property
    def has_trivial_lfactor(self) -> bool:
        return True

    def twist_data(self, mu: UnitCharacter) -> TwistData:
        table = self._table
        if mu not in table:
            raise KeyError(f"oracle has no entry for twist {format_char(mu)}")
        A, eps = table[mu]
        return TwistData(A, (), (), approx=mpc(eps))

    def contragredient(self) -> "SupercuspidalOracle":
        omega_inv = self.omega_.inverse()
        table = self._table
        new = []
        for mu, _, _ in self.twists:
            key = mu * omega_inv
            if key not in table:
                raise ValueError("oracle is not closed under dualizing")
            A, eps = table[key]
            new.append((mu, A, eps))
        return SupercuspidalOracle(self.p, self.n_, omega_inv, _sorted_twists(new))

    def diagonal_value(self, t: int, v: int = 1, conjugate: bool = False) -> mpc:
        if t != 0:
            return mpc(0)
        return mpc(1) if conjugate else self.omega_.eval_unit(v).embed()

    def diagonal_ratio(self) -> ScaledRoot | None:
        return None

    def spec_string(self) -> str:
        return f"sc:{self.n_},{format_char(self.omega_)}"


def _twist_sort_key(item):
    mu = item[0]
    return (mu.conductor, mu.exps)


def _sorted_twists(items) -> tuple:
    return tuple(sorted(((mu, int(A), mpc(eps)) for mu, A, eps in items),
                        key=_twist_sort_key))


def make_supercuspidal(p: int, n: int, omega: UnitCharacter, twists) -> SupercuspidalOracle:
    """``twists``: iterable of (UnitCharacter, conductor exponent, epsilon)."""
    return SupercuspidalOracle(p, n, omega, _sorted_twists(twists))


def load_oracle(source) -> SupercuspidalOracle:
    """Load a supercuspidal oracle from a JSON file path, file object, or dict.

    Schema: ``{"p": int, "n": int, "omega": CHAR, "twists":
    [{"mu": CHAR, "a_mu_pi": int, "eps": [re, im]}, ...]}``, with ``re`` and
    ``im`` decimal strings or JSON numbers.  A table whose epsilon factors
    break ``eps(mu) eps(mu^-1 omega^-1) = omega(-1)`` beyond the tolerance
    of the ``|eps| = 1`` check is refused with ``ValueError``.
    """
    if isinstance(source, dict):
        data = source
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    p = int(data["p"])
    n = int(data["n"])
    omega = parse_unit_char(data["omega"], p)
    twists = []
    for entry in data["twists"]:
        mu = parse_unit_char(entry["mu"], p)
        re, im = entry["eps"]
        twists.append((mu, int(entry["a_mu_pi"]), mpc(mpf(str(re)), mpf(str(im)))))
    rep = make_supercuspidal(p, n, omega, twists)
    # The contragredient is pi (x) omega^-1, so its root number pairs with pi's.
    table, omega_inv, sign = rep._table, omega.inverse(), omega.at_minus_one().embed()
    for mu, (_, eps) in table.items():
        if not approx_equal(eps * table[twisted(mu.inverse(), omega_inv)][1], sign):
            raise ValueError(f"oracle epsilon at {format_char(mu)} breaks the duality "
                             "eps(mu) eps(mu^-1 omega^-1) = omega(-1)")
    return rep


def dump_oracle(rep: SupercuspidalOracle) -> dict:
    """The JSON document :func:`load_oracle` reads.  Each ``eps`` part is a
    decimal string with enough digits to read back bit for bit at the
    working precision."""
    dps = repr_dps(mp.prec)
    return {
        "p": rep.p,
        "n": rep.n,
        "omega": format_char(rep.omega),
        "twists": [
            {
                "mu": format_char(mu),
                "a_mu_pi": A,
                "eps": [mp.nstr(eps.real, dps), mp.nstr(eps.imag, dps)],
            }
            for mu, A, eps in rep.twists
        ],
    }


def principal_series_family(p: int, a1_max: int, a2_max: int):
    """All principal series over X-tilde inducing characters (value 1 at p)
    with cond(chi1) <= a1_max, cond(chi2) <= a2_max, deduplicated up to the
    chi1 <-> chi2 symmetry, in deterministic order."""
    return _principal_series(p, ((a1, a2) for a1 in range(1, a1_max + 1)
                                 for a2 in range(min(a2_max, a1) + 1)))


def _principal_series(p: int, pairs):
    """The principal series with ``(cond(chi1), cond(chi2))`` running over
    ``pairs`` (``a2 <= a1``), each pair in :func:`characters_mod` order, and
    with chi2 not before chi1 when ``a1 = a2``."""
    out = []
    for a1, a2 in pairs:
        pool1 = [c for c in characters_mod(p, a1) if c.conductor == a1]
        pool2 = [c for c in characters_mod(p, a2) if c.conductor == a2]
        for i, c1 in enumerate(pool1):
            for c2 in pool2[i if a1 == a2 else 0:]:
                out.append(PrincipalSeries(ExtendedCharacter(c1), ExtendedCharacter(c2)))
    return out


def steinberg_family(p: int, a_xi_max: int):
    """Steinberg twists with cond(xi) <= a_xi_max and xi(p) in {1, -1}."""
    out = []
    for a in range(a_xi_max + 1):
        for chi in characters_mod(p, a):
            if chi.conductor != a:
                continue
            for piv in (ONE, MINUS_ONE):
                out.append(SteinbergTwist(ExtendedCharacter(chi, piv)))
    return out


def standard_family(p: int, nmax: int, kinds: str = "all"):
    """The deterministic scan family: every descriptor with n <= nmax.

    ``kinds``: "ps", "steinberg", or "all".
    """
    out = []
    if kinds in ("ps", "all"):
        out.extend(_principal_series(
            p, ((a1, a2) for a1 in range(1, nmax + 1)
                for a2 in range(min(a1, nmax - a1) + 1))))
    if kinds in ("steinberg", "all") and nmax >= 1:
        # Every Steinberg twist has n >= 1; the rest have n = 2 cond(xi).
        out.extend(steinberg_family(p, nmax // 2))
    return out


def parse_rep(kind: str, payload: str, p: int | None = None, oracle=None) -> Representation:
    """Build a descriptor from CLI-style arguments."""
    if kind == "ps":
        # A p = 2 character carries two exponents, "2^3:1,1"; split only at
        # commas that start a new "p^a" spec.
        parts = re.split(r",(?=\d+\^)", payload)
        if len(parts) != 2:
            raise ValueError("--ps expects two comma-separated character specs")
        chi1 = parse_char(parts[0], p)
        chi2 = parse_char(parts[1], chi1.p)
        return PrincipalSeries(chi1, chi2)
    if kind == "st":
        return SteinbergTwist(parse_char(payload, p))
    if kind == "sc":
        if oracle is None:
            raise ValueError("supercuspidal descriptors need --oracle FILE")
        return load_oracle(oracle)
    raise ValueError(f"unknown representation kind {kind!r}")


def trivial_character(p: int) -> UnitCharacter:
    return make_character(p, 0, ())
