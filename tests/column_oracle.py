"""The functional-equation solve of one column, as the engine ran it
before :func:`padwhit.engine._level_columns` derived every numerator: the
oracle the one column builder is compared with, bit for bit.

Each column's numerator is built here from the descriptor's
:class:`~padwhit.representations.TwistData` and its diagonal ratio, with
the characters' epsilon factors read through :func:`epsilon_root` and
:func:`epsilon_factor`, and then expanded as the engine expands it.  The
tests that solve with every epsilon factor numeric patch this module's
``epsilon_root``.
"""

from mpmath import mpc, mpf

from padwhit.characters import UnitCharacter, epsilon_factor, epsilon_root
from padwhit.engine import (
    CoefficientTable,
    TailBound,
    _closed_form,
    _head_table,
    _scalar,
    _window,
    _zero_table,
)
from padwhit.numerics import ONE, ScaledRoot, expand_geometric, q_power
from padwhit.representations import Representation, TwistData


def _solve(rep: Representation, k: int, mu: UnitCharacter,
           td: TwistData) -> CoefficientTable:
    """Solve the functional-equation identity for the column (k, mu), from
    the twist data ``td`` of ``rep`` and its exact diagonal ratio (None for a
    diagonal supported at t = 0).

    The generating function of ``d -> c[d - A, k](mu) q^(d/2)`` is
    ``C X^e prod_j (1 - c_j X^-1) / prod_i (1 - a_i X)``: the ``c_j`` are the
    dual Euler roots and the ``a_i`` the Satake parameters.  A dual factor
    with ``c_j a_i = 1`` cancels its Euler factor to ``-c_j X^-1``, an exact
    decision on :class:`ScaledRoot` values.

    ``C`` is kept as ``num/den`` times an exact :class:`ScaledRoot` times a
    numeric factor, which is there only when ``mu`` or the twist has an
    epsilon factor that is not a root of unity (conductor 1, or an oracle
    table).  :func:`perturb_epsilon` scales the rational by ``(1 + delta)``
    per exact ramified epsilon factor in the numerator and by
    ``(1 + delta)^-1`` per one in the denominator.
    """
    p = rep.p
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
        return _zero_table(k, mu, p)

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
    head, parts = expand_geometric(terms, tuple(roots))
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
    # The roots left after the cancellation; none: an identically zero tail.
    rho = max((a.modulus() for a in roots), default=mpf(0))
    a0 = a1 = mpf(0)
    for b0, b1, a in parts:
        amp = abs(a.embed()) ** d_last
        a0 += (abs(b0) + abs(b1) * d_last) * amp
        a1 += abs(b1) * amp
    tail = TailBound(a0, a1, rho, d_last, A, p)
    return CoefficientTable(k, mu, A, coeffs, tail, parts_w, moduli, fill=fill)
