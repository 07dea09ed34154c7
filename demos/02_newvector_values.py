"""Evaluating the normalized Whittaker newvector.

Values live on the representative triples g(t, k, v) = diag(p^t, 1) w n(p^-k v)
with 0 <= k <= n; columns above k = n/2 reduce to the contragredient through
the generalized Atkin-Lehner relation, and arbitrary invertible matrices
reduce to a triple plus explicit additive/central phases.
"""

from fractions import Fraction

from mpmath import mp

from padwhit import (
    ExtendedCharacter,
    Mat2,
    PrincipalSeries,
    Representative,
    SteinbergTwist,
    atkin_lehner_reduce,
    make_character,
    reduce_matrix,
    whittaker_value,
)

p = 3
chi1 = ExtendedCharacter(make_character(p, 2, [1]))
chi2 = ExtendedCharacter(make_character(p, 0, []))
pi = PrincipalSeries(chi1, chi2)
print(f"pi = chi1 boxplus chi2 with conductor exponents (2, 0): n = {pi.n}, "
      f"central conductor m = {pi.m}")

print()
print("== a slice of the value table at level k = 1 ==")
for t in range(-4, 1):
    row = [mp.nstr(abs(whittaker_value(pi, Representative(t, 1, v))), 6)
           for v in (1, 2)]
    print(f"  t = {t:+d}:  |W| at v = 1, 2 -> {row}")

print()
print("== the identity coset ==")
# The identity matrix sits in the coset of (t, k, v) = (-2n, n, 1); its value
# omega(-p^-n) psi(-p^-n) is a pure phase.
r = Representative(-2 * pi.n, pi.n, 1)
print(f"  W(g({r.t},{r.k},{r.v})) = {mp.nstr(whittaker_value(pi, r), 12)}")

print()
print("== Atkin-Lehner reduction of a high column ==")
r = Representative(-5, 2, 1)
phase, reduced, dual = atkin_lehner_reduce(pi, r)
lhs = whittaker_value(pi, r, direct=True)
rhs = phase * whittaker_value(dual, reduced)
print(f"  W(g({r.t},{r.k},{r.v})) = {mp.nstr(lhs, 10)}")
print(f"  phase * W~(g({reduced.t},{reduced.k},{reduced.v})) = {mp.nstr(rhs, 10)}")
print(f"  |phase| = {mp.nstr(abs(phase), 10)}")

print()
print("== reducing a raw matrix ==")
g = Mat2.from_rationals(p, [Fraction(7, 3), 2, 9, Fraction(1, 2)])
psi_ph, omega_ph, rep_triple = reduce_matrix(pi, g)
value = psi_ph.embed() * omega_ph.embed() * whittaker_value(pi, rep_triple)
print(f"  g reduces to {rep_triple} with phases psi = {psi_ph}, "
      f"omega = {omega_ph}")
print(f"  W(g) = {mp.nstr(value, 10)}")

print()
print("== Steinberg twists decay along the diagonal ==")
st = SteinbergTwist(ExtendedCharacter(make_character(5, 0, [])))
for t in range(0, 4):
    print(f"  W(diag(5^{t}, 1)) = {mp.nstr(st.diagonal_value(t), 8)}")
