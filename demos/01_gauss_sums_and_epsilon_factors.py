"""Gauss sums and GL(1) epsilon factors, exactly.

The Gauss transform G(x, mu) averages psi(x*y) mu(y) over the units of Z_p;
it vanishes except in five explicit situations, and at the critical
valuation it equals zeta(1) q^(-a/2) times the epsilon factor of mu^-1.
epsilon_factor sums only the stationary coset of that Gauss sum (one root
for even conductor, p roots for odd), so the full brute-force sum is an
independent check of it.  Everything below is computed by exact
root-of-unity summation and printed at 128-bit precision.
"""

from mpmath import mp

from padwhit import (
    PAdicApprox,
    characters_mod,
    critical_unit,
    epsilon_factor,
    format_char,
    gauss_sum,
    gauss_sum_closed,
    make_character,
)
from padwhit.characters import zeta1

p = 3
quad = make_character(p, 1, [1])          # the quadratic character mod 3
wild = make_character(p, 2, [1])          # a conductor-2 character mod 9

print("== the five-case dichotomy (p = 3, quadratic character) ==")
for t in range(-3, 2):
    x = PAdicApprox(p, t, 1, 6)
    for mu, name in [(make_character(p, 0, []), "trivial"), (quad, "quad")]:
        got = gauss_sum(x, mu)
        assert abs(got - gauss_sum_closed(x, mu)) < mp.mpf("1e-20")
        print(f"  G(3^{t:+d}, {name:7s}) = {mp.nstr(got, 12)}")

print()
print("== epsilon factors of every character of conductor <= 2 ==")
for mu in characters_mod(p, 2):
    e = epsilon_factor(mu)
    dual = epsilon_factor(mu.inverse())
    print(f"  eps(1/2, {format_char(mu)}) = {mp.nstr(e, 12)}   "
          f"|eps| - 1 = {mp.nstr(abs(e) - 1, 3)}   "
          f"eps * eps_dual = {mp.nstr(e * dual, 8)} (= mu(-1))")

print()
print("== epsilon factors against the brute-force Gauss sum ==")
for mu in characters_mod(p, 3):
    a = mu.conductor
    if a == 0:
        continue
    x = PAdicApprox(p, -a, 1, a)
    brute = gauss_sum(x, mu.inverse()) / (zeta1(p) * mp.power(p, -mp.mpf(a) / 2))
    assert abs(brute - epsilon_factor(mu)) < mp.mpf("1e-30")
print(f"  all {sum(1 for mu in characters_mod(p, 3) if mu.conductor)} ramified "
      f"characters mod {p ** 3} agree to 1e-30")

print()
print("== the aligning unit of a wildly ramified character ==")
# For cond(chi) = r >= 2 there is a unit v0, unique mod p^floor(r/2), with
# chi(1 + p^(r - r0) u) = psi(v0^-1 p^-r0 u) for every integer u.
v0 = critical_unit(wild)
print(f"  chi = {format_char(wild)}:  v0 = {v0} (mod {p ** (wild.conductor // 2)})")
print("  alignment consequence: eps(1/2, (mu chi)^-1) mu(-v0) is independent")
print("  of mu through conductor floor(r/2):")
target = epsilon_factor(wild.inverse())
for mu in characters_mod(p, wild.conductor // 2):
    got = epsilon_factor((mu * wild).inverse()) * mu.eval_unit(-v0 % 3).embed()
    print(f"    mu = {format_char(mu)}: {mp.nstr(got, 12)}  "
          f"(target {mp.nstr(target, 12)})")
