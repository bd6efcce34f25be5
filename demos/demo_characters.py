"""Walkthrough: numeric characters, theta functions, denominator identity.

Everything converges on the half-space where the delta pairing of the
evaluation point is positive; the rho/n family walks toward the critical
line as n grows.
"""

import math

from affinewalks import algebra_from_name, weyl_vector
from affinewalks.algebra import Weight, inner_product, pair_delta
from affinewalks.characters import (denominator_residual, eval_character,
                                    eval_theta, rho_specialization,
                                    weyl_alternating_value)
from affinewalks.highestweight import character_series_oracle


def main():
    alg = algebra_from_name("A1~")
    rho = weyl_vector(alg)
    L0 = alg.Lambda0()

    for n in (1, 2, 5, 10):
        s = rho_specialization(alg, n)
        r = eval_character(alg, L0, s, eps=1e-10)
        print(f"ch_[Lambda0](rho/{n:>2}) = {r.value:.10g}   "
              f"(radius {r.truncation_depth}, rel bound {r.rel_bound:.1e})")

    # the quotient against the multiplicity series of the independent oracle
    s = rho_specialization(alg, 2)
    r = eval_character(alg, L0, s, eps=1e-13)
    c = float(pair_delta(alg, s))
    gp = [float(x) for x in alg.finite_covector(s.z)]
    series = math.exp(float(inner_product(alg, L0, s))) * math.fsum(
        v * math.exp(-d * c - sum(x * y for x, y in zip(m, gp)))
        for (d, m), v in character_series_oracle(alg, L0, 60).entries.items())
    print(f"\ncharacter formula cross-check: Weyl-Kac quotient {r.value:.12g} "
          f"vs multiplicity series (depth 60) {series:.12g}")
    print(f"denominator alternant at rho/2: {weyl_alternating_value(alg, rho, s):.12g}")

    lam = Weight.make(2, (1,), 0)
    th = eval_theta(alg, lam, s, eps=1e-11)
    print(f"theta of a level-2 weight at rho/2: {th.value:.10g} "
          f"(+/- {th.tail_bound:.1e})")

    print("\ndenominator identity residual (matched truncations):")
    for n in (1, 5, 10):
        s = rho_specialization(alg, n)
        print(f"   rho/{n:>2}, depth 20: {denominator_residual(alg, s, 20):.2e}")


if __name__ == "__main__":
    main()
