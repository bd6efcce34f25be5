"""Walkthrough: the dominant-weight chain and its reflection principle.

Simulates the tensor-product chain, then checks the identity expressing
the projected n-step kernel through the free projected walk reflected over
the Weyl group.
"""

from affinewalks import algebra_from_name
from affinewalks.algebra import Weight, classify_weight
from affinewalks.chain import (dominant_states, mu_omega, pbar_power,
                               q_omega_row, reflection_discrete_residual,
                               simulate_chain)
from affinewalks.characters import rho_specialization


def main():
    alg = algebra_from_name("A1~")
    omega = Weight.make(2, (0,), 0)
    s = rho_specialization(alg, 3)
    L0 = alg.Lambda0()

    dist = mu_omega(alg, omega, s, 25)
    print(f"increment law: {len(dist.entries)} atoms, "
          f"mass {dist.total():.9f}, defect {dist.defect:.1e}")

    row = q_omega_row(alg, L0, omega, s, 15)
    print(f"kernel row at Lambda0: {len(row.entries)} entries, "
          f"mass+defect = {row.total() + row.defect:.9f}")

    traj = simulate_chain(alg, L0, omega, s, steps=6, seed=42, depth=40)
    print("\nsimulated chain (level, finite coordinate, delta coordinate):")
    for k, w in enumerate(traj):
        assert classify_weight(alg, w).dominant
        print(f"   step {k}: ({w.k}, {w.z[0]}, {w.b})")

    print("\ndiscrete reflection principle, residuals by step count:")
    for n_steps in (1, 2):
        level = 1 + 2 * n_steps
        for b0 in dominant_states(alg, level):
            if pbar_power(alg, omega, s, n_steps, L0, b0, 40) <= 0:
                continue
            res = reflection_discrete_residual(alg, omega, s, n_steps,
                                               L0, b0, 100)
            print(f"   n={n_steps}, target z={b0.z[0]}: {res:.2e}")


if __name__ == "__main__":
    main()
