"""Walkthrough: the space-time chamber diffusion.

Survival probabilities, the reflected density of the killed process, the
harmonicity of the chamber factors, and conditioned sampling by exact
h-transform transitions.
"""

import math

import numpy as np

from affinewalks import algebra_from_name, weyl_vector
from affinewalks.diffusion import (SpaceTimePoint, chamber_test,
                                   harmonic_residual, reflected_density,
                                   sample_path_batch, survival,
                                   weight_to_point)
from affinewalks.weyl import enumerate_bounded


def main():
    alg = algebra_from_name("A1~")
    rho = weyl_vector(alg)

    print("survival probability along the drift ray t * rho:")
    for t in (1, 2, 5, 20):
        pt = weight_to_point(alg, rho.scale(t))
        v, tail = survival(alg, pt)
        print(f"   t = {t:>2}: {v:.8f}  (tail {tail:.1e}, "
              f"margin {chamber_test(alg, pt)[1]:.1f})")

    x = weight_to_point(alg, rho)
    t = 1.0
    y = SpaceTimePoint(x.s + t * alg.dual_coxeter, np.array([1.2]))
    d1 = reflected_density(alg, x, y, t, "drifted-by-x")
    d2 = reflected_density(alg, x, y, t, "drifted-by-y")
    print(f"\nkilled density two ways: {d1:.12g} / {d2:.12g} "
          f"(rel gap {abs(d1 - d2) / d1:.1e})")

    w = next(e for e in enumerate_bounded(alg, 1.5) if not e.is_identity())
    p = SpaceTimePoint(2.5, np.array([0.7]))
    r1 = harmonic_residual(alg, w, p, 1e-3)
    r2 = harmonic_residual(alg, w, p, 5e-4)
    print(f"generator on a chamber factor: residual {r1:.2e} at step 1e-3, "
          f"Richardson ratio {r2 / r1:.3f}")

    batch = sample_path_batch(alg, x, 2.0, 1e-3, 4000, seed=17,
                              conditioned=False)
    v, _ = survival(alg, x)
    print(f"\nfree process from rho: exit fraction by t=2 is "
          f"{batch.exit_fraction(2.0):.3f} "
          f"(never exiting has probability {v:.3f})")

    # exact h-transform transitions: nothing exits or aborts, at recorded
    # times or along whole paths
    cond = sample_path_batch(alg, x, 1.0, 1e-3, 2000, seed=18,
                             conditioned=True, record_times=(1.0,))
    z1 = cond.z[1000][:, 0]
    print(f"conditioned process at t=1: mean {z1.mean():.3f}, "
          f"std {z1.std():.3f}")
    whole = sample_path_batch(alg, x, 1.0, 1e-2, 200, seed=19,
                              conditioned=True, record=True)
    closest = min(chamber_test(alg, SpaceTimePoint(whole.s[k], z))[1]
                  for k in whole.z for z in whole.z[k])
    print(f"200 whole conditioned paths, 100 steps: closest approach to a "
          f"wall {closest:.4f}")


if __name__ == "__main__":
    main()
