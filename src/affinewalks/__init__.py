"""Affine highest-weight machinery: exact Cartan/Weyl data, truncated
multiplicity tables, numeric characters and theta functions, tensor-product
Markov chains on dominant weights, and the conditioned space-time diffusion
in the affine Weyl chamber, with verifiers for the identities tying them
together."""

from .algebra import (AffineAlgebra, AffineCartanMatrix, NotAffineError,
                      Weight, WeightClassification, algebra_from_json,
                      algebra_from_name, build_algebra, classify_weight,
                      inner_product, pairing_coroot, weyl_vector)
from .characters import (EvalResult, denominator_residual, eval_character,
                         eval_theta, rho_specialization)
from .chain import (KernelRow, FastBarredKernel, mu_omega, pbar_power,
                    q_omega_row, reflection_discrete_residual, simulate_chain)
from .diffusion import (SpaceTimePoint, chamber_test, harmonic_residual,
                        reflected_density, sample_path_batch, survival,
                        wonpt_residual)
from .harness import (ComparisonReport, ExperimentConfig, ks_statistic,
                      run_cli, scaling_chain_experiment,
                      scaling_walk_experiment)
from .highestweight import (MultiplicityTable, branching_mult,
                            character_series_oracle, freudenthal_table,
                            tensor_power_table)
from .layerseries import IncrementAtoms, increment_atoms
from .weyl import (AffineWeylElement, FiniteWeylElement, apply,
                   enumerate_bounded, finite_group, lattice_basis, reflect,
                   translate)

__version__ = "0.1.0"
