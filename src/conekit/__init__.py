"""Right inverses of linear surjections restricted to cones.

A linear map T pushing a closed convex cone C onto a normed space X admits
a continuous positively homogeneous right inverse with a uniform norm bound.
This package computes the quantitative side of that statement on concrete
finite-dimensional instances: openness constants, the equivalent norm built
from the preimage gauge, norm-controlled right inverses and the constrained
selections behind them, order-theoretic decomposition constants, and the
pointwise lifting of all of it to sampled function spaces.
"""

from .cones import (Cone, DirectSumL1, Generators, Halfspaces, Negation, Orthant,
                    Product, SecondOrder, combine, contains, dual, is_polyhedral,
                    project_l2, space_norm)
from .conemap import ConeMap, SurjectivityReport
from .funclift import (LiftInfeasible, LiftReport, LiftResult, PropertyCheck,
                       SampledFunction, SampledSpace, function_space_conormality,
                       lift, pointwise_recover)
from .instances import (Instance, InstanceError, load_instance, parse_instance,
                        random_polyhedral_instance)
from .norms import BlockNorm, NormTag, operator_norm_upper
from .ordered import (AndoDecomposition, ApproximateConormalityReport, ConormalityKind,
                      OrderedSpace, TransferReport, ando_decompose, conormality_constant,
                      decomposition_bound, decomposition_value, is_generating,
                      kind_objective, positive_part_functional, summing_map,
                      verify_approximate_conormality, verify_conormality_transfer)
from .sampling import SamplerConfig, ball_vertices, covering_radius, sphere_directions
from .selection import (ConstraintFunctional, CorrespondenceSpec, EmptyCorrespondence,
                        LipschitzReport, RightInverse, SphereTable, achievable_alpha,
                        correspondence_value, extend_from_sphere, gamma,
                        gamma_constrained, hemicontinuity_probe, hemicontinuity_schedule,
                        lipschitz_estimate, selection_bound, tabulate_sphere)
from .solver import (BallConstraint, FeasibilityReport, MinNormProblem, Solution,
                     SolveStatus, check_feasible, farkas_certificate, solve_max_block_norm,
                     solve_min_gauge, solve_min_linear, solve_min_norm)

__version__ = "0.1.0"

__all__ = [
    "AndoDecomposition", "ApproximateConormalityReport", "BallConstraint", "BlockNorm",
    "Cone", "ConeMap", "ConormalityKind", "ConstraintFunctional", "CorrespondenceSpec",
    "DirectSumL1", "EmptyCorrespondence", "FeasibilityReport", "Generators",
    "Halfspaces", "Instance", "InstanceError", "LiftInfeasible", "LiftReport",
    "LiftResult", "LipschitzReport", "MinNormProblem", "Negation", "NormTag",
    "OrderedSpace", "Orthant", "Product", "PropertyCheck", "RightInverse",
    "SampledFunction", "SampledSpace", "SamplerConfig", "SecondOrder", "Solution",
    "SolveStatus", "SphereTable", "SurjectivityReport", "TransferReport",
    "achievable_alpha", "ando_decompose", "ball_vertices", "check_feasible", "combine",
    "conormality_constant", "contains", "correspondence_value", "covering_radius",
    "decomposition_bound", "decomposition_value", "dual", "extend_from_sphere",
    "farkas_certificate", "function_space_conormality", "gamma", "gamma_constrained",
    "hemicontinuity_probe", "hemicontinuity_schedule", "is_generating", "is_polyhedral",
    "kind_objective", "lift", "lipschitz_estimate", "load_instance", "operator_norm_upper",
    "parse_instance", "pointwise_recover", "positive_part_functional", "project_l2",
    "random_polyhedral_instance", "selection_bound", "solve_max_block_norm",
    "solve_min_gauge", "solve_min_linear", "solve_min_norm", "space_norm",
    "sphere_directions", "summing_map", "tabulate_sphere",
    "verify_approximate_conormality", "verify_conormality_transfer",
]
