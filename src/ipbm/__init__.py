"""Immersed penalized boundary solvers for 3D Dirichlet problems.

Solves L u = f on a curved domain with u = g on its boundary by working
on the bounding box with trivariate splines: either a Galerkin-flavored
least-squares system (IPBF) or pointwise collocation (IPBC), with the
boundary data enforced through penalty rows at well-spaced surface
points.  Two spline families are provided: tensor-product B-splines and
continuous Bernstein-Bezier splines on type-5 tetrahedral partitions.
"""

from .assembly import (LinearSystem, SolverConfig, apply_operator,
                       assemble_ipbc, assemble_ipbf, collocation_points_tet,
                       collocation_points_tp, dump_system, load_system_dump)
from .geometry import (Domain, PointSet, TriangleMesh, classify_interior,
                       farthest_point_downsample, fibonacci_sphere, load_stl,
                       load_point_cloud, make_box_mesh, make_icosphere,
                       make_torus_mesh, mesh_domain, sample_surface,
                       save_point_cloud, save_stl, scale_to_unit_box,
                       unit_sphere_domain)
from .problems import (BVPDefinition, EllipticityReport, classify_ellipticity,
                       ellipticity_eigenvalues, make_preset)
from .quadrature import (QuadratureRule, box_rule, gauss_legendre,
                         simplex_monomial_integral, tet_rule)
from .runner import (ExperimentConfig, ExperimentReport, parse_config,
                     patch_test, report_csv, report_text, run_experiment,
                     write_report)
from .solver import (ErrorSummary, SolveResult, convergence_rate,
                     evaluate_errors, solve_least_squares, spline_values)
from .tet_spline import (S0dSpace, TetPartition, build_s0d_space,
                         build_smoothness_matrix, build_type5_partition,
                         domain_points, eval_bernstein, eval_s0d_batch,
                         interpolate_s0d, s0d_design_matrix)
from .tp_spline import (KnotVector, TensorProductSpace, build_tp_space,
                        eval_bspline_basis, eval_tp_batch, eval_tp_spline,
                        interpolate_tp, make_knots, tp_design_matrix)

__version__ = "0.1.0"
