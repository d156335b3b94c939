"""Exact-arithmetic toolkit for Hadamard products and powers of projective
linear spaces: generator matrices and Pluecker formulas for line powers,
star configurations from collinear points, Terracini tangent spans,
tropical degree formulas cross-checked against fan computations, and an
interpolation oracle recovering defining equations exactly from a
unisolvent parameter grid.
"""

from .linalg import (BudgetExhausted, PreconditionError, QMatrix, integer_rank, rat,
                     rat_str)
from .poly import SparsePoly, monomials_of_degree, proportional
from .projective import (LinSpace, PPoint, PlueckerVector, all_ones_point,
                         intersect_spaces, line_through, pluecker,
                         point_times_space, sample_point)
from .line_powers import (line_power_matrix, line_power_minor, line_power_pluecker,
                          power_hyperplane, power_linear_equations,
                          sampled_power_span)
from .star_configs import (PointSet, StarWitness, build_star,
                           squarefree_power, squarefree_power_with_subsets,
                           verify_general_position, verify_star)
from .samplers import (VarietySampler, hadamard_power_sampler,
                       hadamard_product_sampler, linear_space_sampler,
                       reciprocal_sampler, segre_sampler)
from .products import (expected_dimension, gen_vandermonde,
                       identifiability_check, identifiability_regime_bound,
                       interpolate_forms, interpolate_hypersurface,
                       span_dimension_formula, terracini_dim, terracini_span)
from .tropical import (NonGenericVector, SignedConeFan, closed_form_degree,
                       degree_linear_products, degree_with_reciprocals,
                       draw_generic_vector, fan_degree_pipeline,
                       genericity_bound, lattice_index, mask_indices,
                       minkowski_sum, negate_fan, stable_mult_origin,
                       standard_tls)
from .brackets import (cubic_plane_square, quadric_bracket_display,
                       quadric_square_symbolic, quadric_symbolic_identity,
                       quadric_two_lines, verify_identity)

__all__ = [name for name in dir() if not name.startswith("_")]
