"""Twisted group algebras over finite groups with small *-algebra
coefficients: cocycle validation, algebra arithmetic, coboundary
classification, explicit isomorphisms, and Clifford periodicity."""

from .rings import (COMPLEX, REAL, QUATERNION, DEFAULT_TOL, DEFAULT_GRID,
                    RingDescriptor, RingValue, laurent, matrix_ring,
                    product_ring, real_basis, real_dim)
from .groups import (GroupTable, SubsetGroup, direct_product, make_cyclic,
                     make_subset_group, product_index)
from .cocycle import (KLEIN_A, KLEIN_B, KLEIN_C, Lambda, SchurFunction,
                      ValidationReport, coboundary, cocycle_inverse,
                      cocycle_mul, cyclic_power_value, equivalent_cyclic,
                      hat, klein_table, make_f_alpha, tensor_cocycle, tilde,
                      trivial_cocycle, validate, winding,
                      z_coboundary_witness)
from .algebra import (AlgebraElement, RegularMatrix, alg_mul, alg_norm,
                      alg_star, center_check, coefficient,
                      coefficient_positivity, embed_scalar, generator,
                      is_projection, projection_pair, regular_matrix,
                      restrict_cocycle, restrict_to_subgroup,
                      trace_functional, unit)
from .isolab import (AlgebraModel, ComplexifiedModel, CornerModel,
                     DirectSumModel, MatrixModel, Morphism, MorphismReport,
                     QuaternionTensorModel, RingModel, TwistedModel,
                     char_decompose_z2n, cyclic_decompose,
                     extend_generator_images, identity_morphism,
                     klein_complex_pair, klein_matrix, klein_quaternion,
                     klein_split4, lambda_isomorphism, laurent_z2_rewrite,
                     tensor_structure_check, verify_morphism, z2_complexify,
                     z2_split, z2n_torus_rewrite, z2z4_cocycle,
                     z2z4_corrected_cocycle, z2z4_decompose)
from .clifford import (CliffordSpec, IsometryPair, clifford_cocycle,
                       complexify_odd, corner_projection,
                       extend_even_projection, extend_two_matrix,
                       extend_two_quaternion, matrix_corner_elements,
                       projection_family, split_odd, transposition_sign,
                       universal_map)

__version__ = "0.1.0"
