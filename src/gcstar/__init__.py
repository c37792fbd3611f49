"""Finite groupoid convolution algebras and lattice limit operators.

Exact verification of the block structure of finite groupoid algebras
(primitive spectrum, induced representations, gluing) together with a
computable Fredholm model for band operators on the integer lattice.
"""

from .bandops import (BandOperator, Diagonal, FiniteSectionReport,
                      FredholmVerdict, LaurentSymbol, SymbolCheck,
                      finite_section_analysis, fredholm_verdict,
                      limit_operator, locality_check, symbol_invertible)
from .convolution import (ArrowFunction, RepMatrix, convolve, involution,
                          left_regular_rep, reduced_norm, regular_rep)
from .errors import (AmbiguityError, CoverPreconditionError,
                     GluingConditionError, GridRefinementNeeded, InputError)
from .gluing import (GluingFamily, GluingReport, check_weak_gluing,
                     family_from_reductions, glue)
from .groupoid import (FiniteGroup, FiniteGroupoid, GroupoidMorphism,
                       ValidationReport, action_groupoid, direct_product,
                       disjoint_union, group_groupoid, isotropy, orbits,
                       pair_groupoid, reduction, saturation, validate)
from .isosearch import group_isomorphism, groupoid_isomorphism
from .models import (GEOMETRIES, ModelOperatorSpec, boundary_symbol,
                     discretize_model, model_stencil)
from .spectrum import (Block, BlockDecomposition, ConcreteAlgebra,
                       block_decomposition, check_norm_estimates,
                       check_phi_isometry, concrete_algebra, induction_map,
                       morita_reduction_data, prim_partition,
                       verify_spectrum_decomposition, wedderburn)
from .suite import run_suite

__version__ = "0.1.0"
