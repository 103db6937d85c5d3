"""Exact verification of Lefschetz/Hodge positivity on blow-ups of projective
space, the weight spectral sequence on semistable special fibers, and local
zeta functions."""

__version__ = "0.1.0"

from .fields import FieldSpec, field_spec
from .geometry import (LinearSubvariety, enumerate_subspaces, contains,
                       point_count, gaussian_binomial, quotient_geometry)
from .cohomology import (Projective, BlownUp, Product, proj, blowup, product,
                         build_ring, betti_numbers, intersection_number,
                         hyperplane_relation, restrict_to_divisor)
from .lefschetz import (make_context, check_hard_lefschetz,
                        primitive_decomposition, primitive_gram,
                        check_hodge_standard, invariant_form, is_positive,
                        omega_form, omega_class, hodge_sweep)
from .weightss import (load_complex, complex_to_json, build_e1,
                       check_purity, euler_check, inertia_invariants,
                       verify_rz_lemmas, weight_table,
                       SemistableComplex, Stratum, explicit_surface_ring)
from .fixtures import make_fixture
from .zeta import (l_factor, zeta_function, mu_from_e2, theorem_shape,
                   zeta_matches_weight_table)

__all__ = [name for name in dir() if not name.startswith("_")]
