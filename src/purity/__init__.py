"""Exact verification of Lefschetz/Hodge positivity on blow-ups of projective
space, the weight spectral sequence on semistable special fibers, and local
zeta functions.  The names below are re-exported from their modules, each
module imported on first access (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "fields": "",
    "geometry": "LinearSubvariety enumerate_subspaces contains point_count "
                "gaussian_binomial",
    "linalg": "",
    "cohomology": "Projective BlownUp Product proj blowup product build_ring "
                  "betti_numbers intersection_number hyperplane_relation "
                  "restrict_to_divisor",
    "lefschetz": "make_context check_hard_lefschetz primitive_decomposition "
                 "check_hodge_standard is_positive omega_form",
    "weightss": "load_complex complex_to_json check_purity "
                "euler_check inertia_invariants verify_rz_lemmas weight_table "
                "SemistableComplex Stratum explicit_surface_ring",
    "fixtures": "make_fixture",
    "zeta": "l_factor zeta_function mu_from_e2 theorem_shape "
            "zeta_matches_weight_table",
}
_HOME = {name: mod for mod, names in _EXPORTS.items()
         for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    if name in _HOME:
        return getattr(import_module("." + _HOME[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
