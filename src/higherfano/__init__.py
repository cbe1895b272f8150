"""Exact intersection-theory toolkit for positivity of Chern characters.

Computes Chern characters of the classical example families (complete
intersections, Grassmannians and their hyperplane sections, orthogonal and
symplectic Grassmannians, the two-orbit variety, the G2 fivefold), decides
weak positivity / nefness by exact rational arithmetic, cross-checks the
verdicts against closed-form thresholds and against the cone criterion on
the polarized minimal family of rational curves, and re-derives the
family-side character formula symbolically.

Importing the package loads none of its submodules.  Each name of __all__
imports the submodule that defines it when it is first read (PEP 562), so
`from higherfano import *` and `higherfano.GradedClass` load what they name,
and a command of the CLI loads only the modules it runs.
"""

__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "numeric": ("Rational", "bernoulli", "bernoulli_values", "power_sum", "todd_coeff"),
    "rings": ("GradedClass", "RingModel", "integrate", "product_ring", "projbundle_ring", "projective_space_ring"),
    "schubert": ("GrassmannianRing", "dual_pairing", "grassmannian_ring", "partition_label", "pieri"),
    "bundles": ("todd_line",),
    "minimalfamily": ("MinimalFamilyInput", "T_power", "ch_Hx", "ci_T_images", "ci_family_character_direct",
                      "model_ring", "push_pi", "verify_claim31", "verify_prop11_ci", "verify_prop11_symbolic"),
    "catalog": ("PolarizedPair", "catalog_entries", "catalog_to_json", "classify_pair", "extremal_L_degrees",
                "positivity_of_twist", "twist_class"),
    "families": ("FamilySpec", "Verdict", "chk_verdict", "consistency_check", "minimal_pair", "parse_spec",
                 "product_nonexample", "threshold_oracle"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
