"""Exact intersection-theory toolkit for positivity of Chern characters.

Computes Chern characters of the classical example families (complete
intersections, Grassmannians and their hyperplane sections, orthogonal and
symplectic Grassmannians, the two-orbit variety, the G2 fivefold), decides
weak positivity / nefness by exact rational arithmetic, cross-checks the
verdicts against closed-form thresholds and against the cone criterion on
the polarized minimal family of rational curves, and re-derives the
family-side character formula symbolically.
"""

__version__ = "0.1.0"

from .numeric import Rational, bernoulli, bernoulli_values, power_sum, todd_coeff
from .rings import (
    GradedClass,
    RingModel,
    integrate,
    product_ring,
    projbundle_ring,
    projective_space_ring,
)
from .schubert import (
    GrassmannianRing,
    dual_pairing,
    grassmannian_ring,
    partition_label,
    pieri,
)
from .bundles import todd_line
from .minimalfamily import (
    MinimalFamilyInput,
    T_power,
    ch_Hx,
    ci_T_images,
    ci_family_character_direct,
    model_ring,
    push_pi,
    verify_claim31,
    verify_prop11_ci,
    verify_prop11_symbolic,
)
from .catalog import (
    PolarizedPair,
    catalog_entries,
    catalog_to_json,
    classify_pair,
    extremal_L_degrees,
    positivity_of_twist,
    twist_class,
)
from .families import (
    FamilySpec,
    Verdict,
    chk_verdict,
    consistency_check,
    minimal_pair,
    parse_spec,
    product_nonexample,
    threshold_oracle,
)
