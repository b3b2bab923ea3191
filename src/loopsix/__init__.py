"""loopsix: loop-space decompositions and rational homotopy of sphere-bundle
6-manifolds over simply connected closed 4-manifolds.

The pipeline: an intersection form and a pair of characteristic classes
``(w2, p1)`` determine a rank-3 bundle, whose sphere bundle is a closed
6-manifold M.  The based loop space of M decomposes as a product of a
circle, loops on spheres, and (over the 4-sphere) homotopy fibers of degree
maps; from the decomposition one reads off homotopy groups via sphere
tables and rational homotopy ranks, and the same ranks are recomputed
independently through Koszul duality of the cohomology ring for
cross-validation.
"""

from .errors import InputError, LoopSixError, UnsupportedCase, UnsupportedError
from .groups import (
    FGAbelianGroup,
    SphereTable,
    load_table,
    pi_manifold,
    pi_sphere,
)
from .homotopy import (
    Circle,
    LoopFactorMultiset,
    Loop,
    Node,
    Product,
    Smash,
    Sphere,
    SphereModN,
    Wedge,
    analyze_circle_bundle,
    ast_to_json,
    decompose,
    extension_notes,
    hilton_milnor,
    loop_factors,
    loop_homology_series,
    normalize,
    render,
    y_space_report,
)
from .manifold import (
    BundleData,
    FourManifold,
    SixManifoldRing,
    bundle_from_classes,
    cohomology_ring,
    is_spin,
    loop_rigidity_equivalent,
    new_four_manifold,
    pairing_parity,
    validate_bundle,
)
from .rational import (
    CoformalityReport,
    QuadraticPresentation,
    SullivanModel,
    cdga_cohomology,
    coformality_check,
    d1_model,
    free_graded_lie_dims,
    hilbert_series,
    is_rationally_elliptic,
    koszul_dual_series,
    lie_dims,
    quadratic_presentation,
    ranks_from_decomposition,
)
from .series import (
    GradedLieDims,
    TruncatedSeries,
    pbw_expand,
    pbw_invert,
    series_mul,
    series_reciprocal,
)

__version__ = "0.1.0"
