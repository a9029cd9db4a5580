"""Exact arithmetic for toroidal embeddings of split reductive groups.

The package verifies, over the rationals and the rational function field in
one deformation parameter, the combinatorial classification data (cones, fans,
Hilbert bases) and the explicit birational constructions (reflection charts,
reordered multiplication, two-sided action, chart transfer) attached to a
split group and a fan in its cocharacter lattice.
"""

from .analysis import analyze, report_status
from .bigcell import (
    Calculus,
    DomainReport,
    EquivalenceVerdict,
    MixedPoint,
    OutsideDomain,
    OutsideVi,
    specialize_mixed,
)
from .charts import (
    ChartPoint,
    InvalidChartValues,
    LimitDoesNotExist,
    NotAFace,
    ZeroCoordinate,
    ZeroScalar,
    chart_inclusion,
    coweight_scale,
    evaluate_character,
    identity_point,
    in_closed_orbit,
    limit_point,
    specialize_at_zero,
    torus_coordinates,
    torus_point,
    torus_translate,
    wonderful_coords,
)
from .chevalley import (
    NotInBigCell,
    NotSingleRootImage,
    Pinning,
    random_element,
)
from .cones import (
    Cone,
    Fan,
    InvalidFan,
    NotInMonoid,
    ZeroCone,
    cone_index,
    cone_is_smooth,
    face_witness,
    fan_validate,
    generators_from_halfspaces,
    interior_cocharacter,
    intersect,
    is_face,
    is_proper,
    is_proper_in_chamber,
    is_smooth,
    orbit_fan,
    supported_in_chamber,
)
from .linalg import (
    Matrix,
    integer_inverse,
    integer_kernel,
    integer_rank,
    primitive_vector,
    smith_normal_form,
)
from .ratfun import EPS, PoleAtZero, RatFun, evaluate_at_zero
from .rootdata import (
    NotFiniteType,
    RootDatum,
    WeylElement,
    WeylGroup,
    cartan_matrix_of_type,
)
from .serialize import dumps_report, load_fan, load_root_datum, rational_str
from .suites import (
    SUITE_NAMES,
    PropertyResult,
    UnknownSuite,
    VerificationReport,
    run_suite,
)

__version__ = "0.1.0"
