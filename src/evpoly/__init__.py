"""Discrete affine invariants of polygons in 3-space.

Core objects: half-integer grid sequences and polygons (core), parallel
Darboux fields and osculating developables (darboux), equal-volume
checks and resampling (equal_volume), Frenet coefficients and the affine
focal set (invariants), equal-area generators and lifts (constructions),
discrete projective lengths (projective), file formats and the command
line (documents, cli).
"""

from .core import (
    GeometryError,
    Grid,
    GridSeq,
    Polygon3,
    Topology,
    det2,
    det3,
    forward_diff,
)
from .darboux import (
    DarbouxField,
    FramedPolygon,
    SurfaceKind,
    classify_osculating,
    osculating_developable,
    osculating_points,
    parallel_darboux,
    validate_frame,
)
from .equal_volume import (
    VolumeReport,
    centroaffine_volumes,
    darboux_volumes,
    is_equal_volume,
    resample_equal_volume,
    space_volumes,
)
from .invariants import (
    FocalKind,
    FrenetData,
    centroaffine_frenet,
    classify_focal,
    focal_data,
    focal_set_mesh,
    frenet,
    lambda_from_tau,
    planar_reduction,
)
from .constructions import (
    PlanarEqualAreaPolygon,
    area_lift,
    regular_equal_area,
    sample_curve,
    silhouette_lift,
    support_function,
)
from .projective import (
    PlanarProjectivePolygon,
    b_sequence,
    lift_representative,
    projective_lengths,
    table1_experiment,
)
from .documents import PolygonDocument, read_document, write_document
from .meshes import Mesh

__version__ = "0.1.0"
