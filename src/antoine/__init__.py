"""Self-similar chains of linked solid tori and their escape-time dynamics.

Library layout:
  geom3     vectors, rotations, similarities, circles, solid tori
  necklace  the explicit stage-1 construction and its validation certificates
  linking   Gauss-integral and signed-crossing linking numbers
  dynamics  escape classification, periodic points, model maps, dimensions
  exports   OBJ/PLY meshes, escape-depth volume grids, point clouds
  cli       the `antoine` command
"""

from .dynamics import (
    EscapeKind,
    ExteriorModel,
    PeriodicPoint,
    box_dimension_estimate,
    chaos_game_sample,
    classify_points,
    coding_point,
    density_report,
    dilatation_estimate,
    enumerate_periodic,
    exterior_model_map,
    orbit,
    similarity_dimension,
    winding_map,
)
from .geom3 import (
    Circle3,
    Rotation3,
    Similarity3,
    SolidTorus,
    circle_circle_distance,
    fixed_points,
    point_circle_distance,
)
from .linking import LinkMatrix, PolyLoop, gauss_linking, link_matrix, polygonal_linking
from .necklace import (
    Necklace,
    StageSummary,
    ValidationReport,
    build_necklace,
    stage_summary,
    torus_at,
    validate_necklace,
    word_map,
    word_maps,
)
