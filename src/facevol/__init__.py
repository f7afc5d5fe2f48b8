"""Simplex face volumes from edge lengths, with exact spectral certificates."""

from .family import (
    FamilyConstants,
    FamilyInstance,
    MirrorPair,
    build_instance,
    build_pair,
    family_constants,
    sweep_rows,
    two_value_check,
    verify_pair,
)
from .inverse import (
    InverseProblem,
    SolveResult,
    basin_probe,
    random_realizable_spec,
    result_to_json,
    solve,
)
from .jacobian import (
    DegenerateFaceError,
    RegularPointConstants,
    analytic_jacobian,
    jacobian_rank,
    regular_point_constants,
    verify_regular_point,
    volume_gradient,
)
from .kneser import (
    KneserAdjacency,
    SpectrumSpec,
    build_kneser_adjacency,
    exact_determinant,
    multiplicities_from_traces,
    predicted_eigenvalues,
    predicted_spectrum,
    spectrum_report,
    verify_annihilation,
)
from .simplex import (
    FaceVolumeVector,
    RealizabilityCertificate,
    RealizabilityError,
    SimplexSpec,
    all_face_volumes,
    build_cm_matrix,
    face_complement,
    is_realizable,
    k_subsets,
    lex_pairs,
    load_spec,
    regular_simplex,
    relabel,
    save_spec,
    spec_from_json,
    spec_to_json,
    squared_volume,
    vertices_to_spec,
)

__version__ = "0.1.0"
