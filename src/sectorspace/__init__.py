"""Sectoral dynamics of startup venture financing.

Funding-round ingestion, investor strategy profiles in sector space,
barycenter trajectories through a PCA plane, tensor component analysis of
the investor x sector x year activity tensor, distance and concentration
metrics with uncertainty propagation, and synthetic ecosystems with
planted ground truth to verify all of it.
"""
from .errors import (
    AnalysisError,
    IntegrityError,
    OntologyError,
    SchemaError,
    SectorSpaceError,
    StageError,
)
from .ingest import (
    RawInvestor,
    RawRound,
    RawStartup,
    StageClass,
    StartupStatus,
    ValidatedDataset,
    classify_stage,
    dump_dataset,
    filter_startups,
    load_dataset,
    validate_dataset,
)
from .metrics import (
    DistanceSeries,
    HeatmapGrid,
    average_distance_to_barycenter,
    distance_series,
    distance_with_error,
    euclidean_distance,
    heatmap_grid,
    spread_series,
)
from .ontology import SectorOntology, default_ontology, dump_ontology, load_ontology
from .pca import (
    BarycenterPoint,
    PCAModel,
    StandardizationParams,
    TrajectoryPoint,
    barycenter,
    barycenter_trajectory,
    fit_on_profiles,
    fit_pca,
    fit_pca_model,
    project,
    project_sigma,
    sector_positions,
    standardize,
)
from .profiles import (
    GroupSpec,
    InvestorYearProfile,
    ProfileOptions,
    SectorActivity,
    StrategyVector,
    build_profiles,
    group_profiles,
    share_matrix,
    split_round,
    stage_partition,
)
from .synth import (
    ArchetypeSpec,
    ConcentrationSpec,
    DriftSpec,
    PlantedTruth,
    ScenarioConfig,
    SCENARIOS,
    generate_cp_tensor,
    generate_ecosystem,
)
from .tca import (
    CPModel,
    FitDiagnostics,
    StrategyTensor,
    build_tensor,
    cp_als,
    emerging_component,
    factor_match_score,
    model_similarity,
    rank_scan,
    reconstruction_error,
    select_rank,
    top_investors,
)

__all__ = [name for name in dir() if not name.startswith("_")]
