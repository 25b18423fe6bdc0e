"""swaynet: retweet-network backbones, aligned-user follower dynamics, and
cascade-driven growth-rate fitting."""

from .alignment import (
    classify_all,
    coverage_curve,
    involvement_profiles,
    proportions,
    ternary_histogram,
)
from .backbone import (
    HeterogeneityReport,
    TopologyReport,
    backbone_size_curve,
    disparity_filter,
    edge_alpha,
    null_heterogeneity_moments,
    strong_disorder_test,
    topology_report,
)
from .events import (
    CONTENT_CLASSES,
    ByteChunks,
    ParseError,
    classify_category,
    parse_events,
    write_events_jsonl,
)
from .graph import (
    PartitionReport,
    WeightedDigraph,
    creator_consumer_partition,
    reachable_set,
)
from .growth import (
    GrowthPoint,
    TimeWindow,
    sliding_windows,
    trend_line,
    window_growth_rate,
)
from .sir import (
    CascadeSetup,
    FitConfig,
    FitResult,
    cascade_populations,
    final_size,
    fit_parameters,
    sample_rho,
    swayable_recovered_count,
    temporal_network,
)
from .store import EventColumns, FollowerSnapshots
from .synth import SynthConfig, synthesize

__version__ = "0.1.0"
