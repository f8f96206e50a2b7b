"""dualmem: streaming discovery of novel object categories with a dual memory."""

__version__ = "0.1.0"

from .config import Config, config_hash, load_config, save_config
from .consolidation import (
    AffinityGraph,
    ConsolidationRecord,
    build_affinity_graph,
    consolidate,
    merge_components,
    refine_slots,
    slot_affinity,
    train_slot_classifiers,
)
from .corpus import (
    DatasetSplit,
    convert_corpus,
    ingest_corpus,
    load_corpus,
    open_corpus,
    split_dataset,
    write_corpus_binary,
    write_corpus_jsonl,
)
from .evaluation import (
    ClusterReport,
    DiscoveryReport,
    auc,
    corloc,
    corret,
    count_discovered,
    coverage,
    cumulative_purity_curve,
    detrate,
    evaluate_run,
    iou,
    load_gt,
    purity,
    write_gt,
)
from .memory import (
    DecisionKind,
    DualMemory,
    RetrievalDecision,
    SemanticSlot,
    StaleDecisionError,
    WorkingSlot,
)
from .pipeline import (
    DiscoveryRun,
    RoundState,
    build_priors,
    estimate_background,
    final_assignments,
    run_discovery,
    run_discovery_round,
)
from .records import BoundingBox, CorpusFormatError, GroundTruthBox, GroundTruthTable, RegionRecord, RegionTable
from .stats import (
    BackgroundStats,
    InsufficientSamplesError,
    LinearClassifier,
    MomentAccumulator,
    finalize_background,
    train_lda,
)
from .synth import SynthSpec, generate, kmeans_baseline, load_spec, save_spec
