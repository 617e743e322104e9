"""Condense attributed graphs into small synthetic training sets."""

from .cluster import Clustering, cluster_means, kmeans, minibatch_kmeans, sketching_matrices, wcss
from .condense import (
    CondensedGraph,
    condense_adjacency,
    condense_labels,
    sparsify_condensed,
)
from .dataio import load_condensed, load_dataset, save_condensed, save_dataset
from .evaluate import (
    coreset_herding,
    coreset_kcenter,
    coreset_random,
    evaluate_on_original,
    gcn_forward,
    renormalized_adjacency,
    train_eval_gcn,
)
from .fid import (
    GaussianStats,
    cluster_size_variance_bound,
    covariance_gap_bound,
    fid,
    gaussian_stats,
    trace_sqrt_product,
)
from .graph import (
    Dataset,
    GraphError,
    SparseGraph,
    gls_objective,
    homophily_ratio,
    icad,
    normalize_rows,
    normalized_adjacency,
)
from .model import (
    ClassifierParams,
    DivergedError,
    TrainConfig,
    forward,
    init_classifier,
    softmax_cross_entropy,
    softmax_predict,
    train_classifier,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    PipelineResult,
    SbmSpec,
    generate_sbm,
    report_block,
    run_pipeline,
)
from .propagate import PropagationConfig, SolverError, gls_propagate, gls_solve_exact
from .refine import (
    ClassGraphSet,
    RefineResult,
    class_edge_weights,
    condense_class_graphs,
    consistency_loss,
    cosine_degrees,
    effective_resistance_approx,
    refine,
    sample_class_graphs,
    syn_loss,
)

__version__ = "0.1.0"
