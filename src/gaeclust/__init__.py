"""Graph auto-encoder clustering with reliable-node graph rewiring.

Attributed-graph clustering models (gae, vgae, dgae) trained end to end
with a self-supervision loop that periodically samples a reliable node
set from assignment confidences and rewires the reconstruction target
around per-cluster centroid nodes, plus the gradient-alignment
diagnostics used to study why the rewiring helps.
"""

# set before the submodules load: experiments records it in results.json
__version__ = "0.1.0"

from .clustering import (VAR_FLOOR, ClusterModel, SoftAssignment,
                         build_cluster_graph, evaluate_clustering,
                         gaussian_soft_assign, hungarian_map, kmeans,
                         relabel_truth, student_t_assign)
from .diagnostics import (DiagnosticTrace, TRACE_COLUMNS, decomposition_residuals,
                          graph_evolution_stats, lambda_fd, lambda_fr)
from .errors import (ConfigError, DataError, FormatError, GaeClustError,
                     NumericsError, OperatorError, RangeError, ShapeError,
                     StateError, TrainingError)
from .experiments import (ExperimentConfig, RunResult, export_embeddings,
                          graph_hash, pretrain_only, run, run_ablation_grid,
                          run_robustness, sha256_file, verify_theory,
                          write_json_atomic)
from .linalg import AdamState, adam_step, cosine, finite_diff_grad
from .graphio import (AttributedGraph, adjacency_from_edges,
                      load_dataset, make_graph, normalize_adjacency,
                      perturb_graph, save_dataset)
from .models import (EMBED_DIM, HIDDEN_DIM, GaeModel, TrainConfig, backprop_theta,
                     centroid_kmeans_loss, dgae_clus_loss, encode, flatten_theta,
                     init_model, kmeans_grad_z,
                     laplacian_quadratic, load_checkpoint, pretrain, recon_grad_z,
                     recon_loss, reconstruction_step, regularizer_R,
                     save_checkpoint, vgae_kl_prior)
from .operators import (ABSENT, SelfSupervisionGraph, build_supervised_target,
                        compute_centroid_nodes, passthrough_graph, save_edge_list,
                        upsilon_transform, xi_select)
from .training import model_assignment, train_joint

__all__ = [
    "AttributedGraph", "adjacency_from_edges",
    "load_dataset", "make_graph", "normalize_adjacency", "perturb_graph",
    "save_dataset",
    "VAR_FLOOR", "ClusterModel", "SoftAssignment", "build_cluster_graph",
    "evaluate_clustering", "gaussian_soft_assign", "hungarian_map", "kmeans",
    "relabel_truth", "student_t_assign",
    "AdamState", "adam_step", "cosine", "finite_diff_grad",
    "EMBED_DIM", "HIDDEN_DIM", "GaeModel", "TrainConfig",
    "backprop_theta", "centroid_kmeans_loss", "dgae_clus_loss", "encode",
    "flatten_theta", "init_model", "kmeans_grad_z",
    "laplacian_quadratic", "load_checkpoint", "pretrain", "recon_grad_z",
    "recon_loss", "reconstruction_step", "regularizer_R", "save_checkpoint",
    "vgae_kl_prior",
    "ExperimentConfig", "RunResult", "export_embeddings", "graph_hash",
    "pretrain_only", "run", "run_ablation_grid", "run_robustness",
    "sha256_file", "verify_theory", "write_json_atomic",
    "ABSENT", "SelfSupervisionGraph", "build_supervised_target", "compute_centroid_nodes",
    "passthrough_graph", "save_edge_list", "upsilon_transform", "xi_select",
    "model_assignment", "train_joint",
    "DiagnosticTrace", "TRACE_COLUMNS", "decomposition_residuals",
    "graph_evolution_stats", "lambda_fd", "lambda_fr",
    "GaeClustError", "ConfigError", "DataError", "FormatError",
    "NumericsError", "OperatorError", "RangeError", "ShapeError",
    "StateError", "TrainingError",
    "__version__",
]
