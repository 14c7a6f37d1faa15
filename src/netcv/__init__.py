"""Network cross-validation: choose the number of communities and the
block-model type (plain or degree-corrected) for one observed network
by V-fold cross-validation on block-wise node-pair splits."""

from .graphs import (check_adjacency, check_membership, confusion_matrix,
                     hamming_up_to_permutation, largest_connected_component,
                     load_edge_list, partition_nodes, write_edge_list)
from .models import (DcbmParams, SbmParams, expected_P, normalize_activeness,
                     sample, sim1_params, sim2_params, sim3_params)
from .spectral import (ClusterResult, SingularBasis, geometric_median, kmeans,
                       kmedian_spherical, spectral_cluster_rect,
                       spherical_embed, spherical_spectral_cluster_rect,
                       top_k_right_singular)
from .estimators import BlockFit, clamp_probs, estimate_block
from .ncv import (Candidate, NcvReport, candidate_grid, fold_fit_validate,
                  ncv_select, repeat_ncv)
from .harness import (ExperimentSpec, SuccessTable, run_experiment,
                      run_polblogs, run_sim1, run_sim2, run_sim3,
                      write_loss_curves_csv)

__version__ = "0.1.0"

__all__ = [
    "check_adjacency", "check_membership", "confusion_matrix",
    "hamming_up_to_permutation", "largest_connected_component",
    "load_edge_list", "partition_nodes", "write_edge_list",
    "DcbmParams", "SbmParams", "expected_P", "normalize_activeness", "sample",
    "sim1_params", "sim2_params", "sim3_params",
    "ClusterResult", "SingularBasis", "geometric_median", "kmeans",
    "kmedian_spherical", "spectral_cluster_rect", "spherical_embed",
    "spherical_spectral_cluster_rect", "top_k_right_singular",
    "BlockFit", "clamp_probs", "estimate_block",
    "Candidate", "NcvReport", "candidate_grid", "fold_fit_validate",
    "ncv_select", "repeat_ncv",
    "ExperimentSpec", "SuccessTable", "run_experiment", "run_polblogs",
    "run_sim1", "run_sim2", "run_sim3", "write_loss_curves_csv",
    "__version__",
]
