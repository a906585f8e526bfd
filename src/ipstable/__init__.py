"""Individually stable clustering: exact solvers, embeddings, baselines.

A clustering is individually stable when no point would, on average, be
closer to some other cluster than to its own. This package bundles

  * an auditor for arbitrary clusterings over any finite metric (`core`),
  * exact solvers for points on a line (`line1d`), target cluster sizes via
    dynamic programming (`dp_target`), and 2-clusterings of weighted trees
    (`tree`),
  * hierarchically well-separated tree machinery with an embedding-based
    approximate solver for general metrics (`hst`),
  * algorithms with guarantees on well-separated instances (`separated`),
  * classic baselines for comparison (`baselines`),
  * generators for adversarial instances and small fixtures (`hardgen`),
  * a command line front end (`cli`).
"""

from .core import (
    Clustering,
    DistanceOracle,
    StabilityReport,
    STABILITY_TOL,
    audit,
    brute_force,
    is_t_stable,
)
from .line1d import LineInstance, solve_1d
from .dp_target import solve_targets
from .tree import WeightedTree, solve_tree2
from .hst import (
    Hst,
    cluster_via_embedding,
    embed_hst,
    hst_k_clustering,
    normalize_leaves,
)
from .separated import (
    GAMMA_MIN,
    check_alpha_gamma,
    exact_enumerate,
    linkage_conditioned,
    linkage_size_guard,
    pipeline,
)
from .baselines import (
    cut_dendrogram,
    greedy_prune,
    kcenter_greedy,
    kmeans_pp,
    linkage,
    lloyd,
    random_clustering,
)
from .hardgen import (
    fixtures,
    gen_kcenter_hard,
    gen_kmeanspp_hard,
    gen_single_linkage_hard,
)

__version__ = "0.1.0"

__all__ = [
    "Clustering",
    "DistanceOracle",
    "StabilityReport",
    "STABILITY_TOL",
    "audit",
    "brute_force",
    "is_t_stable",
    "LineInstance",
    "solve_1d",
    "solve_targets",
    "WeightedTree",
    "solve_tree2",
    "Hst",
    "cluster_via_embedding",
    "embed_hst",
    "hst_k_clustering",
    "normalize_leaves",
    "GAMMA_MIN",
    "check_alpha_gamma",
    "exact_enumerate",
    "linkage_conditioned",
    "linkage_size_guard",
    "pipeline",
    "cut_dendrogram",
    "greedy_prune",
    "kcenter_greedy",
    "kmeans_pp",
    "linkage",
    "lloyd",
    "random_clustering",
    "fixtures",
    "gen_kcenter_hard",
    "gen_kmeanspp_hard",
    "gen_single_linkage_hard",
    "__version__",
]
