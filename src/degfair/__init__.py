"""Degree-fair graph neural networks on numpy/scipy.

Library layout:

- :mod:`degfair.graphs` - graph container, loaders, degree statistics,
  node partitions, and the synthetic long-tailed generator.
- :mod:`degfair.autodiff` - dense fp64 tensors with a reverse-mode tape,
  a finite-difference gradient checker, and dropout.
- :mod:`degfair.optim` - Adam with bias correction.
- :mod:`degfair.layers` - degree encoding, context embeddings, debiasing
  contexts, and modulated GCN/GraphSAGE/GAT aggregation.
- :mod:`degfair.objective` - the four-term training objective plus weight
  regularization.
- :mod:`degfair.training` - end-to-end training loop, presets, prediction,
  and model serialization.
- :mod:`degfair.metrics` - accuracy and degree-group fairness metrics with
  multi-run aggregation.
- :mod:`degfair.cli` - batch commands (train / eval / audit / synth /
  degree-stats).
"""

from degfair.graphs import (
    Graph,
    GroupAssignment,
    NodeSplit,
    build_graph,
    generalized_degree,
    load_graph,
    mean_degree,
    partition_contrast,
    partition_top_bottom,
    split_nodes,
    synth_generate,
)
from degfair.metrics import (
    FairnessReport,
    RunAggregate,
    accuracy,
    aggregate_runs,
    build_report,
    delta_deo,
    delta_dsp,
)
from degfair.training import (
    PRESETS,
    TrainConfig,
    TrainHistory,
    load_model,
    predict,
    save_model,
    train,
)

__version__ = "0.1.0"
