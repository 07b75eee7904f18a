"""Graph auto-encoder clustering with reliable-node graph rewiring.

Attributed-graph clustering models (gae, vgae, dgae) trained end to end
with a self-supervision loop that periodically samples a reliable node
set from assignment confidences and rewires the reconstruction target
around per-cluster centroid nodes, plus the gradient-alignment
diagnostics used to study why the rewiring helps.

The top level exports the README API and the error classes. Everything
else is imported from the module that defines it (`gaeclust.models`,
`gaeclust.operators`, ...) and carries no compatibility promise.
"""

# set before the submodules load: experiments records it in results.json
__version__ = "0.1.0"

from .errors import (ConfigError, DataError, FormatError, GaeClustError,
                     NumericsError, OperatorError, RangeError, ShapeError,
                     StateError, TrainingError)
from .experiments import ExperimentConfig, run, verify_theory
from .graphio import load_dataset, make_graph, save_dataset
from .models import TrainConfig, init_model, pretrain
from .training import train_joint

__all__ = [
    "ExperimentConfig", "TrainConfig", "init_model", "load_dataset", "make_graph",
    "pretrain", "run", "save_dataset", "train_joint", "verify_theory",
    "GaeClustError", "ConfigError", "DataError", "FormatError",
    "NumericsError", "OperatorError", "RangeError", "ShapeError",
    "StateError", "TrainingError",
    "__version__",
]
