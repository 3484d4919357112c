"""deepseries: a self-contained deep-learning engine for 1-D time series.

The package provides CNN/RNN layers with hand-written backward passes, a
graph executor that runs reverse mode over layer DAGs with save/load, a
registry of ready-made architectures, and training plus data pipelines for
forecasting, classification, and anomaly detection — all on plain numpy,
small enough to audit end to end.  Models return read-only float64
:class:`~deepseries.tensor.Tensor` values.
"""

from . import data, graph, layers, tensor, train, zoo
from .errors import (
    ContractError,
    DataError,
    DegenerateBatchError,
    DegenerateSegmentError,
    FormatError,
    GraphError,
    MetricUndefinedError,
    ParameterError,
    RegistryError,
    ShapeError,
    StateError,
    TrainingDivergedError,
)
from .graph import GraphBuilder, Model, NodeSpec, build
from .tensor import Tensor

__version__ = "0.1.0"
