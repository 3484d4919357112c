"""Exception types shared across the engine."""


class ShapeError(ValueError):
    """Operands or layer inputs have incompatible shapes."""


class GraphError(ValueError):
    """A model graph is malformed (a node before its inputs, unknown node, duplicate name)."""


class StateError(RuntimeError):
    """An operation was called out of order (e.g. backward before forward)."""


class RegistryError(LookupError):
    """An architecture name is not present in the registry."""


class ParameterError(ValueError):
    """A hyperparameter or argument value is out of its documented range."""


class FormatError(ValueError):
    """A serialized artifact (weights file, CSV, config) cannot be decoded."""


class DataError(ValueError):
    """A dataset is empty, too short, or otherwise unusable (the four below narrow it)."""


class DegenerateBatchError(DataError):
    """Batch statistics were requested on a batch of fewer than two samples."""


class DegenerateSegmentError(DataError):
    """Per-segment normalization hit a constant (zero variance) segment."""


class ContractError(DataError):
    """An input violates a documented numeric contract (e.g. rows not summing to 1)."""


class MetricUndefinedError(DataError):
    """A metric has no defined value on the given inputs (e.g. AUC with one class)."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss.

    Carries the 0-based epoch index at which divergence was detected.
    """

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch
