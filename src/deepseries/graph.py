"""Model graphs: build, static shape inference, forward/backward, weights I/O.

A model is a DAG of named layer nodes over one or more named inputs.  Nodes
are declared in evaluation order, each after the nodes it reads, and may fan
out; gradients from multiple consumers are summed.  Parameters are addressed
as ``node/param`` and keep a stable order (declaration order, then the
layer's own parameter order), which the weights file relies on.
"""

from __future__ import annotations

import io
import itertools
from typing import Optional, Sequence, Union

import numpy as np

from .container import read_records, write_records
from .errors import FormatError, GraphError, ShapeError, StateError
from .layers.base import Layer
from .layers.subgraph import NodeSpec, backward_nodes, forward_nodes, forward_plan, manifest, walk
from .tensor import Tensor, as_array

WEIGHTS_MAGIC = b"TSDLW1\x00"


class Model:
    """An executable layer DAG.  Construct through :func:`build`."""

    def __init__(self, input_shapes, nodes, shapes, output):
        self.input_names: list[str] = list(input_shapes)
        self.input_shapes: dict[str, tuple[int, ...]] = input_shapes
        self.nodes: dict[str, NodeSpec] = nodes  # in evaluation order
        self.node_shapes: dict[str, tuple[int, ...]] = shapes
        self.output: str = output
        self._plan = forward_plan(nodes, output)
        # Per node name, the cache dict of the latest training forward, kept
        # for the next one to reuse its arrays: the training workspace.
        self._workspace: dict[str, dict] = {}
        self._pending: Optional[int] = None  # the batch size backward awaits
        self.last_input_grads: Optional[dict[str, np.ndarray]] = None

    # -- introspection -------------------------------------------------------

    @property
    def order(self) -> list[str]:
        """Node names in evaluation (declaration) order."""
        return list(self.nodes)

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.node_shapes[self.output]

    def parameters(self) -> dict[str, np.ndarray]:
        return manifest(self.nodes, "params", "{}/{}".format)

    def buffers(self) -> dict[str, np.ndarray]:
        return manifest(self.nodes, "buffers", "{}/{}".format)

    def state(self) -> dict[str, np.ndarray]:
        """Parameters followed by buffers, in stable order."""
        out = self.parameters()
        out.update(self.buffers())
        return out

    def param_count(self) -> int:
        return int(sum(p.size for p in self.parameters().values()))

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for spec in self.nodes.values():
            kind = spec.layer.kind
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    # -- execution -----------------------------------------------------------

    def _coerce_inputs(self, x) -> dict[str, np.ndarray]:
        # A list or tuple holds one element per input; for a one-input model,
        # a non-empty one with no array in it is the batch itself.
        if isinstance(x, (list, tuple)) and (
            len(self.input_names) > 1 or not x
            or any(isinstance(v, (np.ndarray, Tensor)) for v in x)
        ):
            if len(x) != len(self.input_names):
                raise ShapeError(f"model has {len(self.input_names)} inputs, got {len(x)}")
            x = dict(zip(self.input_names, x))
        arrays = ({k: as_array(v) for k, v in x.items()} if isinstance(x, dict)
                  else {self.input_names[0]: as_array(x)})
        if arrays.keys() != self.input_shapes.keys():
            raise ShapeError(
                f"model needs inputs {self.input_names}, got {sorted(arrays)}"
            )
        for name, a in arrays.items():
            want = self.input_shapes[name]
            if a.ndim != len(want) + 1 or tuple(a.shape[1:]) != want:
                raise ShapeError(
                    f"input {name!r} must be [batch, {', '.join(map(str, want))}], "
                    f"got {a.shape}"
                )
        return arrays

    def forward(self, x, train: bool = False) -> Tensor:
        """Evaluate the graph.

        A training forward keeps what ``backward`` needs in the model's
        training workspace, one cache dict per node, which the next training
        forward hands back to the same node so that layers reuse its arrays.
        It replaces any forward still pending, and clears the pending one
        before its first node runs, so a forward that fails part-way leaves
        nothing for ``backward``.  Inference uses no workspace.
        """
        values = self._coerce_inputs(x)
        if train:
            self._pending = None
        forward_nodes(self._plan, values, train, self._workspace if train else None)
        out = values[self.output]
        if train:
            self._pending = out.shape[0]
        return Tensor(out)

    def backward(self, loss_grad) -> dict[str, np.ndarray]:
        """Back-propagate from the output; returns gradients per parameter name.

        Differentiates the most recent training-mode ``forward``, and
        ``loss_grad`` must have that forward's output shape; a second
        ``backward`` needs another forward.  Gradients with respect to the
        graph inputs are kept on ``last_input_grads``.  No array returned
        here or kept there is one a later forward or backward overwrites.
        """
        if self._pending is None:
            raise StateError("backward requires a prior training-mode forward")
        grad = as_array(loss_grad)
        want = (self._pending, *self.output_shape)
        if grad.shape != want:
            raise ShapeError(f"loss gradient must have the output shape {want}, "
                             f"got {grad.shape}")
        batch, self._pending = self._pending, None
        upstream: dict[str, np.ndarray] = {self.output: grad}
        grads = backward_nodes(self.nodes, self._workspace, upstream, "{}/{}".format)
        self.last_input_grads = {
            name: upstream.get(name, np.zeros((batch, *self.input_shapes[name])))
            for name in self.input_names
        }
        return grads

    def _release(self):
        """Drop the pending backward and the training workspace with its arrays."""
        self._pending = None
        self._workspace = {}

    # -- weights I/O -----------------------------------------------------------

    def save_weights(self, sink: Union[str, io.IOBase]):
        """Write all parameters and buffers as float32 with a trailing CRC32.

        The live values are rounded to the stored float32 grid, so the model
        in memory and the file agree exactly after a save.
        """
        state = self.state()
        for arr in state.values():
            arr[...] = arr.astype(np.float32)
        write_records(WEIGHTS_MAGIC, state, sink)

    def load_weights(self, source: Union[str, io.IOBase]):
        """Read a weights file and copy values into this model in place.

        The file's entry list must match this model's parameter/buffer
        manifest exactly (names, order, shapes), and every value must be
        finite.  Every check runs before any value is copied, so a file that
        fails one leaves the model unchanged.
        """
        entries = read_records(WEIGHTS_MAGIC, source)
        want = self.state()
        for i, (name, expected) in enumerate(itertools.zip_longest(entries, want)):
            if name is None:
                raise FormatError(f"weights file is missing parameter {expected!r}")
            if expected is None:
                raise FormatError(f"weights file has extra parameter {name!r}")
            if name != expected:
                raise FormatError(
                    f"manifest mismatch at entry {i}: file has {name!r}, "
                    f"model expects {expected!r}"
                )
            if entries[name].shape != want[name].shape:
                raise FormatError(
                    f"shape mismatch for {name!r}: file has "
                    f"{entries[name].shape}, model expects {want[name].shape}"
                )
            if not np.isfinite(entries[name]).all():
                raise FormatError(f"entry {name!r} holds a non-finite value")
        for name, arr in entries.items():
            want[name][...] = arr.astype(np.float64)


def build(
    inputs: dict[str, Sequence[int]],
    nodes: Sequence[NodeSpec],
    output: Optional[str] = None,
    seed: int = 0,
) -> Model:
    """Validate a node list, infer shapes, initialise weights, return a Model.

    ``inputs`` maps entry names to per-sample shapes.  Nodes are evaluated in
    declaration order, so each must follow the nodes it reads: a reference to
    a later node (the only way to declare a cycle) or to an undeclared name
    raises GraphError.  Node ``i`` initialises from the ``i``-th child of
    ``SeedSequence(seed)``.  The output defaults to the last node.
    """
    if not inputs:
        raise GraphError("a model needs at least one input")
    input_shapes = {k: tuple(int(e) for e in v) for k, v in inputs.items()}
    shapes = dict(input_shapes)
    rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(len(nodes)))
    node_map = walk(nodes, shapes, rngs)
    if output is None:
        output = list(node_map)[-1] if node_map else list(input_shapes)[0]
    if output not in shapes:
        raise GraphError(f"output {output!r} is not a declared node or input")
    return Model(input_shapes, node_map, shapes, output)


class GraphBuilder:
    """Incremental front end for :func:`build`."""

    def __init__(self):
        self._inputs: dict[str, tuple[int, ...]] = {}
        self._nodes: list[NodeSpec] = []

    def input(self, name: str, shape: Sequence[int]) -> str:
        self._inputs[name] = tuple(int(s) for s in shape)
        return name

    def add(self, name: str, layer: Layer, inputs: Union[str, Sequence[str]]) -> str:
        refs = [inputs] if isinstance(inputs, str) else list(inputs)
        self._nodes.append(NodeSpec(name, layer, refs))
        return name

    def build(self, output: Optional[str] = None, seed: int = 0) -> Model:
        return build(self._inputs, self._nodes, output, seed)
