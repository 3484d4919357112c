"""The executor's node walk and loops, and a layer that runs a node list with them.

:class:`~deepseries.graph.Model` runs them over a whole model and
:class:`Subgraph` inside one layer, so composite blocks are plain node lists
with no backward pass of their own.  Nodes run in declaration order, and a
forward holds each value only until its last reader has run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..errors import GraphError, ShapeError
from .base import Layer

INPUT = "x"


@dataclass
class NodeSpec:
    name: str
    layer: Layer
    inputs: list[str] = field(default_factory=list)


def walk(specs: Sequence[NodeSpec], shapes: dict,
         rngs: Optional[Iterator[np.random.Generator]] = None) -> dict[str, NodeSpec]:
    """Check a node list in declaration order; return it as an ordered dict.

    ``shapes`` holds the graph inputs' per-sample shapes; each node's output
    shape is added as it is reached.  Every node needs a new name and
    ``layer.n_inputs`` inputs (two or more where that is ``None``), and reads
    graph inputs or earlier nodes, so a layer's ``out_shape`` sees the input
    count it takes.  With ``rngs``, each
    layer is bound from the next generator.
    """
    declared = {spec.name for spec in specs}
    nodes: dict[str, NodeSpec] = {}
    for spec in specs:
        if spec.name in shapes:
            raise GraphError(f"duplicate node name {spec.name!r}")
        if not spec.inputs:
            raise GraphError(f"node {spec.name!r} has no inputs")
        for ref in spec.inputs:
            if ref in shapes:
                continue
            if ref in declared:
                raise GraphError(
                    f"node {spec.name!r} reads {ref!r}, which is declared after it: "
                    f"nodes must follow their inputs, so a cycle cannot be declared")
            raise GraphError(f"node {spec.name!r} references unknown node {ref!r}")
        want, given = spec.layer.n_inputs, len(spec.inputs)
        if (given < 2) if want is None else (given != want):
            raise ShapeError(f"node {spec.name!r}: {spec.layer.kind} takes "
                             f"{want or 'two or more'} inputs, got {given}")
        ins = [shapes[r] for r in spec.inputs]
        try:
            shapes[spec.name] = (spec.layer.out_shape(ins) if rngs is None
                                 else spec.layer.bind(ins, next(rngs)))
        except ShapeError as exc:
            raise ShapeError(f"node {spec.name!r}: {exc}") from None
        nodes[spec.name] = spec
    return nodes


def forward_plan(nodes: dict[str, NodeSpec], keep: str) -> tuple[tuple, ...]:
    """One ``(name, layer, inputs, multi, dead)`` record per node, in order.

    ``multi`` says whether the layer takes its inputs as a list, and
    ``dead`` names the values to drop from ``values`` once the node has run:
    a value (a node output or a graph input) is dropped after its last
    reader, and a node output that nothing reads right after it is made;
    ``keep``, the output, never is.  Build the plan once with the node list.
    """
    last: dict[str, str] = {}
    for name, node in nodes.items():
        last[name] = name
        for ref in node.inputs:
            last[ref] = name
    dead: dict[str, tuple[str, ...]] = {name: () for name in nodes}
    for value, reader in last.items():
        if value != keep:
            dead[reader] += (value,)
    return tuple((name, node.layer, tuple(node.inputs), node.layer.n_inputs != 1, dead[name])
                 for name, node in nodes.items())


def forward_nodes(plan: tuple[tuple, ...], values: dict, train: bool,
                  caches: Optional[dict] = None):
    """Evaluate the nodes of ``plan`` (from :func:`forward_plan`) into ``values``,
    which holds the graph inputs.

    Values are dropped as the plan says, so on return ``values`` holds the
    kept output and no dead arrays.  With a ``caches`` dict, each node's
    backward cache is kept under its name; it holds whatever backward needs,
    so dropping is safe in training too.  A node's dict is created once and
    handed back on every later forward with the same ``caches``, so a layer
    can reuse the arrays its previous forward or backward left in it.
    """
    for name, layer, inputs, multi, dead in plan:
        cache = None
        if caches is not None:
            cache = caches.setdefault(name, {})
        values[name] = layer.forward([values[i] for i in inputs] if multi else values[inputs[0]],
                                     train, cache)
        for value in dead:
            del values[value]


def backward_nodes(nodes: dict[str, NodeSpec], caches: dict, upstream: dict,
                   key: Callable[[str, str], str]) -> dict[str, np.ndarray]:
    """Reverse mode over ``nodes``; returns parameter gradients named by ``key``.

    ``upstream`` maps the output node to its gradient; on return it holds the
    gradients that reached the graph inputs, summed over fan-out.  A node that
    feeds nothing on the path to the output gets zero parameter gradients.
    """
    grads: dict[str, np.ndarray] = {}
    for name, node in reversed(nodes.items()):
        up = upstream.pop(name, None)
        pgrads = {}
        if up is not None:
            in_grads, pgrads = node.layer.backward(up, caches[name])
            if node.layer.n_inputs == 1:
                in_grads = [in_grads]
            for src, g in zip(node.inputs, in_grads):
                upstream[src] = upstream[src] + g if src in upstream else g
        for pname, p in node.layer.params.items():
            g = pgrads.get(pname)
            grads[key(name, pname)] = np.zeros_like(p) if g is None else g
    return grads


def manifest(nodes: dict[str, NodeSpec], attr: str,
             key: Callable[[str, str], str]) -> dict[str, np.ndarray]:
    """Every node's ``params`` or ``buffers`` (``attr``) in order, named by ``key``."""
    return {key(n, k): v for n, spec in nodes.items()
            for k, v in getattr(spec.layer, attr).items()}


class Subgraph(Layer):
    """A single-input ``[time, channels]`` layer made of a node list.

    Nodes are declared in evaluation order and read the layer input ``"x"``
    or earlier nodes; the last node is the output.  Binding binds the inner
    layers in declaration order from the one generator it is given.  Inner
    parameters and buffers appear as aliases named ``<node>_<name>`` (plain
    ``<name>`` for a node named ``""``), renamed by ``RENAMES``: the dense
    pairs ``fc1``/``fc2`` of the squeeze-excite and tanh attention blocks keep
    the ``w1 b1 w2 b2`` names their weights files carry.  Subclasses whose
    nodes depend on the input shape override ``_nodes``.
    """

    kind = "subgraph"
    RENAMES = {"fc1_w": "w1", "fc1_b": "b1", "fc2_w": "w2", "fc2_b": "b2"}

    def __init__(self, nodes: Sequence[NodeSpec] = ()):
        super().__init__()
        self._specs = list(nodes)
        self.nodes: dict[str, NodeSpec] = {}
        self._plan: tuple[tuple, ...] = ()

    def _nodes(self, in_shape) -> list[NodeSpec]:
        return self._specs

    def _key(self, node: str, name: str) -> str:
        alias = f"{node}_{name}" if node else name
        return self.RENAMES.get(alias, alias)

    def _walk(self, in_shape, rngs=None) -> tuple[dict[str, NodeSpec], tuple[int, ...]]:
        """The checked node dict and the output shape."""
        shapes = {INPUT: tuple(in_shape)}
        nodes = walk(self._nodes(shapes[INPUT]), shapes, rngs)
        if not nodes:
            raise GraphError("a subgraph needs at least one node")
        return nodes, shapes[next(reversed(nodes))]

    def out_shape(self, in_shapes):
        return self._walk(self._series(in_shapes))[1]

    def _build(self, in_shapes, rng):
        self.nodes = self._walk(in_shapes[0], itertools.repeat(rng))[0]
        self._plan = forward_plan(self.nodes, next(reversed(self.nodes)))
        self.params = manifest(self.nodes, "params", self._key)
        self.buffers = manifest(self.nodes, "buffers", self._key)

    def forward(self, x, train=False, cache=None):
        values = {INPUT: x}
        forward_nodes(self._plan, values, train, cache)
        return values[next(reversed(self.nodes))]

    def backward(self, upstream, cache):
        up = {next(reversed(self.nodes)): upstream}
        grads = backward_nodes(self.nodes, cache, up, self._key)
        return up[INPUT], grads
