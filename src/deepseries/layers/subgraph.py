"""The executor's node loops, and a layer that runs a node list with them.

:class:`~deepseries.graph.Model` runs the loops over a whole model and
:class:`Subgraph` inside one layer, so composite blocks are plain node lists
with no backward pass of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import GraphError
from .base import Layer

INPUT = "x"


@dataclass
class NodeSpec:
    name: str
    layer: Layer
    inputs: list[str] = field(default_factory=list)


def forward_nodes(order: Sequence[str], nodes: dict[str, NodeSpec], values: dict,
                  train: bool, caches: Optional[dict] = None):
    """Evaluate ``order`` into ``values``, which holds the graph inputs.

    With a ``caches`` dict, each node's backward cache is kept under its name.
    """
    for name in order:
        node = nodes[name]
        xs = [values[i] for i in node.inputs]
        cache = None
        if caches is not None:
            cache = caches[name] = {}
        values[name] = node.layer.forward(xs if node.layer.n_inputs > 1 else xs[0],
                                          train, cache)


def backward_nodes(order: Sequence[str], nodes: dict[str, NodeSpec], caches: dict,
                   upstream: dict, key: Callable[[str, str], str]) -> dict[str, np.ndarray]:
    """Reverse mode over ``order``; returns parameter gradients named by ``key``.

    ``upstream`` maps the output node to its gradient; on return it holds the
    gradients that reached the graph inputs, summed over fan-out.  A node that
    feeds nothing on the path to the output gets zero parameter gradients.
    """
    grads: dict[str, np.ndarray] = {}
    for name in reversed(order):
        node = nodes[name]
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


def manifest(order: Sequence[str], nodes: dict[str, NodeSpec], attr: str,
             key: Callable[[str, str], str]) -> dict[str, np.ndarray]:
    """Every node's ``params`` or ``buffers`` (``attr``) in order, named by ``key``."""
    return {key(n, k): v for n in order for k, v in getattr(nodes[n].layer, attr).items()}


def _alias(node: str, name: str) -> str:
    return f"{node}_{name}" if node else name


class Subgraph(Layer):
    """A single-input ``[time, channels]`` layer made of a node list.

    Nodes are declared in evaluation order and read the layer input ``"x"``
    or earlier nodes; the last node is the output.  Binding binds the inner
    layers in declaration order from the one generator it is given.  Inner
    parameters and buffers appear as aliases named ``<node>_<name>`` (plain
    ``<name>`` for a node named ``""``).  Subclasses whose nodes depend on
    the input shape override ``_nodes``.
    """

    kind = "subgraph"

    def __init__(self, nodes: Sequence[NodeSpec] = ()):
        super().__init__()
        self._specs = list(nodes)
        self.nodes: dict[str, NodeSpec] = {}
        self.order: list[str] = []
        self._walked = None  # (in_shape, _walk result) of the last successful walk

    def _nodes(self, in_shape) -> list[NodeSpec]:
        return self._specs

    def _walk(self, in_shape):
        """The node list with each node's input shapes, and the output shape.

        Building asks for it three times (``out_shape`` from the graph and
        from ``bind``, then ``_build``), so the last result is kept.
        """
        in_shape = tuple(in_shape)
        if self._walked is not None and self._walked[0] == in_shape:
            return self._walked[1]
        shapes = {INPUT: in_shape}
        steps = []
        for spec in self._nodes(shapes[INPUT]):
            if spec.name in shapes or not spec.inputs or not set(spec.inputs) <= shapes.keys():
                raise GraphError(f"node {spec.name!r} must be new and read 'x' or "
                                 f"earlier nodes, got {spec.inputs}")
            ins = [shapes[r] for r in spec.inputs]
            shapes[spec.name] = spec.layer.out_shape(ins)
            steps.append((spec, ins))
        if not steps:
            raise GraphError("a subgraph needs at least one node")
        self._walked = (in_shape, (steps, shapes[spec.name]))
        return self._walked[1]

    def out_shape(self, in_shapes):
        return self._walk(self._series(in_shapes))[1]

    def _build(self, in_shapes, rng):
        for spec, ins in self._walk(in_shapes[0])[0]:
            spec.layer.bind(ins, rng)
            self.nodes[spec.name] = spec
        self.order = list(self.nodes)
        self.params = manifest(self.order, self.nodes, "params", _alias)
        self.buffers = manifest(self.order, self.nodes, "buffers", _alias)

    def forward(self, x, train=False, cache=None):
        values = {INPUT: x}
        forward_nodes(self.order, self.nodes, values, train, cache)
        return values[self.order[-1]]

    def backward(self, upstream, cache):
        up = {self.order[-1]: upstream}
        grads = backward_nodes(self.order, self.nodes, cache, up, _alias)
        return up[INPUT], grads
