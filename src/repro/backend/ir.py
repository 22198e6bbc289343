"""Graph intermediate representation for the deployment backends.

A :class:`Graph` is the deployment artefact: a topologically ordered list of
:class:`Node` ops, a table of weight ``initializers``, and named graph inputs
and outputs.  It plays the role ONNX plays between PyTorch and TensorRT/SNPE
in the paper's pipeline — a trained ``repro.nn`` model is exported once (see
:mod:`repro.backend.export`) and then executed by *different* backends
(:mod:`repro.backend.executor`), whose implementation differences are exactly
the model-inference SysNoise the paper studies.

The IR is deliberately minimal: single-assignment value names, attribute
dicts, no control flow.  ``Graph.validate()`` enforces the structural
invariants every pass and executor relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Node", "Graph", "GraphBuilder", "OP_SCHEMA", "GraphError"]


class GraphError(ValueError):
    """Raised for malformed graphs (dangling values, cycles, bad attrs)."""


#: op type -> (required attribute names, number of data inputs)
#: Weight operands (conv filters, BN statistics…) live in ``initializers``
#: and are referenced through the node's ``inputs`` after the data operands.
OP_SCHEMA: dict[str, tuple[tuple[str, ...], int]] = {
    "conv2d": (("stride", "padding", "dilation", "groups"), 1),
    "linear": ((), 1),
    "batchnorm": (("eps",), 1),
    "relu": ((), 1),
    "gelu": ((), 1),
    "sigmoid": ((), 1),
    "add": ((), 2),
    "mul": ((), 2),
    "maxpool": (("kernel_size", "stride", "padding", "ceil_mode"), 1),
    "avgpool": (("kernel_size", "stride", "padding", "ceil_mode"), 1),
    "global_avgpool": ((), 1),
    "upsample": (("mode", "scale_factor"), 1),
    "flatten": ((), 1),
    "reshape": (("shape",), 1),
    "softmax": (("axis",), 1),
    "identity": ((), 1),
    "constant": (("value",), 0),
    "clip": (("lo", "hi"), 1),
    "quantize_linear": (("scale", "zero_point"), 1),
    "dequantize_linear": (("scale", "zero_point"), 1),
    # Transformer support (ViT/Swin export):
    "layernorm": (("eps",), 1),
    "matmul": (("transpose_b",), 2),
    "transpose": (("perm",), 1),
    "concat": (("axis",), -1),            # variable arity: all inputs are data
    "slice": (("axis", "start", "stop"), 1),
    "mean": (("axis",), 1),
    "expand_like": ((), 2),               # broadcast operand 1 to operand 0's batch
    "scale": (("factor",), 1),            # multiply by a compile-time scalar
    # Produced by the fusion passes (never by the exporter): a chain of
    # shape-preserving unary ops executed back to back.  ``chain`` holds the
    # fused :class:`Node`s in application order; executors run them through
    # their own per-op kernels, so fused and unfused graphs are bit-equal.
    "fused_elementwise": (("chain",), 1),
}


@dataclass(frozen=True)
class Node:
    """One operation: ``output = op(*inputs, **attrs)``.

    ``inputs`` name either earlier node outputs, graph inputs, or entries in
    ``Graph.initializers`` (weights).  ``name`` is a human-readable label used
    in diff reports (usually the source module path, e.g. ``stages.0.conv1``).
    """

    op: str
    inputs: tuple[str, ...]
    output: str
    attrs: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.op not in OP_SCHEMA:
            raise GraphError(f"unknown op {self.op!r}; known: {sorted(OP_SCHEMA)}")
        required, _ = OP_SCHEMA[self.op]
        missing = [a for a in required if a not in self.attrs]
        if missing:
            raise GraphError(f"{self.op} node {self.name or self.output!r} "
                             f"missing attrs {missing}")

    def with_attrs(self, **changes) -> "Node":
        """Copy with updated attributes (nodes are immutable)."""
        return Node(self.op, self.inputs, self.output,
                    {**self.attrs, **changes}, self.name)


@dataclass
class Graph:
    """A deployment graph: SSA value names, topo-ordered nodes, weights."""

    name: str
    input: str
    output: str
    nodes: list[Node] = field(default_factory=list)
    initializers: dict[str, np.ndarray] = field(default_factory=dict)

    # -- structure queries ----------------------------------------------------
    def producer_of(self, value: str) -> Node | None:
        """The node that defines ``value`` (None for inputs/initializers)."""
        for node in self.nodes:
            if node.output == value:
                return node
        return None

    def users_of(self, value: str) -> list[Node]:
        """All nodes that consume ``value``."""
        return [n for n in self.nodes if value in n.inputs]

    def node_named(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r}")

    def data_inputs(self, node: Node) -> tuple[str, ...]:
        """The node's activation inputs (weight operands stripped)."""
        _, n_data = OP_SCHEMA[node.op]
        return node.inputs if n_data < 0 else node.inputs[:n_data]

    def weight_inputs(self, node: Node) -> tuple[str, ...]:
        _, n_data = OP_SCHEMA[node.op]
        return () if n_data < 0 else node.inputs[n_data:]

    # -- validation -------------------------------------------------------------
    def validate(self) -> None:
        """Check SSA form, topological order, and operand resolution.

        Raises :class:`GraphError` on the first violation.  Executors and
        passes assume a validated graph.
        """
        defined = {self.input} | set(self.initializers)
        seen_outputs: set[str] = set()
        for node in self.nodes:
            for operand in node.inputs:
                if operand not in defined:
                    raise GraphError(
                        f"node {node.name or node.output!r} reads undefined "
                        f"value {operand!r} (graph not topologically ordered?)")
            if node.output in seen_outputs or node.output in self.initializers:
                raise GraphError(f"value {node.output!r} defined twice")
            if node.output == self.input:
                raise GraphError(f"node output shadows graph input {self.input!r}")
            seen_outputs.add(node.output)
            defined.add(node.output)
            required_weights = _expected_weight_count(node)
            if required_weights is not None and \
                    len(self.weight_inputs(node)) != required_weights:
                raise GraphError(
                    f"{node.op} node {node.name or node.output!r} expects "
                    f"{required_weights} weight operand(s), got "
                    f"{len(self.weight_inputs(node))}")
        if self.output not in defined:
            raise GraphError(f"graph output {self.output!r} is never defined")

    # -- reporting -----------------------------------------------------------
    def num_parameters(self) -> int:
        return sum(int(w.size) for w in self.initializers.values())

    def op_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for node in self.nodes:
            hist[node.op] = hist.get(node.op, 0) + 1
        return dict(sorted(hist.items()))

    def summary(self) -> str:
        """Human-readable dump, one line per node."""
        lines = [f"graph {self.name}: input={self.input} output={self.output} "
                 f"({len(self.nodes)} nodes, {self.num_parameters()} params)"]
        for node in self.nodes:
            attrs = ", ".join(f"{k}={v}" for k, v in node.attrs.items()
                              if k != "value")
            label = f"  {node.output:24s} = {node.op}({', '.join(node.inputs)})"
            if attrs:
                label += f"  [{attrs}]"
            if node.name:
                label += f"  # {node.name}"
            lines.append(label)
        return "\n".join(lines)


def _expected_weight_count(node: Node) -> int | None:
    """Weight-operand arity per op (None = variable, checked by executor)."""
    if node.op in ("conv2d", "linear"):
        return None                     # bias optional
    if node.op == "batchnorm":
        return 4                        # gamma, beta, mean, var
    if node.op == "layernorm":
        return 2                        # gamma, beta
    if node.op in ("concat", "expand_like", "matmul", "fused_elementwise"):
        return 0                        # all-data ops (weights arrive as values)
    return 0


class GraphBuilder:
    """Incremental graph construction with unique value naming.

    Used by the exporter; also convenient for hand-building small graphs in
    tests.  Values are named ``{prefix}_{counter}`` unless given explicitly.
    """

    def __init__(self, name: str, input_name: str = "x"):
        self.graph = Graph(name=name, input=input_name, output=input_name)
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def add_initializer(self, name: str, value: np.ndarray) -> str:
        if name in self.graph.initializers:
            raise GraphError(f"initializer {name!r} already present")
        self.graph.initializers[name] = np.asarray(value)
        return name

    def emit(self, op: str, inputs: list[str], *, attrs: dict | None = None,
             name: str = "", output: str | None = None) -> str:
        """Append a node and return its output value name."""
        out = output or self.fresh(op)
        self.graph.nodes.append(Node(op, tuple(inputs), out, attrs or {}, name))
        return out

    def finish(self, output: str) -> Graph:
        """Seal the graph: set the output and validate."""
        self.graph.output = output
        self.graph.validate()
        return self.graph
