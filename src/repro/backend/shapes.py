"""Static shape inference over deployment graphs.

Vendor compilers infer every intermediate shape at import time — both to
plan memory and to reject graphs whose conventions disagree (the ceil-mode
shape mismatch is caught here in real toolchains).  ``infer_shapes`` walks a
validated graph symbolically: the batch dimension is symbolic (``None``),
all other extents are concrete integers.

Uses: ``summary_with_shapes`` for human-readable dumps, early detection of
exporter bugs (every executor-run shape must match the static inference —
tested across the zoo), and the FLOPs/memory model in
:mod:`repro.backend.profile`.
"""

from __future__ import annotations

import math

import numpy as np

from .ir import Graph, GraphError, Node

__all__ = ["infer_shapes", "summary_with_shapes", "ShapeError"]

#: A shape: leading batch dim is None (symbolic), the rest concrete.
Shape = tuple


class ShapeError(GraphError):
    """Raised when a node's operands cannot produce a consistent shape."""


def _pool_out(size: int, k: int, stride: int, pad: int, ceil_mode: bool) -> int:
    if ceil_mode:
        out = math.ceil((size + 2 * pad - k) / stride) + 1
        if (out - 1) * stride >= size + pad:
            out -= 1
        return out
    return (size + 2 * pad - k) // stride + 1


def _conv_out(size: int, k: int, stride: int, pad: int, dilation: int) -> int:
    eff = dilation * (k - 1) + 1
    return (size + 2 * pad - eff) // stride + 1


def _broadcast(a: Shape, b: Shape, node: Node) -> Shape:
    """NumPy broadcasting over symbolic-batch shapes."""
    out = []
    for da, db in zip(_pad(a, len(b)), _pad(b, len(a))):
        if da is None and db in (1, None) or db is None and da in (1, None):
            out.append(None)               # symbolic batch stays symbolic
        elif da == db or db == 1:
            out.append(da)
        elif da == 1:
            out.append(db)
        else:
            raise ShapeError(f"{node.op} node {node.name or node.output!r}: "
                             f"cannot broadcast {a} with {b}")
    return tuple(out)


def _pad(shape: Shape, n: int) -> Shape:
    return (1,) * (n - len(shape)) + tuple(shape)


def _reshape(shape: Shape, target: tuple, node: Node) -> Shape:
    out = []
    known = 1
    minus_one = None
    for i, s in enumerate(target):
        if s == 0:
            if i >= len(shape):
                raise ShapeError(f"reshape {node.name!r}: dim {i} copies a "
                                 f"nonexistent input dim of {shape}")
            out.append(shape[i])
        elif s == -1:
            if minus_one is not None:
                raise ShapeError(f"reshape {node.name!r}: two -1 dims")
            minus_one = i
            out.append(-1)
        else:
            out.append(int(s))
    concrete = [d for d in shape if d is not None]
    symbolic_in = any(d is None for d in shape)
    for d in out:
        if d not in (-1, None) and d is not None:
            known *= d if d else 1
    if minus_one is not None:
        # If the batch is symbolic and consumed by a copied dim, the -1 can
        # only be resolved from the concrete extents.
        total = int(np.prod(concrete)) if concrete else 1
        denom = 1
        for i, d in enumerate(out):
            if i != minus_one and d is not None:
                denom *= d
        if symbolic_in and None in out:
            # batch preserved via 0/None: -1 resolves among concrete dims
            out[minus_one] = total // max(denom, 1)
        elif symbolic_in:
            # batch folded into the -1 (e.g. window partitioning): symbolic
            out[minus_one] = None
        else:
            out[minus_one] = total // max(denom, 1)
    return tuple(out)


def infer_shapes(graph: Graph,
                 input_shape: Shape = (None, 3, 32, 32)) -> dict[str, Shape]:
    """Shape of every value in the graph, keyed by value name.

    ``input_shape`` uses ``None`` for the symbolic batch dimension.  Weight
    initializers contribute their concrete shapes.  Raises
    :class:`ShapeError` on any inconsistency.
    """
    graph.validate()
    shapes: dict[str, Shape] = {graph.input: tuple(input_shape)}
    shapes.update({k: tuple(v.shape) for k, v in graph.initializers.items()})
    for node in graph.nodes:
        shapes[node.output] = _infer_node(node, [shapes[v] for v in node.inputs])
    return shapes


def _infer_node(node: Node, ins: list[Shape]) -> Shape:
    op, a = node.op, node.attrs
    x = ins[0] if ins else ()
    if op == "conv2d":
        n, _, h, w = x
        cout = ins[1][0]
        oh = _conv_out(h, ins[1][2], a["stride"], a["padding"], a["dilation"])
        ow = _conv_out(w, ins[1][3], a["stride"], a["padding"], a["dilation"])
        return (n, cout, oh, ow)
    if op == "linear":
        return tuple(x[:-1]) + (ins[1][0],)
    if op in ("batchnorm", "layernorm", "relu", "gelu", "sigmoid",
              "identity", "clip", "quantize_linear", "dequantize_linear",
              "softmax", "scale", "fused_elementwise"):
        return x
    if op in ("add", "mul"):
        return _broadcast(ins[0], ins[1], node)
    if op in ("maxpool", "avgpool"):
        n, c, h, w = x
        oh = _pool_out(h, a["kernel_size"], a["stride"], a["padding"],
                       a["ceil_mode"])
        ow = _pool_out(w, a["kernel_size"], a["stride"], a["padding"],
                       a["ceil_mode"])
        return (n, c, oh, ow)
    if op == "global_avgpool":
        return (x[0], x[1])
    if op == "upsample":
        n, c, h, w = x
        f = a["scale_factor"]
        return (n, c, int(round(h * f)), int(round(w * f)))
    if op == "flatten":
        rest = [d for d in x[1:]]
        if any(d is None for d in rest):
            return (x[0], None)
        return (x[0], int(np.prod(rest)) if rest else 1)
    if op == "reshape":
        return _reshape(x, a["shape"], node)
    if op == "transpose":
        perm = a["perm"]
        if len(perm) != len(x):
            raise ShapeError(f"transpose {node.name!r}: perm {perm} vs "
                             f"rank-{len(x)} input")
        return tuple(x[p] for p in perm)
    if op == "concat":
        axis = a["axis"] % len(x)
        total = 0
        for s in ins:
            if len(s) != len(x):
                raise ShapeError(f"concat {node.name!r}: rank mismatch")
            if s[axis] is None:
                total = None
                break
            total += s[axis]
        return tuple(total if i == axis else d for i, d in enumerate(x))
    if op == "slice":
        axis = a["axis"] % len(x)
        extent = a["stop"] - a["start"]
        return tuple(extent if i == axis else d for i, d in enumerate(x))
    if op == "mean":
        axis = a["axis"] % len(x)
        return tuple(d for i, d in enumerate(x) if i != axis)
    if op == "expand_like":
        return (ins[0][0],) + tuple(ins[1][1:])
    if op == "constant":
        return tuple(np.asarray(a["value"]).shape)
    if op == "matmul":
        b = ins[1]
        bk, bn = (b[-1], b[-2]) if a["transpose_b"] else (b[-2], b[-1])
        if x[-1] is not None and bk is not None and x[-1] != bk:
            raise ShapeError(f"matmul {node.name!r}: contraction mismatch "
                             f"{x} @ {b}")
        lead = _broadcast(x[:-2], b[:-2], node) if len(b) > 2 else x[:-2]
        return tuple(lead) + (x[-2], bn)
    raise ShapeError(f"no shape rule for op {op!r}")


def summary_with_shapes(graph: Graph,
                        input_shape: Shape = (None, 3, 32, 32)) -> str:
    """Graph dump with one inferred shape per line."""
    shapes = infer_shapes(graph, input_shape)

    def fmt(shape: Shape) -> str:
        return "(" + ", ".join("N" if d is None else str(d)
                               for d in shape) + ")"

    lines = [f"graph {graph.name}: {fmt(tuple(input_shape))} -> "
             f"{fmt(shapes[graph.output])}"]
    for node in graph.nodes:
        lines.append(f"  {node.output:24s} {node.op:16s} "
                     f"{fmt(shapes[node.output]):20s} # {node.name}")
    return "\n".join(lines)
