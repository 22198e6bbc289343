"""Graph-level INT8 post-training quantisation (the TensorRT-style path).

The runtime-level quantiser in :mod:`repro.nn.quant` wraps module forwards;
this pass does what a deployment compiler does instead: it rewrites the
*graph* — weights are replaced by their INT8 grid values, and each conv/
linear output gains an explicit ``quantize_linear → dequantize_linear``
pair whose scale comes from calibration-run activation ranges.  The QDQ
nodes make the quantisation visible to every downstream tool (shape
inference, profiling, per-layer diffing) rather than hiding it inside
executor kernels.
"""

from __future__ import annotations

import numpy as np

from repro.nn.quant import compute_qparams, fake_quant

from .executor import ReferenceExecutor
from .ir import Graph, Node

__all__ = ["quantize_graph", "calibrate_ranges"]

_TARGETS = ("conv2d", "linear", "matmul")


def calibrate_ranges(graph: Graph, x_calib: np.ndarray) -> dict[str, tuple]:
    """Observed (min, max) of every node output on the calibration batch."""
    ex = ReferenceExecutor(keep_intermediates=True)
    ex.run(graph, x_calib)
    ranges = {}
    for node in graph.nodes:
        out = ex.intermediates[node.name or node.output]
        ranges[node.output] = (float(out.min()), float(out.max()))
    return ranges


def quantize_graph(graph: Graph, x_calib: np.ndarray) -> Graph:
    """Return an INT8 deployment copy of ``graph``.

    * conv/linear weight initializers are snapped to their symmetric
      per-output-channel INT8 grid, stored as ``<weight>.int8`` in place of
      the float weight (matmul operands stay activations);
    * each target node's output is routed through an asymmetric per-tensor
      ``quantize_linear``/``dequantize_linear`` pair calibrated on
      ``x_calib`` — the fake-quant error INT8 inference sees.

    The result is a valid graph executable by any backend; comparing it to
    the FP32 graph with :func:`repro.backend.compare.backend_diff`
    attributes the INT8 noise per layer.
    """
    ranges = calibrate_ranges(graph, x_calib)
    inits = dict(graph.initializers)
    replaced: set[str] = set()
    nodes: list[Node] = []
    for node in graph.nodes:
        if node.op not in _TARGETS:
            nodes.append(node)
            continue
        inputs = list(node.inputs)
        if node.op in ("conv2d", "linear") and len(inputs) >= 2:
            w_name = inputs[1]
            w = inits[w_name]
            axes = tuple(range(1, w.ndim))
            qp = compute_qparams(w.min(axis=axes), w.max(axis=axes),
                                 symmetric=True)
            shape = (-1,) + (1,) * (w.ndim - 1)
            from repro.nn.quant import QuantParams
            wq = fake_quant(w, QuantParams(np.asarray(qp.scale).reshape(shape),
                                           0))
            q_name = w_name + ".int8"
            inits[q_name] = wq
            inputs[1] = q_name
            replaced.add(w_name)
        lo, hi = ranges[node.output]
        qp_act = compute_qparams(lo, hi)
        raw = node.output + ".raw"
        q = node.output + ".q"
        nodes.append(Node(node.op, tuple(inputs), raw, node.attrs, node.name))
        nodes.append(Node("quantize_linear", (raw,), q,
                          dict(scale=float(np.asarray(qp_act.scale)),
                               zero_point=int(np.asarray(qp_act.zero_point))),
                          name=(node.name or node.output) + ".quant"))
        nodes.append(Node("dequantize_linear", (q,), node.output,
                          dict(scale=float(np.asarray(qp_act.scale)),
                               zero_point=int(np.asarray(qp_act.zero_point))),
                          name=(node.name or node.output) + ".dequant"))
    # A float weight whose every reader now reads its INT8 copy is dead.
    read = {name for node in nodes for name in node.inputs}
    for name in replaced - read:
        del inits[name]
    out = Graph(name=graph.name + ".int8", input=graph.input,
                output=graph.output, nodes=nodes, initializers=inits)
    out.validate()
    return out
