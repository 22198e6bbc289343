"""Op-level cost model and runtime profiler for deployment graphs.

Vendor toolchains report a per-layer profile (FLOPs, weights, activation
memory, measured time) after import; this module reproduces that report so
SysNoise investigations can weigh a noise source against how much compute
sits behind it (e.g. the ceil-mode pool is microscopic compute-wise yet
causes the largest ΔACC — the paper's core asymmetry).

FLOPs follow the usual multiply-add = 2 FLOPs convention.  Activation sizes
use a batch size of 1 (the symbolic dimension resolved to one sample).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .executor import Executor, ReferenceExecutor
from .ir import Graph, Node
from .shapes import infer_shapes

__all__ = ["OpProfile", "GraphProfile", "profile_graph", "render_profile"]


@dataclass(frozen=True)
class OpProfile:
    """Static cost of one node (batch size 1)."""

    name: str
    op: str
    output_shape: tuple
    flops: int
    params: int
    activation: int          # output elements


@dataclass
class GraphProfile:
    """Per-node profiles plus optional measured wall-clock totals."""

    ops: list[OpProfile]
    wall_time_s: float | None = None
    batch: int | None = None
    compiled: bool = False          # wall time measured on an ExecutionPlan

    @property
    def total_flops(self) -> int:
        return sum(o.flops for o in self.ops)

    @property
    def total_params(self) -> int:
        return sum(o.params for o in self.ops)

    @property
    def peak_activation(self) -> int:
        return max((o.activation for o in self.ops), default=0)

    def heaviest(self, top: int = 5) -> list[OpProfile]:
        return sorted(self.ops, key=lambda o: o.flops, reverse=True)[:top]


def _resolve(shape: tuple, batch: int = 1) -> tuple:
    return tuple(batch if d is None else d for d in shape)


def _elements(shape: tuple) -> int:
    return int(np.prod(_resolve(shape))) if shape else 1


def _node_flops(node: Node, ins: list[tuple], out: tuple,
                weights: dict[str, np.ndarray]) -> int:
    op, a = node.op, node.attrs
    out_el = _elements(out)
    if op == "conv2d":
        w = weights[node.inputs[1]]
        cin_g, kh, kw = w.shape[1], w.shape[2], w.shape[3]
        macs = out_el * cin_g * kh * kw
        return (2 * macs + (out_el if len(node.inputs) > 2 else 0)
                + (out_el if a.get("activation") else 0))
    if op == "linear":
        w = weights[node.inputs[1]]
        rows = _elements(ins[0][:-1]) if len(ins[0]) > 1 else 1
        return 2 * rows * w.shape[0] * w.shape[1] \
            + (out_el if len(node.inputs) > 2 else 0)
    if op == "matmul":
        k = ins[0][-1]
        return 2 * out_el * (k or 1)
    if op in ("batchnorm", "layernorm"):
        return 4 * out_el                    # scale+shift (+stats for LN)
    if op in ("relu", "identity", "slice", "concat", "transpose", "reshape",
              "flatten", "expand_like", "constant", "clip", "scale"):
        return out_el if op in ("relu", "clip", "scale") else 0
    if op in ("gelu", "sigmoid", "softmax", "quantize_linear",
              "dequantize_linear"):
        return 6 * out_el                    # transcendental-ish per element
    if op in ("add", "mul"):
        return out_el
    if op in ("maxpool", "avgpool"):
        return out_el * a["kernel_size"] ** 2
    if op == "global_avgpool" or op == "mean":
        return _elements(ins[0])
    if op == "upsample":
        return out_el * (4 if a["mode"] == "bilinear" else 1)
    if op == "fused_elementwise":
        return sum(_node_flops(sub, ins, out, weights) for sub in a["chain"])
    return 0


def profile_graph(graph: Graph, input_shape: tuple = (None, 3, 32, 32), *,
                  x: np.ndarray | None = None,
                  executor: Executor | None = None,
                  repeats: int = 3, compiled: bool = False) -> GraphProfile:
    """Static per-op profile; pass ``x`` to also measure wall-clock time.

    The static part needs no data.  With ``x``, the graph runs
    ``repeats`` times under ``executor`` (reference by default) and the
    best wall time is recorded — the usual min-of-N timing discipline.
    ``compiled=True`` times the executor's compiled
    :class:`~repro.backend.plan.ExecutionPlan` instead of the interpreted
    ``run`` (compilation happens outside the timed region; outputs are
    bit-identical either way).
    """
    shapes = infer_shapes(graph, input_shape)
    ops = []
    for node in graph.nodes:
        ins = [shapes[v] for v in node.inputs]
        out = shapes[node.output]
        params = sum(int(graph.initializers[v].size) for v in node.inputs
                     if v in graph.initializers)
        ops.append(OpProfile(name=node.name or node.output, op=node.op,
                             output_shape=out,
                             flops=_node_flops(node, ins, out,
                                               graph.initializers),
                             params=params, activation=_elements(out)))
    profile = GraphProfile(ops)
    if x is not None:
        executor = executor or ReferenceExecutor()
        if compiled:
            run = executor.compile(graph).run
            profile.compiled = True
        else:
            run = lambda batch: executor.run(graph, batch)
        run(x)                       # warm caches outside the timed region
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run(x)
            best = min(best, time.perf_counter() - start)
        profile.wall_time_s = best
        profile.batch = len(x)
    return profile


def render_profile(profile: GraphProfile, top: int = 8) -> str:
    """Vendor-style profile report: totals plus the heaviest ops."""
    lines = [f"total: {profile.total_flops / 1e6:.2f} MFLOPs/sample, "
             f"{profile.total_params} params, "
             f"peak activation {profile.peak_activation} elems"]
    if profile.wall_time_s is not None:
        per = profile.wall_time_s / max(profile.batch or 1, 1)
        label = " (compiled plan)" if profile.compiled else ""
        lines[0] += f", measured {per * 1e3:.2f} ms/sample{label}"
    lines.append(f"{'layer':<32} {'op':<14} {'FLOPs':>12} {'params':>8} "
                 f"{'% FLOPs':>8}")
    total = max(profile.total_flops, 1)
    for op in profile.heaviest(top):
        lines.append(f"{op.name:<32} {op.op:<14} {op.flops:>12d} "
                     f"{op.params:>8d} {100 * op.flops / total:>7.1f}%")
    return "\n".join(lines)
