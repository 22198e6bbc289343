"""Compiled execution plans: interpret a graph once, run it many times.

``Executor.run`` re-interprets the IR per call — per node it rebuilds the
argument list from a values dict, walks a ~25-way op dispatch, re-casts and
re-reshapes the weights, and stores every intermediate until the end of the
run.  :func:`compile_plan` pays all of that exactly once:

* **Bound closures** — each node is lowered to a closure with the kernel,
  attributes, and (pre-cast, pre-reshaped) weight operands baked in, so the
  per-run work per node is one function call.
* **Memory plan** — value lifetimes are liveness-analysed at compile time:
  values are assigned arena slots reused across disjoint live ranges, dead
  intermediates are dropped the step they die, and elementwise ops whose
  input buffer dies at the node write **in place**.  An aliasing analysis
  (view-producing ops: identity/reshape/flatten/transpose/slice) keeps
  in-place rewrites off buffers that are still visible through a view, off
  constants, and off the caller's input array.
* **Plan passes** — the bit-exact pipeline ``PLAN_PASSES`` (identity
  elimination, transpose/reshape folding, conv+relu attachment, elementwise
  chain fusion) runs after ``Executor.prepare``, so backend-option rewrites
  like conv+BN fusion still happen exactly as in the interpreted path.
* **Fast kernels** — 1×1 convolutions skip the im2col gather entirely and
  grouped/depthwise convolutions run as one batched GEMM instead of a
  Python loop over groups.  Both changes feed BLAS the same operand values
  and layouts as the interpreter, so outputs stay bit-identical.

Exact numeric parity with ``Executor.run`` on the same graph and options is
a hard contract, enforced by ``tests/test_backend_plan.py`` and gated in CI
by ``benchmarks/bench_perf.py``.

``ExecutionPlan.run(x)`` executes one batch; ``run_batch([x1, x2, ...])``
concatenates the pieces and carries the whole minibatch through the plan in
a single pass (``run_batch([x])`` equals ``run(x)``).
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np

from . import ops
from .executor import _run_reshape
from .ir import Graph, Node
from .passes import PLAN_PASSES

__all__ = ["ExecutionPlan", "compile_plan", "compile_cached"]


#: Ops whose output may alias (view) their input buffer.
_VIEW_OPS = frozenset({"identity", "reshape", "flatten", "transpose",
                       "slice"})
#: Single-data-input ops with a bit-exact ``out=`` form.
_INPLACE_UNARY = frozenset({"relu", "clip", "scale"})
#: Two-input elementwise ops with a bit-exact ``out=`` form.
_INPLACE_BINARY = frozenset({"add", "mul"})
#: Every node kind eligible for an in-place rewrite.
_INPLACE_OPS = _INPLACE_UNARY | _INPLACE_BINARY | {"fused_elementwise"}


# ---------------------------------------------------------------------------
# Kernel binding
# ---------------------------------------------------------------------------

def _bind_conv2d(node: Node, inits: dict, dt, ac, inplace: bool):
    a = node.attrs
    stride, padding = a["stride"], a["padding"]
    dilation, groups = a["dilation"], a["groups"]
    relu_after = a.get("activation") == "relu"
    w_raw = inits[node.inputs[1]]
    cout, cin_g, kh, kw = w_raw.shape
    # The interpreter casts/reshapes these on every call; same expressions,
    # evaluated once, give bit-identical operands.
    w = w_raw.astype(dt, copy=False)
    wg = w.reshape(groups, cout // groups, cin_g * kh * kw)
    bias = inits[node.inputs[2]] if len(node.inputs) > 2 else None
    bias_r = (None if bias is None
              else bias.astype(dt, copy=False).reshape(1, -1, 1, 1))
    k1 = kh == 1 and kw == 1 and groups == 1
    from repro.nn.functional import _patch_indices, im2col

    def _conv_out(size: int, k: int) -> int:
        eff = dilation * (k - 1) + 1
        return (size + 2 * padding - eff) // stride + 1

    # Per-input-shape scratch: padded map + column buffer, preallocated once
    # and reused every run (the arena part of the memory plan).  Bit parity
    # requires matching not just the gather's *values* but its memory
    # *layout* — BLAS rounding depends on operand strides.  im2col yields a
    # C-contiguous window copy for k>1 (the take-gather below reproduces it
    # exactly) but, from its fancy gather, a (positions, batch,
    # channels)-ordered transposed view for k==1 (a NumPy advanced-indexing
    # artifact), which the k1 buffer reproduces stride for stride.
    # Thread-local, because a cached plan is shared by every caller and
    # sweeps run plans from thread pools — two threads must never fill the
    # same buffer.
    tls = threading.local()

    def _plan_for(shape):
        scratch = getattr(tls, "scratch", None)
        if scratch is None:
            scratch = tls.scratch = {}
        st = scratch.get(shape)
        if st is None:
            n, c, h, w_sp = shape
            oh, ow = _conv_out(h, kh), _conv_out(w_sp, kw)
            need_h = (oh - 1) * stride + dilation * (kh - 1) + 1
            need_w = (ow - 1) * stride + dilation * (kw - 1) + 1
            pad_b = max(0, need_h - (h + padding))
            pad_r = max(0, need_w - (w_sp + padding))
            hp, wp = h + padding + pad_b, w_sp + padding + pad_r
            xp = (np.empty((n, c, hp, wp), dt)
                  if hp != h or wp != w_sp else None)
            if k1:
                colsbuf = np.empty((oh * ow, n, c), dt)
                flat = None
            else:
                rows, cols_i = _patch_indices(h, w_sp, kh, kw, stride,
                                              dilation, oh, ow)
                flat = np.ascontiguousarray((rows * wp + cols_i).ravel())
                colsbuf = np.empty((n, c, flat.size), dt)
            if len(scratch) >= 4:            # bound per-closure scratch
                scratch.clear()
            st = scratch[shape] = (oh, ow, flat, xp, colsbuf, hp, wp)
        return st

    def fn(x):
        x = x.astype(dt, copy=False)
        n, c = x.shape[0], x.shape[1]
        if kh == 1 and kw == 1 and groups > 1:
            # Rare shape (grouped pointwise): replicate the interpreter's
            # gather verbatim rather than model its layout.
            cols, meta = im2col(x, kh, kw, stride, padding, dilation)
            oh, ow = meta[6], meta[7]
            cols = cols.reshape(n, groups, cin_g * kh * kw, oh * ow)
        else:
            oh, ow, flat, xp, colsbuf, hp, wp = _plan_for(x.shape)
            if xp is None:
                src = x
            else:
                xp.fill(0.0)
                xp[:, :, padding:padding + x.shape[2],
                   padding:padding + x.shape[3]] = x
                src = xp
            if k1:
                sel = src[:, :, ::stride, ::stride][:, :, :oh, :ow]
                colsbuf.reshape(oh, ow, n, c)[:] = sel.transpose(2, 3, 0, 1)
                cols = colsbuf.transpose(1, 2, 0)    # interpreter's k==1 view
            else:
                np.take(src.reshape(n, c, hp * wp), flat, axis=2,
                        out=colsbuf)
                cols = colsbuf.reshape(n, groups, cin_g * kh * kw, oh * ow)
        if groups == 1:
            cols2 = cols if k1 else cols[:, 0]
            out = ops.matmul_accum(wg[0], cols2, dtype=dt, accum_chunk=ac)
        else:
            # One batched GEMM over the group axis; per-slice operands match
            # the interpreter's per-group matmul_accum calls exactly.
            out = ops.matmul_accum(wg, cols, dtype=dt, accum_chunk=ac)
        out = out.reshape(n, cout, oh, ow)
        if bias_r is not None:
            np.add(out, bias_r, out=out)
        out = out.astype(dt, copy=False)
        if relu_after:
            np.maximum(out, 0, out=out)
        return out

    return fn


def _bind_linear(node: Node, inits: dict, dt, ac):
    wt = inits[node.inputs[1]].T.astype(dt, copy=False)
    bias = inits[node.inputs[2]] if len(node.inputs) > 2 else None
    bias_c = None if bias is None else bias.astype(dt, copy=False)

    def fn(x):
        out = ops.matmul_accum(x, wt, dtype=dt, accum_chunk=ac)
        if bias_c is not None and out.dtype == dt:
            np.add(out, bias_c, out=out)
        elif bias_c is not None:                      # pragma: no cover
            out = (out + bias_c).astype(dt, copy=False)
        return out

    return fn


def _bind_batchnorm(node: Node, inits: dict, dt):
    gamma, beta, mean, var = (inits[v] for v in node.inputs[1:5])
    eps = node.attrs["eps"]
    scale = (gamma / np.sqrt(var + eps)).astype(dt)
    shift = (beta - mean * gamma / np.sqrt(var + eps)).astype(dt)

    def fn(x):
        shp = (1, -1) + (1,) * (x.ndim - 2)
        out = x.astype(dt, copy=False) * scale.reshape(shp)
        np.add(out, shift.reshape(shp), out=out)
        return out.astype(dt, copy=False)

    return fn


def _bind_layernorm(node: Node, inits: dict, dt):
    gamma = inits[node.inputs[1]].astype(dt)
    beta = inits[node.inputs[2]].astype(dt)
    eps = node.attrs["eps"]

    def fn(x):
        x = x.astype(dt, copy=False)
        mu = x.mean(axis=-1, keepdims=True)
        d = x - mu
        var = (d ** 2).mean(axis=-1, keepdims=True)
        np.divide(d, np.sqrt(var + eps), out=d)
        np.multiply(d, gamma, out=d)
        np.add(d, beta, out=d)
        return d.astype(dt, copy=False)

    return fn


def _bind_generic(node: Node, opts, inplace: bool):
    """Kernel for the remaining ops, mirroring the interpreter's dispatch."""
    a = node.attrs
    op = node.op
    dt = None if opts is None else opts.np_dtype

    # In-place forms are bit-identical only when they also preserve the
    # layout the interpreter would have produced: a fresh elementwise result
    # is C-contiguous, and downstream reductions are order-sensitive to
    # strides, so in-place writes additionally require a contiguous target.
    if op == "relu":
        if inplace:
            def kernel(x):
                if x.flags.c_contiguous:
                    return np.maximum(x, 0, out=x)
                return np.maximum(x, 0)
        else:
            kernel = ops.relu
    elif op == "gelu":
        if opts is not None and opts.alt_gelu:
            return lambda x: ops.gelu(x).astype(dt, copy=False)
        kernel = ops.gelu_tanh
    elif op == "sigmoid":
        if opts is not None and opts.fast_sigmoid:
            return ops.hard_sigmoid
        kernel = ops.sigmoid
    elif op == "softmax":
        if opts is not None and opts.fast_softmax:
            return partial(ops.softmax_fast, axis=a["axis"])
        kernel = partial(ops.softmax, axis=a["axis"])
    elif op == "add":
        if inplace:
            def kernel(x, y):
                if (x.flags.c_contiguous
                        and x.shape == np.broadcast_shapes(x.shape, y.shape)
                        and np.result_type(x, y) == x.dtype):
                    return np.add(x, y, out=x)
                return x + y
        else:
            kernel = lambda x, y: x + y
    elif op == "mul":
        if inplace:
            def kernel(x, y):
                if (x.flags.c_contiguous
                        and x.shape == np.broadcast_shapes(x.shape, y.shape)
                        and np.result_type(x, y) == x.dtype):
                    return np.multiply(x, y, out=x)
                return x * y
        else:
            kernel = lambda x, y: x * y
    elif op in ("maxpool", "avgpool"):
        ceil = a["ceil_mode"]
        if opts is not None and opts.ceil_mode_override is not None:
            ceil = opts.ceil_mode_override     # resolved once, at plan time
        pool = ops.max_pool2d if op == "maxpool" else ops.avg_pool2d
        kernel = partial(pool, kernel_size=a["kernel_size"],
                         stride=a["stride"], padding=a["padding"],
                         ceil_mode=ceil)
    elif op == "global_avgpool":
        kernel = ops.global_avg_pool2d
    elif op == "upsample":
        mode = a["mode"]
        if opts is not None and opts.upsample_mode_override is not None:
            mode = opts.upsample_mode_override
        kernel = partial(ops.upsample2d, scale_factor=a["scale_factor"],
                         mode=mode)
    elif op == "flatten":
        kernel = lambda x: x.reshape(x.shape[0], -1)
    elif op == "reshape":
        kernel = lambda x, _node=node: _run_reshape(_node, x)
    elif op == "identity":
        kernel = lambda x: x
    elif op == "constant":
        value = np.asarray(a["value"])
        if dt is not None:
            value = value.astype(dt, copy=False)
        return lambda _value=value: _value
    elif op == "clip":
        lo, hi = a["lo"], a["hi"]
        if inplace:
            def kernel(x):
                if x.flags.c_contiguous:
                    return np.clip(x, lo, hi, out=x)
                return np.clip(x, lo, hi)
        else:
            kernel = lambda x: np.clip(x, lo, hi)
    elif op == "quantize_linear":
        scale, zp = a["scale"], a["zero_point"]
        kernel = lambda x: np.clip(np.round(x / scale) + zp, -128, 127)
    elif op == "dequantize_linear":
        scale, zp = a["scale"], a["zero_point"]
        kernel = lambda x: (x - zp) * scale
    elif op == "transpose":
        kernel = lambda x, _perm=tuple(a["perm"]): x.transpose(_perm)
    elif op == "concat":
        kernel = lambda *xs: np.concatenate(xs, axis=a["axis"])
    elif op == "slice":
        axis, start, stop = a["axis"], a["start"], a["stop"]

        def kernel(x):
            index = [slice(None)] * x.ndim
            index[axis] = slice(start, stop)
            return x[tuple(index)]
    elif op == "mean":
        kernel = lambda x: x.mean(axis=a["axis"])
    elif op == "expand_like":
        def kernel(ref, value):
            return np.broadcast_to(
                value, (ref.shape[0],) + value.shape[1:]).copy()
    elif op == "scale":
        factor = a["factor"]
        if inplace:
            def kernel(x):
                if x.flags.c_contiguous:
                    return np.multiply(x, factor, out=x)
                return x * factor
        else:
            kernel = lambda x: x * factor
    else:
        raise NotImplementedError(f"no plan kernel for op {node.op!r}")

    if dt is None:
        return kernel
    # Deployment interpreter: every generic op's output is forced back to
    # the storage dtype (same astype(copy=False), so views stay views).
    return lambda *xs, _k=kernel: _k(*xs).astype(dt, copy=False)


def _bind_node(node: Node, inits: dict, opts, inplace: bool):
    """The bound kernel for one node (runtime args = non-initializer inputs)."""
    dt = np.float64 if opts is None else opts.np_dtype
    ac = None if opts is None else opts.accum_chunk
    if node.op == "conv2d":
        return _bind_conv2d(node, inits, dt, ac, inplace)
    if node.op == "linear":
        return _bind_linear(node, inits, dt, ac)
    if node.op == "batchnorm":
        return _bind_batchnorm(node, inits, dt)
    if node.op == "layernorm":
        return _bind_layernorm(node, inits, dt)
    if node.op == "matmul":
        tb = node.attrs["transpose_b"]

        def fn(x, y, _tb=tb, _dt=dt, _ac=ac):
            if _tb:
                y = np.swapaxes(y, -1, -2)
            return ops.matmul_accum(x, y, dtype=_dt, accum_chunk=_ac)

        kernel = fn
    elif node.op == "fused_elementwise":
        subs = []
        for j, sub in enumerate(node.attrs["chain"]):
            # Chain intermediates are freshly allocated by the previous sub-
            # kernel, so every sub past the head may always write in place.
            subs.append(_bind_generic(sub, opts, inplace or j > 0))

        def kernel(x, _subs=tuple(subs)):
            for f in _subs:
                x = f(x)
            return x
    else:
        return _bind_generic(node, opts, inplace)

    # matmul / fused chains may still see initializer operands via the
    # generic const-injection wrapper installed by the planner.
    return kernel


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------

class ExecutionPlan:
    """A precompiled schedule of bound kernels with an arena memory plan.

    Build through :meth:`Executor.compile` / :func:`compile_plan`; ``graph``
    must already be prepared (backend rewrites applied).
    """

    def __init__(self, graph: Graph, cast_input, options=None,
                 backend: str = "plan") -> None:
        self.graph = graph
        self.options = options
        self.backend = backend
        self._cast_input = cast_input
        self._build()

    # -- compilation --------------------------------------------------------

    def _build(self) -> None:
        graph = self.graph
        nodes = graph.nodes
        inits = graph.initializers
        end = len(nodes)

        # Liveness: last consuming step per slot-resident value.
        last_use: dict[str, int] = {}
        for i, node in enumerate(nodes):
            for v in node.inputs:
                if v not in inits:
                    last_use[v] = i
        last_use[graph.output] = end

        # Aliasing: view-producing ops join their input's buffer group;
        # groups rooted at the caller's input, at constants, or at
        # initializer views must never be written in place.
        group_of: dict[str, int] = {graph.input: 0}
        writable: dict[int, bool] = {0: False}
        next_gid = 1
        for node in nodes:
            if node.op in _VIEW_OPS and node.inputs[0] in group_of:
                gid = group_of[node.inputs[0]]
            else:
                gid = next_gid
                next_gid += 1
                writable[gid] = not (node.op == "constant"
                                     or (node.op in _VIEW_OPS
                                         and node.inputs[0] in inits))
            group_of[node.output] = gid
        group_last: dict[int, int] = {}
        for v, gid in group_of.items():
            group_last[gid] = max(group_last.get(gid, -1),
                                  last_use.get(v, -1))

        def may_write_inplace(i: int, node: Node) -> bool:
            if node.op not in _INPLACE_OPS:
                return False
            target = node.inputs[0]
            gid = group_of.get(target)
            if gid is None or not writable[gid] or group_last[gid] != i:
                return False
            if last_use.get(target) != i:
                return False
            # A second operand aliasing the target through a *different*
            # value would partially overlap the output buffer.
            for other in node.inputs[1:]:
                if other != target and group_of.get(other) == gid:
                    return False
            return True

        # Slot assignment: a free-list arena over value live ranges.
        free: list[int] = []
        n_slots = 0

        def alloc() -> int:
            nonlocal n_slots
            if free:
                return free.pop()
            n_slots += 1
            return n_slots - 1

        slot_of: dict[str, int] = {graph.input: alloc()}
        steps = []
        for i, node in enumerate(nodes):
            fn = _bind_node(node, inits, self.options,
                            may_write_inplace(i, node))
            src_slots = []
            consts = []           # (position, raw array) for initializer args
            for pos, v in enumerate(node.inputs):
                if v in inits and node.op not in ("conv2d", "linear",
                                                  "batchnorm", "layernorm"):
                    consts.append((pos, inits[v]))
                elif v not in inits:
                    src_slots.append(slot_of[v])
            if consts:
                fn = _inject_consts(fn, consts, len(node.inputs))
            released = []
            for v in set(node.inputs):
                if v in slot_of and last_use.get(v) == i:
                    released.append(slot_of[v])
                    free.append(slot_of[v])
                    del slot_of[v]
            dst = alloc()
            slot_of[node.output] = dst
            steps.append((fn, tuple(src_slots), dst,
                          tuple(s for s in released if s != dst)))

        self._steps = steps
        self.n_slots = n_slots
        self._input_slot = 0
        self._output_slot = (slot_of[graph.output]
                             if graph.output in slot_of else 0)

    # -- execution ----------------------------------------------------------

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the plan on one batch; bit-identical to ``Executor.run``."""
        env: list = [None] * self.n_slots
        env[self._input_slot] = self._cast_input(x)
        for fn, srcs, dst, releases in self._steps:
            n = len(srcs)
            if n == 1:
                value = fn(env[srcs[0]])
            elif n == 2:
                value = fn(env[srcs[0]], env[srcs[1]])
            elif n == 0:
                value = fn()
            else:
                value = fn(*[env[s] for s in srcs])
            env[dst] = value
            for s in releases:
                env[s] = None
        return env[self._output_slot]

    __call__ = run

    def run_batch(self, batches) -> np.ndarray:
        """Carry a whole minibatch through the plan in one pass.

        ``batches`` is a sequence of batch arrays (each ``(N_i, ...)``);
        they are concatenated along the batch axis and executed in a single
        plan traversal, so ``run_batch([x])`` equals ``run(x)`` exactly.
        """
        batches = [np.asarray(b) for b in batches]
        if not batches:
            raise ValueError("run_batch needs at least one batch")
        if len(batches) == 1:
            return self.run(batches[0])
        return self.run(np.concatenate(batches, axis=0))

    # -- reporting ----------------------------------------------------------

    def describe(self) -> str:
        """One-line memory-plan summary (used by tests and docs)."""
        fused = sum(1 for n in self.graph.nodes
                    if n.op == "fused_elementwise"
                    or n.attrs.get("activation"))
        return (f"{self.backend}: {len(self._steps)} steps, "
                f"{self.n_slots} buffer slots "
                f"({len(self.graph.nodes) + 1} values), {fused} fused nodes")


def _inject_consts(fn, consts, n_inputs):
    """Wrap ``fn`` so initializer-valued operands are supplied at their
    original positions (as raw arrays, exactly like the interpreter)."""
    const_at = dict(consts)

    def wrapped(*slot_args):
        args = []
        it = iter(slot_args)
        for pos in range(n_inputs):
            args.append(const_at[pos] if pos in const_at else next(it))
        return fn(*args)

    return wrapped


# ---------------------------------------------------------------------------
# Compilation entry points + cache
# ---------------------------------------------------------------------------

def compile_plan(graph: Graph, executor, optimize: bool = True) -> ExecutionPlan:
    """Compile ``graph`` for ``executor`` (uncached).

    With ``optimize`` the bit-exact ``PLAN_PASSES`` pipeline runs after the
    executor's own :meth:`prepare`; without it the plan schedules the
    prepared graph as-is (useful to isolate pass effects in tests).
    """
    prepared = executor.prepare(graph)
    if optimize:
        for p in PLAN_PASSES:
            prepared = p(prepared)
    return ExecutionPlan(prepared, executor.cast_input,
                         options=getattr(executor, "options", None),
                         backend=executor.name)


def compile_cached(graph: Graph, executor, optimize: bool = True) -> ExecutionPlan:
    """:func:`compile_plan` memoised per (graph identity, backend options).

    Delegates to the executor's token-keyed prepared cache
    (:func:`~repro.backend.executor.prepare_cached`), so plans share its
    guarantees: keys use the never-recycled ``object_token`` scheme and a
    recycled ``id()`` can never serve a plan compiled for a dead graph;
    entries are evicted when the graph is collected.
    """
    from .executor import prepare_cached
    key = ("plan", type(executor).__name__,
           getattr(executor, "options", None), bool(optimize))
    return prepare_cached(
        graph, key, lambda g: compile_plan(g, executor, optimize=optimize))
