"""Deployment inference-engine substrate: graph IR, exporter, backends.

The SysNoise paper's deployment targets (TensorRT, SNPE, CANN) are vendor
graph compilers: the trained model is exported once to a portable graph and
each backend executes it with its own operator kernels.  This package builds
that entire layer from scratch:

* :mod:`~repro.backend.ir`       — the graph IR and builder;
* :mod:`~repro.backend.export`   — ``repro.nn`` → graph lowering (ONNX role);
* :mod:`~repro.backend.executor` — reference backend + configurable vendor
  personas (``gpu-fp16``, ``dsp``, ``npu-bilinear``);
* :mod:`~repro.backend.passes`   — load-time rewrites (conv+BN fusion, DCE);
* :mod:`~repro.backend.compare`  — per-layer divergence localisation and
  end-to-end Δ-accuracy under a backend.

Quick use::

    graph = export_module(trained_model)
    ref   = accuracy_under_backend(graph, x, y, "reference")
    fp16  = accuracy_under_backend(graph, x, y, "gpu-fp16")
    print(diff_report(backend_diff(graph, x, "reference", "dsp")))

The public names below load their submodule on first access (PEP 562),
so ``import repro.backend.parallel`` (the BLAS pin and core probe every
CLI process and sweep module needs) does not import the graph stack.
"""

import importlib

#: Public name -> the submodule defining it.
_EXPORTS = {name: module for module, names in {
    "compare": ("LayerDiff", "accuracy_under_backend", "backend_diff",
                "diff_report", "first_divergence", "predict"),
    "executor": ("BACKEND_PRESETS", "BackendOptions", "DeploymentExecutor",
                 "Executor", "ReferenceExecutor", "create_backend"),
    "export": ("ExportError", "export_classifier", "export_module",
               "register_handler", "supported_module_types"),
    "ir": ("Graph", "GraphBuilder", "GraphError", "Node", "OP_SCHEMA"),
    "passes": ("DEFAULT_PASSES", "PLAN_PASSES", "dead_code_elimination",
               "eliminate_identity", "fold_constants", "fold_movement",
               "fuse_conv_bn", "fuse_conv_bn_relu", "fuse_conv_relu",
               "fuse_elementwise", "optimize"),
    "plan": ("ExecutionPlan", "compile_cached", "compile_plan"),
    "profile": ("GraphProfile", "OpProfile", "profile_graph",
                "render_profile"),
    "quantize": ("calibrate_ranges", "quantize_graph"),
    "serialize": ("GRAPH_FORMAT_VERSION", "load_graph", "save_graph"),
    "shapes": ("ShapeError", "infer_shapes", "summary_with_shapes"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
