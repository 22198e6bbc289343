"""Compiled-plan inference for sweeps: export once per process, run many.

:class:`PlanPredictor` exports the trained model to the graph IR, compiles
it for the reference backend (backend rewrites, the bit-exact plan passes,
kernel binding) the first time a sweep cell needs it, and runs every later
cell of that model through the same :class:`~repro.backend.plan.
ExecutionPlan`.  Each process compiles its own plan; compilation is
deterministic, so cells computed by different workers splice losslessly.

Plan inference is opt-in (``SweepEngine(inference="plan")`` /
``BenchmarkSession.inference("plan")``) because the compiled graph
substrate is *not* float-identical to the training runtime's module
forward (different GEMM association, ~1e-15 relative); the mode therefore
folds into every cache and ledger key.

Scope: configs that modify the model — precision wrappers replace module
forwards with closures the graph exporter cannot see — fall back to the
module-forward path, per cell and deterministically, so a cell is either
always-plan or always-module under the mode.  See docs/performance.md.
"""

from __future__ import annotations

import numpy as np

from .cache import object_token

__all__ = ["PlanPredictor", "INFERENCE_MODES"]

#: Accepted values for the engine/session ``inference`` knob.
INFERENCE_MODES = ("module", "plan")


def _module_predict(noised, xb):
    """The default module-forward classification predict (argmax logits)."""
    from .tasks import _predict_argmax
    return _predict_argmax(noised, xb)


class PlanPredictor:
    """Builds ``predict(noised, xb) -> labels`` hooks backed by compiled plans.

    One instance is shared across a session's engines; compiled plans are
    memoised per model identity token, so the clean row, worst-case curve
    and every preprocessing-noise cell reuse a single plan.
    """

    def __init__(self):
        self._plans: dict[int, object] = {}
        #: How many plans this predictor compiled (one per model).
        self.compiles = 0

    def plan_for(self, model):
        """The compiled :class:`~repro.backend.plan.ExecutionPlan` for
        ``model`` (compiled on first use, then memoised)."""
        token = object_token(model)
        plan = self._plans.get(token)
        if plan is None:
            from repro.backend import (compile_plan, create_backend,
                                       export_module)
            plan = compile_plan(export_module(model),
                                create_backend("reference"))
            self.compiles += 1
            self._plans[token] = plan
        return plan

    # -- the predict hook ----------------------------------------------------

    def bind(self, model):
        """A ``predict(noised, xb) -> labels`` hook for sweep cells of
        ``model``.

        Cells whose config leaves the model untouched (``deployment_model``
        returned the model itself) run through the compiled plan; cells
        that received a modified copy fall back to the module forward —
        the exporter cannot see precision wrappers' replaced ``forward``
        closures, and a silently wrong lowering is worse than a slower
        exact one.
        """
        def predict(noised, xb):
            if noised is not model:
                return _module_predict(noised, xb)
            plan = self.plan_for(model)
            return plan.run(np.asarray(xb)).argmax(axis=-1)
        return predict
