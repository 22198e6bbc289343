"""Plan-inference integration tests: sessions, engines, ledgers, serve.

``inference="plan"`` swaps the sweep's evaluation substrate from the
module forward to a compiled execution plan, compiled once per process.
These tests pin the wiring: one compile per run and no file left in the
run directory, old run directories that still carry a ``plan.npz``, the
mode folding into cache and ledger identity, the per-cell fallback for
model-modifying configs, and the serve layer's spec validation.
"""

import json

import numpy as np
import pytest

from repro.core import (BenchmarkSession, PlanPredictor, RunStore,
                        SweepEngine)

NOISES = ("resize", "precision")


def build_session(store, mode="module", run_id=None):
    s = (BenchmarkSession().task("cls").model("mcunet-293kb").seed(0)
         .data(n=24, train_frac=0.5).noises(*NOISES).combined(False))
    if store is not None:
        s = s.store(store, run_id=run_id)
    if mode == "plan":
        s = s.inference(mode)
    return s


def row_of(result):
    return {"baseline": result.baseline,
            **{n: r.values for n, r in result.results.items()
               if r is not None}}


# ---------------------------------------------------------------------------
# Run lifecycle: each process compiles its own plan and stores nothing
# ---------------------------------------------------------------------------

class TestArtifactLifecycle:
    def test_independent_runs_compile_once_and_write_no_plan(self, tmp_path):
        rows = []
        for store in (tmp_path / "a", tmp_path / "b"):
            s = build_session(store, "plan")
            s.fit_or_load(epochs=1)
            rows.append(row_of(s.run()))
            assert s._ensure_plan_predictor().compiles == 1
            assert not (s.ledger.path / "plan.npz").exists()
        assert rows[0] == rows[1]

    def test_manifest_records_inference_mode(self, tmp_path):
        s = build_session(tmp_path, "plan")
        s.fit_or_load(epochs=1)
        manifest = json.loads(
            (s.ledger.path / "manifest.json").read_text())
        assert manifest["inference"] == "plan"

    def test_module_run_not_joinable_in_plan_mode(self, tmp_path):
        """The substrates differ at float level, so splicing plan cells
        into a module-mode ledger must be refused at open time."""
        s1 = build_session(tmp_path, "module")
        s1.fit_or_load(epochs=1)
        s2 = build_session(tmp_path, "plan", run_id=s1.run_id)
        with pytest.raises(ValueError):
            s2.ledger


# ---------------------------------------------------------------------------
# Old run directories: a recorded plan.npz is carried along, never read
# ---------------------------------------------------------------------------

RUN_ARGS = ("--run-id", "r", "--model", "mcunet-293kb", "--n", "24",
            "--epochs", "1", "--noises", "resize,precision", "--no-combined",
            "--inference", "plan")


def cli(*argv) -> int:
    from repro.cli import main
    return main(list(argv))


def ledger_values(store) -> dict:
    ledger = RunStore(store).open("r")
    return {(e["model"], e["dataset"], e["cfg"]): e["value"]
            for e in ledger.entries()
            if e["kind"] == "eval" and e["status"] == "ok"}


class TestOldPlanRunDirectories:
    def test_worker_finishes_a_run_that_recorded_a_plan(self, tmp_path,
                                                        capsys):
        """A plan-mode run prepared before plan artefacts were dropped has
        ``plan.npz`` in its directory and its digest in the manifest.
        ``repro worker`` and ``repro fsck`` accept it and leave it as is."""
        old, fresh = tmp_path / "old", tmp_path / "fresh"
        assert cli("run", "--store", str(old), *RUN_ARGS,
                   "--prepare-only") == 0
        plan = old / "r" / "plan.npz"
        np.savez_compressed(plan, stale=np.arange(8.0))
        RunStore(old).open("r").record_checkpoint(plan)
        data, mtime = plan.read_bytes(), plan.stat().st_mtime_ns

        assert cli("worker", "r", "--store", str(old)) == 0
        assert cli("run", "--store", str(fresh), *RUN_ARGS) == 0
        values = ledger_values(old)
        assert values and values == ledger_values(fresh)
        assert cli("fsck", "r", "--store", str(old)) == 0
        assert plan.read_bytes() == data
        assert plan.stat().st_mtime_ns == mtime
        assert not (fresh / "r" / "plan.npz").exists()


# ---------------------------------------------------------------------------
# Determinism + fallback semantics
# ---------------------------------------------------------------------------

class TestPlanPredictions:
    def test_plan_runs_are_deterministic(self, tmp_path):
        s = build_session(tmp_path, "plan")
        s.fit_or_load(epochs=1)
        assert row_of(s.run()) == row_of(s.run())

    def test_model_modifying_cells_fall_back_to_module(self, tmp_path):
        """Precision wrappers replace the module forward with closures the
        graph exporter cannot see; those cells must evaluate exactly like
        module mode."""
        s_plan = build_session(tmp_path / "a", "plan")
        s_plan.fit_or_load(epochs=1)
        plan_row = row_of(s_plan.run())
        s_mod = build_session(tmp_path / "b", "module")
        s_mod.fit_or_load(epochs=1)
        module_row = row_of(s_mod.run())
        assert plan_row["precision"] == module_row["precision"]

    def test_predictor_memoises_one_plan_per_model(self):
        from repro.models import create_model
        predictor = PlanPredictor()
        model = create_model("mcunet-293kb", num_classes=5, seed=0)
        model.eval()
        predict = predictor.bind(model)
        x = np.random.default_rng(0).normal(size=(4, 3, 32, 32))
        first = predict(model, x)
        second = predict(model, x)
        np.testing.assert_array_equal(first, second)
        assert predictor.compiles == 1

    def test_bind_falls_back_for_modified_models(self):
        from repro.models import create_model
        predictor = PlanPredictor()
        model = create_model("mcunet-293kb", num_classes=5, seed=0)
        model.eval()
        other = create_model("mcunet-293kb", num_classes=5, seed=0)
        other.eval()
        predict = predictor.bind(model)
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        predict(other, x)             # noised is not model -> module path
        assert predictor.compiles == 0


# ---------------------------------------------------------------------------
# Identity: the mode folds into engine cache and ledger keys
# ---------------------------------------------------------------------------

class TestIdentity:
    def test_engine_cache_keys_differ_by_mode(self):
        from repro.core.noise import TRAIN_CONFIG

        class Sentinel:      # weakref-able, so object_token stays stable
            pass

        model, ds = Sentinel(), Sentinel()
        k_module = SweepEngine()._cache_key(model, ds, TRAIN_CONFIG)
        k_plan = SweepEngine(inference="plan")._cache_key(model, ds,
                                                          TRAIN_CONFIG)
        assert k_module != k_plan
        # ... and the module key itself is stable across engines.
        assert k_module == SweepEngine()._cache_key(model, ds, TRAIN_CONFIG)

    def test_engine_rejects_process_mode(self):
        with pytest.raises(ValueError, match="pickle"):
            SweepEngine(inference="plan", workers=2, mode="process")

    def test_engine_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="inference"):
            SweepEngine(inference="jit")

    def test_session_rejects_process_mode(self):
        with pytest.raises(ValueError, match="pickle"):
            (BenchmarkSession().task("cls").workers(2, mode="process")
             .inference("plan"))


# ---------------------------------------------------------------------------
# Serve layer: JobSpec carries the mode
# ---------------------------------------------------------------------------

class TestServeSpec:
    def spec(self, **extra):
        from repro.serve.jobs import JobSpec
        return JobSpec({"model": "mcunet-293kb", "n": 24, **extra})

    def test_default_is_module(self):
        assert self.spec().inference == "module"

    def test_plan_accepted_and_in_identity(self):
        s = self.spec(inference="plan")
        assert s.inference == "plan"
        assert s.digest() != self.spec().digest()
        assert s.cli_block()["inference"] == "plan"

    def test_bad_values_rejected(self):
        from repro.serve.jobs import ValidationError
        with pytest.raises(ValidationError):
            self.spec(inference="jit")
        with pytest.raises(ValidationError):
            self.spec(inference="plan", mode="process")
