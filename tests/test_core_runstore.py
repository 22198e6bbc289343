"""Tests for the crash-safe RunStore/RunLedger subsystem and resume."""

import json
import threading

import numpy as np
import pytest

from repro.core import (TRAIN_CONFIG, EvalCache, RunLedger, RunStore,
                        SweepEngine, config_digest, ledger_table,
                        run_manifest)


class Raw:
    def __init__(self, b):
        self._b = b

    def tobytes(self):
        return self._b


class FakeDataset:
    """Content identity comes from streams (stable across processes)."""

    def __init__(self, payloads=(b"stream-a", b"stream-b")):
        self.streams = [Raw(p) for p in payloads]


class FakeModel:
    """Weak-referenceable model stand-in."""


def metric_of(cfg) -> float:
    return (90.0 - 2.0 * (cfg.decoder != "dali")
            - 1.0 * (cfg.resize_method != "pillow-bilinear")
            - 4.0 * (cfg.precision != "fp32"))


class CountingEvaluator:
    def __init__(self):
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, model, ds, cfg):
        with self.lock:
            self.calls.append(cfg)
        return metric_of(cfg)


@pytest.fixture
def manifest():
    return run_manifest(task="cls", model="fake", seed=0,
                        noises=["decoder", "precision"], metric="ACC")


class TestConfigDigest:
    def test_stable_for_equal_configs(self):
        a = TRAIN_CONFIG.with_(decoder="pil")
        b = TRAIN_CONFIG.with_(decoder="pil")
        assert config_digest(a) == config_digest(b)

    def test_distinguishes_configs(self):
        assert (config_digest(TRAIN_CONFIG)
                != config_digest(TRAIN_CONFIG.with_(precision="int8")))

    def test_handles_unhashable_extra_variants(self):
        a = TRAIN_CONFIG.with_extra("blur", {"sigma": 1.5, "k": [3, 3]})
        b = TRAIN_CONFIG.with_extra("blur", {"k": [3, 3], "sigma": 1.5})
        assert config_digest(a) == config_digest(b)   # dict order-insensitive
        c = TRAIN_CONFIG.with_extra("blur", {"sigma": 2.0, "k": [3, 3]})
        assert config_digest(a) != config_digest(c)


class TestRunLedger:
    def test_roundtrip_and_lookup(self, tmp_path, manifest):
        ledger = RunLedger.create(tmp_path / "r1", manifest)
        ledger.record_eval("m", "ds", "cfg1", status="ok", value=87.5,
                           noise="decoder")
        ledger.record_eval("m", "ds", "cfg2", status="error",
                           error="ValueError: boom")
        reopened = RunLedger(tmp_path / "r1")
        assert reopened.manifest["task"] == "cls"
        assert reopened.lookup("m", "ds", "cfg1")["value"] == 87.5
        # Error entries never satisfy a lookup: resume re-executes them.
        assert reopened.lookup("m", "ds", "cfg2") is None
        assert reopened.counts() == {"entries": 2, "ok": 1, "error": 1,
                                     "corrupt": 0}

    def test_values_roundtrip_bit_identical(self, tmp_path, manifest):
        ledger = RunLedger.create(tmp_path / "r1", manifest)
        value = 0.1 + 0.2                     # not representable exactly
        ledger.record_eval("m", "ds", "c", status="ok", value=value)
        assert RunLedger(tmp_path / "r1").lookup("m", "ds", "c")["value"] \
            == value

    def test_torn_final_line_tolerated(self, tmp_path, manifest):
        ledger = RunLedger.create(tmp_path / "r1", manifest)
        ledger.record_eval("m", "ds", "c1", status="ok", value=1.0)
        ledger.record_eval("m", "ds", "c2", status="ok", value=2.0)
        lpath = tmp_path / "r1" / "ledger.jsonl"
        text = lpath.read_text()
        lpath.write_text(text[: len(text) - 9])   # SIGKILL mid-write
        reopened = RunLedger(tmp_path / "r1")
        assert reopened.lookup("m", "ds", "c1")["value"] == 1.0
        assert reopened.lookup("m", "ds", "c2") is None
        assert reopened.counts()["corrupt"] == 1

    def test_later_ok_wins_over_earlier_error(self, tmp_path, manifest):
        ledger = RunLedger.create(tmp_path / "r1", manifest)
        ledger.record_eval("m", "ds", "c", status="error", error="flaky")
        ledger.record_eval("m", "ds", "c", status="ok", value=3.0)
        assert RunLedger(tmp_path / "r1").lookup("m", "ds", "c")["value"] \
            == 3.0


class TestRunStore:
    def test_create_open_list(self, tmp_path, manifest):
        store = RunStore(tmp_path)
        ledger = store.create(manifest, run_id="run-a")
        assert store.runs() == ["run-a"]
        assert store.latest() == "run-a"
        assert "run-a" in store
        assert store.open("run-a").path == ledger.path

    def test_open_missing_run_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no run"):
            RunStore(tmp_path).open("ghost")

    def test_duplicate_create_raises(self, tmp_path, manifest):
        store = RunStore(tmp_path)
        store.create(manifest, run_id="dup")
        with pytest.raises(ValueError, match="already exists"):
            store.create(manifest, run_id="dup")

    def test_resume_identity_mismatch_raises(self, tmp_path, manifest):
        store = RunStore(tmp_path)
        store.create(manifest, run_id="r")
        other = dict(manifest, seed=99)
        with pytest.raises(ValueError, match="manifest mismatch"):
            store.open_or_create(other, run_id="r")

    def test_resume_dataset_args_mismatch_raises(self, tmp_path, manifest):
        """When both manifests record dataset args (the CLI does), resuming
        with different data would splice two datasets into one table."""
        store = RunStore(tmp_path)
        store.create(dict(manifest, data={"n": 96}), run_id="r")
        with pytest.raises(ValueError, match="manifest mismatch"):
            store.open_or_create(dict(manifest, data={"n": 240}), run_id="r")
        # Backwards compatible: a manifest without 'data' is not compared.
        assert store.open_or_create(dict(manifest), run_id="r") is not None

    def test_resume_epochs_mismatch_raises(self, tmp_path, manifest):
        """Weights trained for a different number of epochs are a different
        run; manifests recorded before ``epochs`` was identity carry none,
        so for them the field is not compared."""
        store = RunStore(tmp_path)
        store.create(dict(manifest, epochs=1), run_id="r")
        with pytest.raises(ValueError, match=r"mismatch on \['epochs'\]"):
            store.open_or_create(dict(manifest, epochs=3), run_id="r")
        assert store.open_or_create(dict(manifest, epochs=1), run_id="r")
        store.create(dict(manifest), run_id="old")
        assert store.open_or_create(dict(manifest, epochs=3), run_id="old")

    def test_read_manifest_without_replay(self, tmp_path, manifest):
        store = RunStore(tmp_path)
        store.create(manifest, run_id="r")
        assert store.read_manifest("r")["task"] == "cls"
        with pytest.raises(ValueError, match="no run"):
            store.read_manifest("ghost")

    def test_open_or_create_resumes(self, tmp_path, manifest):
        store = RunStore(tmp_path)
        created = store.create(manifest, run_id="r")
        created.record_eval("m", "ds", "c", status="ok", value=1.0)
        resumed = store.open_or_create(dict(manifest), run_id="r")
        assert resumed.lookup("m", "ds", "c")["value"] == 1.0


class TestEngineLedger:
    def _engine(self, tmp_path, manifest, **kw):
        ledger = RunStore(tmp_path).open_or_create(manifest, run_id="r")
        return SweepEngine(eval_cache=EvalCache(), ledger=ledger,
                           model_key="fake", **kw), ledger

    def test_sweep_appends_every_evaluation(self, tmp_path, manifest):
        engine, ledger = self._engine(tmp_path, manifest)
        ev = CountingEvaluator()
        row = engine.noise_row(ev, FakeModel(), FakeDataset(),
                               ["decoder", "precision"])
        # baseline + 3 decoder + 2 precision + combined
        assert ledger.counts()["ok"] == len(ev.calls) == 7
        assert row["combined"] == pytest.approx(
            row["trained"] - metric_of(
                TRAIN_CONFIG.with_(decoder="pil", precision="int8")), abs=3)

    def test_resume_skips_ledger_complete_cells(self, tmp_path, manifest):
        first = CountingEvaluator()
        engine, _ = self._engine(tmp_path, manifest)
        row1 = engine.noise_row(first, FakeModel(), FakeDataset(),
                                ["decoder", "precision"])
        # A fresh engine + fresh cache, as a new process would have.
        second = CountingEvaluator()
        engine2, ledger2 = self._engine(tmp_path, manifest)
        row2 = engine2.noise_row(second, FakeModel(), FakeDataset(),
                                 ["decoder", "precision"])
        assert second.calls == []             # everything came from disk
        assert row2["trained"] == row1["trained"]
        assert row2["combined"] == row1["combined"]
        for name in ("decoder", "precision"):
            assert (row2["noises"][name].values
                    == row1["noises"][name].values)

    def test_partial_ledger_reexecutes_only_remainder(self, tmp_path,
                                                      manifest):
        engine, ledger = self._engine(tmp_path, manifest)
        engine.sweep_noise(CountingEvaluator(), FakeModel(), FakeDataset(),
                           "decoder")            # baseline + 3 variants
        before = ledger.counts()["entries"]
        ev = CountingEvaluator()
        engine2, ledger2 = self._engine(tmp_path, manifest)
        engine2.noise_row(ev, FakeModel(), FakeDataset(),
                          ["decoder", "precision"])
        # Only the precision variants and the combined config were computed.
        assert len(ev.calls) == 3
        assert ledger2.counts()["entries"] - before == 3

    def test_ledger_write_failure_does_not_abort_the_sweep(self, tmp_path,
                                                           manifest):
        """ENOSPC/deleted-run-dir mid-sweep degrades to 'unledgered', never
        to an aborted row: values stay intact, one warning, no raise."""
        ledger = RunStore(tmp_path).open_or_create(manifest, run_id="r")

        class FullDisk:
            run_id = "r"

            def lookup(self, *key):
                return None

            def record_eval(self, *a, **kw):
                raise OSError(28, "No space left on device")

        engine = SweepEngine(eval_cache=EvalCache(), ledger=FullDisk(),
                             model_key="fake")
        row = engine.noise_row(CountingEvaluator(), FakeModel(),
                               FakeDataset(), ["decoder", "precision"])
        assert row["noises"]["decoder"].errors == {}
        assert not np.isnan(row["combined"])
        assert ledger.counts()["entries"] == 0

    def test_cache_hits_are_backfilled_into_the_ledger(self, tmp_path,
                                                       manifest):
        """Cells cached before the store was attached must still land on
        disk — 'every completed evaluation is appended' has no cache
        exception."""
        cache = EvalCache()
        model, ds = FakeModel(), FakeDataset()
        SweepEngine(eval_cache=cache).sweep_noise(
            CountingEvaluator(), model, ds, "decoder")   # warm, no ledger
        ledger = RunStore(tmp_path).open_or_create(manifest, run_id="r")
        engine = SweepEngine(eval_cache=cache, ledger=ledger,
                             model_key="fake")
        ev = CountingEvaluator()
        engine.sweep_noise(ev, model, ds, "decoder")
        assert ev.calls == []                 # pure cache hits...
        assert ledger.counts()["ok"] == 4     # ...yet all persisted

    def test_dataset_without_streams_is_not_ledgered(self, tmp_path,
                                                     manifest):
        """No content digest means no stable cross-process identity: the
        sweep still runs, but nothing lands in the ledger (a per-process
        identity token could collide with a different dataset on resume)."""
        class StreamlessDataset:
            pass

        engine, ledger = self._engine(tmp_path, manifest)
        result = engine.sweep_noise(CountingEvaluator(), FakeModel(),
                                    StreamlessDataset(), "decoder")
        assert len(result.values) == 3 and result.errors == {}
        assert ledger.counts()["entries"] == 0

    def test_failures_recorded_as_structured_entries(self, tmp_path,
                                                     manifest):
        engine, ledger = self._engine(tmp_path, manifest)

        def flaky(model, ds, cfg):
            if cfg.decoder == "opencv":
                raise RuntimeError("transient decode crash")
            return metric_of(cfg)

        result = engine.sweep_noise(flaky, FakeModel(), FakeDataset(),
                                    "decoder")
        assert result.n_failed == 1 and not result.all_failed
        errors = [e for e in ledger.entries() if e["status"] == "error"]
        assert len(errors) == 1
        assert "transient decode crash" in errors[0]["error"]
        assert errors[0]["attempts"] == 1

    def test_retry_budget_recovers_flaky_cell(self, tmp_path, manifest):
        engine, ledger = self._engine(tmp_path, manifest, retries=1)
        strikes = []

        def flaky_once(model, ds, cfg):
            if cfg.decoder == "opencv" and not strikes:
                strikes.append(cfg)
                raise RuntimeError("one-off")
            return metric_of(cfg)

        result = engine.sweep_noise(flaky_once, FakeModel(), FakeDataset(),
                                    "decoder")
        assert result.errors == {}
        recovered = [e for e in ledger.entries()
                     if e["status"] == "ok" and e.get("attempts") == 2]
        assert len(recovered) == 1

    def test_resume_after_failure_fills_in_the_cell(self, tmp_path, manifest):
        engine, _ = self._engine(tmp_path, manifest)

        def broken(model, ds, cfg):
            if cfg.decoder == "opencv":
                raise RuntimeError("boom")
            return metric_of(cfg)

        first = engine.sweep_noise(broken, FakeModel(), FakeDataset(),
                                   "decoder")
        assert first.n_failed == 1
        ev = CountingEvaluator()
        engine2, ledger2 = self._engine(tmp_path, manifest)
        second = engine2.sweep_noise(ev, FakeModel(), FakeDataset(),
                                     "decoder")
        assert second.errors == {}
        assert len(ev.calls) == 1             # only the failed cell re-ran
        clean = SweepEngine(eval_cache=EvalCache()).sweep_noise(
            CountingEvaluator(), FakeModel(), FakeDataset(), "decoder")
        assert second.values == clean.values  # bit-identical result


class TestLedgerTable:
    def test_renders_complete_run(self, tmp_path, manifest):
        store = RunStore(tmp_path)
        ledger = store.open_or_create(manifest, run_id="r")
        engine = SweepEngine(eval_cache=EvalCache(), ledger=ledger,
                             model_key="fake")
        engine.noise_row(CountingEvaluator(), FakeModel(), FakeDataset(),
                         ["decoder", "precision"])
        text = ledger_table(store.open("r"))
        assert "fake" in text and "decoder" in text
        assert "!" not in text.split("\n", 2)[2]   # no failed cells

    def test_failed_and_missing_cells_render_bang(self, tmp_path, manifest):
        store = RunStore(tmp_path)
        ledger = store.open_or_create(manifest, run_id="r")
        engine = SweepEngine(eval_cache=EvalCache(), ledger=ledger,
                             model_key="fake")

        def broken(model, ds, cfg):
            if cfg.precision != "fp32":
                raise RuntimeError("quantizer exploded")
            return metric_of(cfg)

        engine.noise_row(broken, FakeModel(), FakeDataset(),
                         ["decoder", "precision"])
        text = ledger_table(store.open("r"))
        row_line = [l for l in text.splitlines() if l.startswith("fake")][0]
        assert "!" in row_line                 # precision column failed

    def test_entries_from_other_dataset_digest_ignored(self, tmp_path,
                                                       manifest):
        """A mis-resumed run that wrote entries against a different dataset
        must not have them spliced into the rendered table."""
        store = RunStore(tmp_path)
        ledger = store.open_or_create(manifest, run_id="r")

        def shifted(model, ds, cfg):
            return metric_of(cfg) + 1.0       # the *old* dataset's metrics

        old_engine = SweepEngine(eval_cache=EvalCache(), ledger=ledger,
                                 model_key="fake")
        old_engine.noise_row(shifted, FakeModel(),
                             FakeDataset((b"old-data",)),
                             ["decoder", "precision"])
        new_engine = SweepEngine(eval_cache=EvalCache(), ledger=ledger,
                                 model_key="fake")
        new_engine.noise_row(CountingEvaluator(), FakeModel(), FakeDataset(),
                             ["decoder", "precision"])
        text = ledger_table(store.open("r"))
        row_line = [l for l in text.splitlines() if l.startswith("fake")][0]
        assert "90.00" in row_line            # the latest dataset's baseline
        assert "91.00" not in row_line        # never the old one's
        assert "!" not in row_line            # and the row is complete

    def test_unregistered_noise_renders_failed_not_crash(self, tmp_path):
        """A run recorded with a custom noise must still report (as '!')
        in a process that never registered that noise."""
        manifest = run_manifest(task="cls", model="fake", seed=0,
                                noises=["decoder", "warpdrive"],
                                metric="ACC")
        store = RunStore(tmp_path)
        ledger = store.open_or_create(manifest, run_id="r")
        engine = SweepEngine(eval_cache=EvalCache(), ledger=ledger,
                             model_key="fake")
        engine.sweep_noise(CountingEvaluator(), FakeModel(), FakeDataset(),
                           "decoder")
        text = ledger_table(store.open("r"))
        row_line = [l for l in text.splitlines() if l.startswith("fake")][0]
        assert "!" in row_line                 # warpdrive column, not a crash

    def test_manifest_default_repr_roundtrip(self, tmp_path):
        manifest = run_manifest(task="cls", model="m", seed=0,
                                noises=["decoder"], metric="ACC",
                                odd=np.float64(3.5))
        ledger = RunLedger.create(tmp_path / "r", manifest)
        assert json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert ledger.manifest["task"] == "cls"


class TestLedgerSubscribe:
    def test_listener_sees_every_append(self, tmp_path, manifest):
        ledger = RunLedger.create(tmp_path / "r", manifest)
        seen = []
        ledger.subscribe(seen.append)
        ledger.record_eval("m", "ds", "c1", status="ok", value=1.0)
        ledger.record_eval("m", "ds", "c2", status="error", error="boom")
        assert [e["cfg"] for e in seen] == ["c1", "c2"]
        assert seen[0]["value"] == 1.0

    def test_unsubscribe_stops_delivery(self, tmp_path, manifest):
        ledger = RunLedger.create(tmp_path / "r", manifest)
        seen = []
        ledger.subscribe(seen.append)
        ledger.record_eval("m", "ds", "c1", status="ok", value=1.0)
        ledger.unsubscribe(seen.append)
        ledger.unsubscribe(seen.append)       # double-remove is a no-op
        ledger.record_eval("m", "ds", "c2", status="ok", value=2.0)
        assert len(seen) == 1

    def test_raising_listener_never_breaks_append(self, tmp_path, manifest):
        ledger = RunLedger.create(tmp_path / "r", manifest)

        def bad(entry):
            raise RuntimeError("listener bug")

        ledger.subscribe(bad)
        ledger.record_eval("m", "ds", "c", status="ok", value=1.0)
        assert ledger.lookup("m", "ds", "c")["value"] == 1.0

    def test_listener_may_reenter_ledger(self, tmp_path, manifest):
        """Listeners run outside the lock, so re-entrant reads can't
        deadlock (the serve event feed reads counts() from its listener)."""
        ledger = RunLedger.create(tmp_path / "r", manifest)
        counts = []
        ledger.subscribe(lambda e: counts.append(ledger.counts()["ok"]))
        ledger.record_eval("m", "ds", "c", status="ok", value=1.0)
        assert counts == [1]


class TestRunStatusReplay:
    """expected_cells / run_info / list_runs — status from the ledger alone."""

    def _expected(self, manifest):
        from repro.core import get_noise
        total = 1 + (1 if manifest["include_combined"] else 0)
        return total + sum(len(get_noise(n).variants())
                           for n in manifest["noises"]
                           if n not in set(manifest["skip"]))

    def test_expected_cells_counts_variants(self, manifest):
        from repro.core import expected_cells
        assert expected_cells(manifest) == self._expected(manifest)
        no_comb = dict(manifest, include_combined=False)
        assert expected_cells(no_comb) == expected_cells(manifest) - 1
        skipped = dict(manifest, skip=["precision"])
        assert expected_cells(skipped) < expected_cells(manifest)

    def test_expected_cells_unregistered_noise_is_unknowable(self, manifest):
        from repro.core import expected_cells
        assert expected_cells(dict(manifest, noises=["warpdrive"])) is None

    def test_run_info_status_ladder(self, tmp_path, manifest):
        from repro.core import expected_cells, run_info
        store = RunStore(tmp_path)
        ledger = store.create(manifest, run_id="r")
        assert run_info(ledger)["status"] == "pending"
        ledger.record_eval("m", "ds", "c0", status="ok", value=1.0)
        info = run_info(ledger)
        assert info["status"] == "partial" and info["ok"] == 1
        assert info["expected"] == expected_cells(manifest)
        for i in range(1, expected_cells(manifest)):
            ledger.record_eval("m", "ds", f"c{i}", status="ok", value=1.0)
        assert run_info(ledger)["status"] == "complete"
        ledger.record_eval("m", "ds", "cx", status="error", error="boom")
        assert run_info(ledger)["status"] == "failed"

    def test_run_info_survives_reopen(self, tmp_path, manifest):
        """The restart story: a fresh process replaying the same directory
        reports the same status (this is what `repro serve` recovery and
        `repro report --store` rely on)."""
        from repro.core import run_info
        store = RunStore(tmp_path)
        ledger = store.create(manifest, run_id="r")
        ledger.record_eval("m", "ds", "c0", status="ok", value=1.0)
        before = run_info(ledger)
        after = run_info(RunStore(tmp_path).open("r"))
        assert after == before and after["status"] == "partial"

    def test_list_runs_isolates_rotten_directories(self, tmp_path, manifest):
        store = RunStore(tmp_path)
        store.create(manifest, run_id="good")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text("{not json")
        listing = {info["run_id"]: info for info in store.list_runs()}
        assert listing["good"]["status"] == "pending"
        assert listing["bad"]["status"] == "unreadable"
        assert "error" in listing["bad"]


# ---------------------------------------------------------------------------
# Runs recorded before plan inference was removed
# ---------------------------------------------------------------------------

def tree_bytes(root) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestOldInferenceManifests:
    """The recorded ``0b52533-inference`` manifest carries ``"inference":
    "module"`` at the top level and in its ``cli`` block."""

    @staticmethod
    def install(store, manifest):
        (store / "r").mkdir(parents=True)
        (store / "r" / "manifest.json").write_text(json.dumps(manifest))

    @staticmethod
    def session(store=None, run_id=None):
        from repro.core import RunSpec
        spec = RunSpec.from_doc({"model": "mcunet-293kb", "n": 24,
                                 "epochs": 1, "batch_size": 8,
                                 "noises": ["resize", "precision"],
                                 "include_combined": False})
        return spec.to_session(store, run_id).fit(epochs=spec.epochs)

    def test_module_run_resumes_with_fresh_values(self, tmp_path,
                                                  recorded_manifest):
        self.install(tmp_path / "old", recorded_manifest("0b52533-inference"))
        first = self.session(tmp_path / "old", "r")
        first.run()
        resumed = self.session(tmp_path / "old", "r")
        before = resumed.ledger.counts()
        row = resumed.run().row()
        assert resumed.ledger.counts() == before    # every cell restored
        fresh = self.session(tmp_path / "fresh").run().row()
        assert row["trained"] == fresh["trained"]
        assert (row["noises"]["resize"].values
                == fresh["noises"]["resize"].values)

    def test_plan_run_is_refused_and_left_unchanged(self, tmp_path,
                                                    recorded_manifest):
        from repro.core import fsck_run
        manifest = recorded_manifest("0b52533-inference")
        self.install(tmp_path, manifest)
        self.session(tmp_path, "r").run()
        manifest["inference"] = manifest["cli"]["inference"] = "plan"
        (tmp_path / "r" / "manifest.json").write_text(json.dumps(manifest))
        run_dir = tmp_path / "r"
        before = tree_bytes(run_dir)
        with pytest.raises(ValueError, match="plan inference has been "
                                             "removed"):
            RunStore(tmp_path).open_or_create(
                RunStore(tmp_path).read_manifest("r"), run_id="r")
        session = self.session(tmp_path, "r")
        with pytest.raises(ValueError, match="inference='plan'"):
            session.run()
        assert tree_bytes(run_dir) == before
        assert fsck_run(run_dir)["ok"]
        assert RunStore(tmp_path).open("r").counts()["ok"] > 0
