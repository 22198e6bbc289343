"""Failure-injection tests: corrupted inputs must fail loudly, not silently.

SysNoise is *silent* degradation; the library's job is to make every other
failure mode *loud*.  These tests corrupt bitstreams, checkpoints, graphs,
and configuration values and assert a clear exception (never a wrong
answer).

The sweep layer is the exception to "loud": a full sweep is the
longest-running workload, so there one failing *cell* must degrade into a
structured failure (``!`` in the table, an error entry in the run ledger)
instead of aborting the row — and a killed process-mode sweep must resume
from its ledger to a bit-identical table.  ``TestSweepFaultIsolation``,
``TestCrashResume`` and ``TestProcessFleet`` (process-mode helpers on the
lease walk) cover that contract.
"""

import errno
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.nn as nn
from repro.core import (TRAIN_CONFIG, EvalCache, RunStore, SweepCancelled,
                        SweepEngine, preprocess, run_manifest)
from repro.image import decode_with, resize
from repro.image.color import color_roundtrip
from repro.image.jpeg import JpegBitstream, decode, encode

RNG = np.random.default_rng(0)
# A smooth gradient-plus-texture image: JPEG assumes spatial coherence, so
# pure random noise would measure codec worst-case loss instead of behaviour.
_ramp = np.linspace(0, 200, 24)
IMAGE = np.clip(
    _ramp[:, None, None] + _ramp[None, :, None] * 0.25
    + RNG.normal(0, 8, size=(24, 24, 3)), 0, 255).astype(np.uint8)


class TestCorruptBitstreams:
    def test_wrong_magic_rejected(self):
        raw = encode(IMAGE).tobytes()
        with pytest.raises(ValueError, match="not an RJPG"):
            JpegBitstream.frombytes(b"JUNK" + raw[4:])

    def test_truncated_payload_fails_loudly(self):
        raw = encode(IMAGE).tobytes()
        clipped = JpegBitstream.frombytes(raw[: len(raw) // 2])
        with pytest.raises((ValueError, IndexError)):
            decode(clipped)

    def test_bitflipped_payload_fails_or_stays_in_range(self):
        """Random corruption either raises or still yields valid uint8 pixels
        of the right shape — never silently returns garbage shapes/dtypes."""
        stream = encode(IMAGE)
        payload = bytearray(stream.payload)
        for pos in (3, len(payload) // 2, len(payload) - 2):
            payload[pos] ^= 0xFF
        corrupt = JpegBitstream(stream.height, stream.width, stream.quality,
                                stream.subsample, bytes(payload),
                                stream.n_blocks)
        try:
            out = decode(corrupt)
        except (ValueError, IndexError, KeyError):
            return
        assert out.shape == IMAGE.shape and out.dtype == np.uint8

    def test_unknown_decoder_persona(self):
        with pytest.raises(ValueError):
            decode_with(encode(IMAGE), "turbojpeg")

    def test_roundtrip_sanity_after_corruption_tests(self):
        """The happy path still holds (guards against test pollution)."""
        out = decode_with(encode(IMAGE, quality=95), "pil")
        assert np.abs(out.astype(int) - IMAGE.astype(int)).mean() < 12


class TestBadConfiguration:
    def test_unknown_resize_method(self):
        with pytest.raises(ValueError, match="choose from"):
            resize(IMAGE, (16, 16), "pillow-gaussian")

    def test_unknown_color_pipeline(self):
        with pytest.raises(ValueError, match="colour pipeline"):
            color_roundtrip(IMAGE, "nv21-integer")

    def test_preprocess_rejects_bad_config(self):
        cfg = TRAIN_CONFIG.with_(resize_method="no-such-kernel")
        with pytest.raises(ValueError):
            preprocess(IMAGE, 16, cfg)

    def test_noise_config_rejects_unknown_field(self):
        with pytest.raises(TypeError):
            TRAIN_CONFIG.with_(decoder_version=2)

    def test_unknown_model_and_lm_names(self):
        from repro.models import create_model
        from repro.nlp import create_lm
        with pytest.raises(ValueError, match="unknown model"):
            create_model("lenet-5")
        with pytest.raises(ValueError, match="unknown LM"):
            create_lm("opt-175b-turbo")


class TestCorruptArtifacts:
    def test_truncated_checkpoint(self, tmp_path):
        model = nn.Sequential(nn.Linear(4, 4))
        path = nn.save_checkpoint(model, tmp_path / "w.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(Exception):      # zipfile/np.load error surface
            nn.load_checkpoint(model, path)

    def test_checkpoint_with_extra_key(self, tmp_path):
        model = nn.Sequential(nn.Linear(4, 4))
        path = nn.save_checkpoint(model, tmp_path / "w.npz")
        with np.load(path) as data:
            blobs = dict(data)
        blobs["stowaway"] = np.ones(3)
        np.savez(path, **blobs)
        with pytest.raises(nn.CheckpointError, match="unexpected"):
            nn.load_checkpoint(model, path)

    def test_graph_with_tampered_json(self, tmp_path):
        from repro.backend import (GraphBuilder, GraphError, load_graph,
                                   save_graph)
        b = GraphBuilder("g")
        out = b.emit("relu", ["x"])
        path = save_graph(b.finish(out), tmp_path / "g.npz")
        with np.load(path) as data:
            blobs = {k: data[k] for k in data.files}
        doc = bytes(blobs["__graph_json__"]).decode()
        blobs["__graph_json__"] = np.frombuffer(
            doc.replace('"relu"', '"hcf"').encode(), dtype=np.uint8)
        np.savez(path, **blobs)
        with pytest.raises(GraphError, match="unknown op"):
            load_graph(path)


class TestNumericEdgeCases:
    def test_pipeline_handles_flat_images(self):
        """Constant-colour images (zero AC coefficients) survive the chain."""
        flat = np.full((24, 24, 3), 77, dtype=np.uint8)
        for persona in ("pil", "opencv", "ffmpeg", "dali"):
            out = decode_with(encode(flat), persona)
            assert np.abs(out.astype(int) - 77).max() <= 3
        assert color_roundtrip(flat).shape == flat.shape
        assert resize(flat, (7, 7), "cv-area").shape == (7, 7, 3)

    def test_quantizing_constant_tensor(self):
        from repro.nn.quant import compute_qparams, fake_quant
        x = np.zeros(16)
        qp = compute_qparams(x.min(), x.max())
        np.testing.assert_array_equal(fake_quant(x, qp), x)

    def test_resize_to_one_pixel(self):
        for method in ("pillow-bilinear", "cv-nearest", "cv-area"):
            out = resize(IMAGE, (1, 1), method)
            assert out.shape == (1, 1, 3)

    def test_upscale_then_downscale_identity_nearest(self):
        up = resize(IMAGE, (48, 48), "pillow-nearest")
        back = resize(up, (24, 24), "pillow-nearest")
        np.testing.assert_array_equal(back, IMAGE)


# ---------------------------------------------------------------------------
# Sweep-layer fault isolation + crash resume
# ---------------------------------------------------------------------------

class _Raw:
    def __init__(self, b):
        self._b = b

    def tobytes(self):
        return self._b


class _SweepDataset:
    """Picklable dataset stand-in with content-stable identity."""

    def __init__(self, payloads=(b"alpha", b"beta")):
        self.streams = [_Raw(p) for p in payloads]


class _SweepModel:
    """Picklable, weak-referenceable model stand-in."""


def _metric(cfg) -> float:
    return (90.0 - 2.0 * (cfg.decoder != "dali")
            - 1.0 * (cfg.resize_method != "pillow-bilinear")
            - 4.0 * (cfg.precision != "fp32"))


def _safe_eval(model, ds, cfg):
    return _metric(cfg)


def _raise_on_opencv(model, ds, cfg):
    if cfg.decoder == "opencv":
        raise RuntimeError("decoder backend segfault (simulated)")
    return _metric(cfg)


def _kill_worker_on_opencv(model, ds, cfg):
    """Simulates a worker dying mid-evaluation (OOM killer, segfault)."""
    if cfg.decoder == "opencv":
        os.kill(os.getpid(), signal.SIGKILL)
    return _metric(cfg)


class TestSweepFaultIsolation:
    def test_one_raising_variant_keeps_the_others(self):
        row = SweepEngine(eval_cache=EvalCache()).noise_row(
            _raise_on_opencv, _SweepModel(), _SweepDataset(),
            ["decoder", "precision"])
        decoder = row["noises"]["decoder"]
        assert decoder.n_failed == 1 and not decoder.all_failed
        survivors = [v for v in decoder.values if not np.isnan(v)]
        assert len(survivors) == 2            # pil + ffmpeg still measured
        assert not np.isnan(decoder.mean_delta)
        # The unaffected noise column is intact; the combined config stacks
        # the *worst* decoder variant (opencv) so it fails — as a recorded
        # NaN cell, not an aborted sweep.
        assert row["noises"]["precision"].errors == {}
        assert np.isnan(row["combined"])
        assert "segfault" in row["combined_error"]

    def test_every_variant_failing_yields_all_failed(self):
        def always(model, ds, cfg):
            raise ValueError("nothing works")

        result = SweepEngine(eval_cache=EvalCache()).sweep_noise(
            always, _SweepModel(), _SweepDataset(), "decoder", baseline=90.0)
        assert result.all_failed
        assert np.isnan(result.mean_delta)
        from repro.core import format_cell
        assert format_cell(result, multi=True) == "!"

    def test_partial_failure_renders_bang_suffix(self):
        result = SweepEngine(eval_cache=EvalCache()).sweep_noise(
            _raise_on_opencv, _SweepModel(), _SweepDataset(), "decoder",
            baseline=90.0)
        from repro.core import format_cell
        cell = format_cell(result, multi=True)
        assert cell.endswith("!") and cell != "!"

    def test_failing_combined_keeps_noise_columns(self):
        def no_combined(model, ds, cfg):
            if cfg.decoder != "dali" and cfg.precision != "fp32":
                raise RuntimeError("stacked config unsupported")
            return _metric(cfg)

        row = SweepEngine(eval_cache=EvalCache()).noise_row(
            no_combined, _SweepModel(), _SweepDataset(),
            ["decoder", "precision"])
        assert np.isnan(row["combined"])
        assert "stacked config unsupported" in row["combined_error"]
        assert row["noises"]["decoder"].errors == {}
        from repro.core import render_table
        text = render_table({"m": row}, ["decoder", "precision"], "ACC", "t")
        assert text.splitlines()[-1].rstrip().endswith("!")

    def test_worst_case_curve_survives_one_failure(self):
        # Raise only for the decoder-stage stacked config (opencv @ fp32);
        # the later precision point (opencv + int8) still evaluates, so one
        # failing point must not truncate the curve.
        def decoder_point_fails(model, ds, cfg):
            if cfg.decoder == "opencv" and cfg.precision == "fp32":
                raise RuntimeError("decoder backend segfault (simulated)")
            return _metric(cfg)

        curve = SweepEngine(eval_cache=EvalCache()).worst_case_curve(
            decoder_point_fails, _SweepModel(), _SweepDataset(),
            ["decoder", "precision"])
        deltas = dict(curve)
        assert np.isnan(deltas["decoder"])    # worst decoder variant raises
        assert not np.isnan(deltas["precision"])

    def test_thread_mode_isolation_matches_serial(self):
        serial = SweepEngine(eval_cache=EvalCache()).noise_row(
            _raise_on_opencv, _SweepModel(), _SweepDataset(), ["decoder"])
        threaded = SweepEngine(workers=4, eval_cache=EvalCache()).noise_row(
            _raise_on_opencv, _SweepModel(), _SweepDataset(), ["decoder"])
        assert serial["noises"]["decoder"].errors.keys() \
            == threaded["noises"]["decoder"].errors.keys()
        np.testing.assert_array_equal(serial["noises"]["decoder"].values,
                                      threaded["noises"]["decoder"].values)

    def test_baseline_failure_is_strict(self):
        def broken_baseline(model, ds, cfg):
            raise RuntimeError("cannot even decode cleanly")

        with pytest.raises(RuntimeError, match="cannot even decode"):
            SweepEngine(eval_cache=EvalCache()).noise_row(
                broken_baseline, _SweepModel(), _SweepDataset(), ["decoder"])


class TestCrashResume:
    """A killed process-mode sweep must resume to an identical table."""

    def _manifest(self):
        return run_manifest(task="cls", model="fake", seed=0,
                            noises=["decoder", "precision"], metric="ACC")

    def test_worker_crash_is_isolated_and_resumable(self, tmp_path,
                                                    monkeypatch):
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        store = RunStore(tmp_path)
        ledger = store.open_or_create(self._manifest(), run_id="crash")
        engine = SweepEngine(workers=2, eval_cache=EvalCache(),
                             mode="process", ledger=ledger,
                             model_key="fake")
        # The sweep survives a SIGKILLed worker: no exception, a row comes
        # back, and the cells that completed before the crash are on disk.
        row = engine.noise_row(_kill_worker_on_opencv, _SweepModel(),
                               _SweepDataset(), ["decoder", "precision"])
        assert row["trained"] == _metric(TRAIN_CONFIG)
        counts = ledger.counts()
        assert counts["ok"] >= 1              # at least the baseline landed
        assert counts["error"] >= 1           # the crash was recorded
        opencv_idx = 1                        # decoder variants: pil, opencv, ffmpeg
        assert opencv_idx in row["noises"]["decoder"].errors

        # Resume with a healthy evaluator (the "transient crash" cleared):
        # only the not-yet-complete cells re-execute, and the final table is
        # bit-identical to an uninterrupted serial run.
        before = store.open("crash").counts()
        resumed_engine = SweepEngine(eval_cache=EvalCache(),
                                     ledger=store.open("crash"),
                                     model_key="fake")
        calls = []

        def counting_safe(model, ds, cfg):
            calls.append(cfg)
            return _metric(cfg)

        resumed = resumed_engine.noise_row(counting_safe, _SweepModel(),
                                           _SweepDataset(),
                                           ["decoder", "precision"])
        total_cells = 7                       # baseline + 3 + 2 + combined
        assert len(calls) == total_cells - before["ok"]   # <= the remainder
        clean = SweepEngine(eval_cache=EvalCache()).noise_row(
            _safe_eval, _SweepModel(), _SweepDataset(),
            ["decoder", "precision"])
        assert resumed["trained"] == clean["trained"]
        assert resumed["combined"] == clean["combined"]
        for name in ("decoder", "precision"):
            assert (resumed["noises"][name].values
                    == clean["noises"][name].values)
            assert resumed["noises"][name].errors == {}

    def test_process_retry_budget_reruns_crashed_batch(self, tmp_path,
                                                       monkeypatch):
        """A transient crash is healed *within* one sweep when the retry
        budget allows a fresh pool generation."""
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        flag = tmp_path / "crashed-once"

        # Module-level so it pickles by reference into workers.
        global _crash_once_flag
        _crash_once_flag = str(flag)

        engine = SweepEngine(workers=2, eval_cache=EvalCache(),
                             mode="process", retries=1)
        result = engine.sweep_noise(_kill_worker_once, _SweepModel(),
                                    _SweepDataset(), "decoder")
        assert result.errors == {}
        assert result.values == [
            _metric(TRAIN_CONFIG.with_(decoder=d))
            for d in ("pil", "opencv", "ffmpeg")]


#: Path sentinel for _kill_worker_once (set per-test; workers inherit via fork).
_crash_once_flag = None


def _kill_worker_once(model, ds, cfg):
    if cfg.decoder == "opencv" and _crash_once_flag is not None:
        if not os.path.exists(_crash_once_flag):
            with open(_crash_once_flag, "w") as fh:
                fh.write("x")
            os.kill(os.getpid(), signal.SIGKILL)
    return _metric(cfg)


def _slow_eval(model, ds, cfg):
    if cfg != TRAIN_CONFIG:
        time.sleep(2.0)
    return _metric(cfg)


#: Directory _pid_eval logs helper pids into (set per test; helpers
#: inherit it via fork).
_pid_dir = None


def _pid_eval(model, ds, cfg):
    Path(_pid_dir, str(os.getpid())).touch()
    return _metric(cfg)


class TestProcessFleet:
    """``mode="process"``: helpers on the shared lease walk, supervised."""

    NOISES = ["decoder", "precision"]

    @pytest.fixture(autouse=True)
    def two_cores_private_tmp(self, tmp_path, monkeypatch):
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        self.scratch = scratch

    def _engine(self, **kw):
        return SweepEngine(workers=2, eval_cache=EvalCache(),
                           mode="process", **kw)

    def test_raising_cell_error_text_equals_serial(self):
        serial = SweepEngine(eval_cache=EvalCache()).noise_row(
            _raise_on_opencv, _SweepModel(), _SweepDataset(), self.NOISES)
        proc = self._engine().noise_row(
            _raise_on_opencv, _SweepModel(), _SweepDataset(), self.NOISES)
        assert proc["noises"]["decoder"].errors == {
            1: "RuntimeError: decoder backend segfault (simulated)"}
        for name in self.NOISES:
            assert (proc["noises"][name].errors
                    == serial["noises"][name].errors)
        assert proc["combined_error"] == serial["combined_error"]

    def test_storeless_sweep_runs_in_helpers_and_leaves_no_scratch(
            self, tmp_path):
        global _pid_dir
        _pid_dir = str(tmp_path / "pids")
        os.mkdir(_pid_dir)
        row = self._engine().noise_row(_pid_eval, _SweepModel(),
                                       _SweepDataset(), self.NOISES)
        clean = SweepEngine(eval_cache=EvalCache()).noise_row(
            _safe_eval, _SweepModel(), _SweepDataset(), self.NOISES)
        for name in self.NOISES:
            assert row["noises"][name].values == clean["noises"][name].values
        pids = {int(p) for p in os.listdir(_pid_dir)}
        assert pids - {os.getpid()}             # cells ran in helpers
        assert list(self.scratch.iterdir()) == []

    def test_cells_landing_as_the_last_helper_exits_are_read(
            self, monkeypatch):
        import multiprocessing.connection as connection
        real_wait = connection.wait

        def wait_for_every_helper(objects, timeout=None):
            for obj in objects:                 # all exit before the check
                real_wait([obj])
            return objects

        monkeypatch.setattr(connection, "wait", wait_for_every_helper)
        row = self._engine().noise_row(_safe_eval, _SweepModel(),
                                       _SweepDataset(), self.NOISES)
        clean = SweepEngine(eval_cache=EvalCache()).noise_row(
            _safe_eval, _SweepModel(), _SweepDataset(), self.NOISES)
        for name in self.NOISES:
            assert row["noises"][name].errors == {}
            assert row["noises"][name].values == clean["noises"][name].values

    def test_should_stop_leaves_no_helper_and_no_scratch(self):
        polls = []

        def should_stop():
            polls.append(time.monotonic())
            return len(polls) >= 3              # baseline, then 2 polls in

        engine = self._engine(should_stop=should_stop)
        started = time.monotonic()
        with pytest.raises(SweepCancelled):
            engine.noise_row(_slow_eval, _SweepModel(), _SweepDataset(),
                             self.NOISES)
        assert time.monotonic() - started < 2.0   # mid-cell, not after it
        assert multiprocessing.active_children() == []
        assert list(self.scratch.glob("repro-sweep-*")) == []

    def test_dead_helper_leases_are_freed_well_under_lease_ttl(
            self, tmp_path):
        store = RunStore(tmp_path / "runs")
        ledger = store.open_or_create(TestCrashResume()._manifest(),
                                      run_id="crash")
        engine = self._engine(ledger=ledger, model_key="fake")
        started = time.monotonic()
        row = engine.noise_row(_kill_worker_on_opencv, _SweepModel(),
                               _SweepDataset(), self.NOISES)
        assert time.monotonic() - started < engine.lease_ttl / 3
        assert "poisoned" in row["noises"]["decoder"].errors[1]
        # No lease state of the sweep is left in the run directory.
        assert not (ledger.path / "leases").exists()

    def test_process_resume_reruns_cells_that_failed_before(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        ledger = store.open_or_create(TestCrashResume()._manifest(),
                                      run_id="flaky")
        first = SweepEngine(eval_cache=EvalCache(), ledger=ledger,
                            model_key="fake").noise_row(
            _raise_on_opencv, _SweepModel(), _SweepDataset(), self.NOISES)
        assert first["noises"]["decoder"].errors and first["combined_error"]
        resumed = self._engine(ledger=store.open("flaky"),
                               model_key="fake").noise_row(
            _safe_eval, _SweepModel(), _SweepDataset(), self.NOISES)
        clean = SweepEngine(eval_cache=EvalCache()).noise_row(
            _safe_eval, _SweepModel(), _SweepDataset(), self.NOISES)
        for name in self.NOISES:
            assert resumed["noises"][name].errors == {}
            assert (resumed["noises"][name].values
                    == clean["noises"][name].values)
        assert "combined_error" not in resumed
        assert resumed["combined"] == clean["combined"]

    @pytest.mark.parametrize("failing", ["ledger", "leases"])
    def test_unwritable_storage_computes_the_rest_without_restarts(
            self, failing, tmp_path, monkeypatch):
        from repro.core.runstore import RunLedger
        from repro.core.workqueue import WorkQueue
        real_record, real_claim = RunLedger.record_eval, WorkQueue.try_claim
        claims = []                             # per process after the fork

        def ledger_full(self, *args, **kw):
            if kw.get("noise") != "baseline":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_record(self, *args, **kw)

        def leases_full_after_one_claim(self, *args, **kw):
            claims.append(args)
            if len(claims) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_claim(self, *args, **kw)

        if failing == "ledger":
            monkeypatch.setattr(RunLedger, "record_eval", ledger_full)
        else:                                   # only helpers claim
            monkeypatch.setattr(WorkQueue, "try_claim",
                                leases_full_after_one_claim)
        global _pid_dir
        _pid_dir = str(tmp_path / "pids")
        os.mkdir(_pid_dir)
        store = RunStore(tmp_path / "runs")
        ledger = store.open_or_create(TestCrashResume()._manifest(),
                                      run_id="full")
        engine = self._engine(ledger=ledger, model_key="fake")
        row = engine.noise_row(_pid_eval, _SweepModel(), _SweepDataset(),
                               self.NOISES)
        clean = SweepEngine(eval_cache=EvalCache()).noise_row(
            _safe_eval, _SweepModel(), _SweepDataset(), self.NOISES)
        for name in self.NOISES:
            assert row["noises"][name].errors == {}
            assert row["noises"][name].values == clean["noises"][name].values
        assert row["combined"] == clean["combined"]
        helpers = {int(p) for p in os.listdir(_pid_dir)} - {os.getpid()}
        assert len(helpers) <= 2                # none was restarted
        if failing == "leases":                 # the parent ledgered the rest
            assert store.open("full").counts()["ok"] == 7

    def test_storeless_sweep_without_a_scratch_dir_uses_threads(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        row = self._engine().noise_row(_safe_eval, _SweepModel(),
                                       _SweepDataset(), self.NOISES)
        clean = SweepEngine(eval_cache=EvalCache()).noise_row(
            _safe_eval, _SweepModel(), _SweepDataset(), self.NOISES)
        for name in self.NOISES:
            assert row["noises"][name].errors == {}
            assert row["noises"][name].values == clean["noises"][name].values

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads helper states from /proc")
    def test_helpers_of_a_killed_sweep_stop_at_their_next_cell(
            self, tmp_path):
        global _pid_dir
        _pid_dir = str(tmp_path / "pids")
        os.mkdir(_pid_dir)
        ledger = RunStore(tmp_path / "runs").open_or_create(
            TestCrashResume()._manifest(), run_id="orphan")
        sweep = multiprocessing.get_context("fork").Process(
            target=_orphaned_sweep, args=(str(ledger.path),))
        sweep.start()
        deadline = time.monotonic() + 60
        while len(os.listdir(_pid_dir)) < 2:    # both helpers are mid-cell
            assert sweep.exitcode is None and time.monotonic() < deadline
            time.sleep(0.02)
        os.kill(sweep.pid, signal.SIGKILL)      # the sweep process only
        sweep.join()
        helpers = [int(p) for p in os.listdir(_pid_dir)]
        deadline = time.monotonic() + 10
        while not all(_exited(pid) for pid in helpers):
            assert time.monotonic() < deadline, "orphaned helpers kept going"
            time.sleep(0.05)
        landed = _ok_evals(ledger.path / "ledger.jsonl")
        assert landed < 7                       # 1 + 3 + 2 + combined
        time.sleep(1.5)                         # longer than one cell
        assert _ok_evals(ledger.path / "ledger.jsonl") == landed

    def test_whole_run_sigkill_then_resume_quarantines_nothing(
            self, tmp_path):
        args = ["--model", "mcunet-293kb", "--n", "24", "--epochs", "1",
                "--seed", "0", "--noises", "decoder,precision",
                "--store", str(tmp_path / "runs")]
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, TMPDIR=str(self.scratch),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("REPRO_FAULTS", None)

        def repro_cli(*argv, **kw):
            return subprocess.run([sys.executable, "-m", "repro", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=300, **kw)

        ref = repro_cli("run", *args, "--run-id", "ref")
        assert ref.returncode == 0, ref.stderr
        ledger = tmp_path / "runs" / "killed" / "ledger.jsonl"
        slow = [{"point": "sweep.cell", "op": "sleep", "seconds": 0.5,
                 "at": 1, "every": 1}]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", *args, "--run-id",
             "killed", "--workers", "2", "--mode", "process"],
            env=dict(env, REPRO_FAULTS=json.dumps(slow)),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 300
            while _ok_evals(ledger) < 2:        # the baseline and one cell
                assert proc.poll() is None, "run ended before the kill"
                assert time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert _ok_evals(ledger) < 8            # 1 + 3 + 2 + combined + 1
        resumed = repro_cli("resume", "killed", "--store",
                            str(tmp_path / "runs"))
        assert resumed.returncode == 0, resumed.stderr
        assert _table(resumed.stdout) == _table(ref.stdout)
        entries = [json.loads(line) for line in
                   ledger.read_text().splitlines() if line.strip()]
        assert [e for e in entries if e.get("status") == "error"] == []
        assert not (ledger.parent / "leases").exists()


def _slow_pid_eval(model, ds, cfg):
    if cfg != TRAIN_CONFIG:
        Path(_pid_dir, str(os.getpid())).touch()
        time.sleep(1.0)
    return _metric(cfg)


def _orphaned_sweep(ledger_path: str) -> None:
    from repro.core.runstore import RunLedger
    SweepEngine(workers=2, eval_cache=EvalCache(), mode="process",
                ledger=RunLedger(ledger_path), model_key="fake").noise_row(
        _slow_pid_eval, _SweepModel(), _SweepDataset(),
        TestProcessFleet.NOISES)


def _exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie (its new parent may not reap
    it)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def _ok_evals(ledger: Path) -> int:
    try:
        text = ledger.read_text()
    except FileNotFoundError:
        return 0
    n = 0
    for line in text.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        n += entry.get("kind") == "eval" and entry.get("status") == "ok"
    return n


def _table(output: str) -> list[str]:
    """The rendered table (header, rule, row) minus its run-specific title
    line."""
    lines = output.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("Architecture"))
    return [line.rstrip() for line in lines[start:start + 3]]
