"""CLI tests: every command via repro.cli.main with captured stdout."""

import json
import shutil
import time

import numpy as np
import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        for cmd in ("list-noises", "sweep", "backend-diff", "report"):
            assert cmd in out


class TestListCommands:
    def test_list_noises(self, capsys):
        code, out = run_cli(capsys, "list-noises")
        assert code == 0
        for noise in ("decoder", "resize", "ceil_mode", "proposal"):
            assert noise in out

    def test_list_noises_variants(self, capsys):
        code, out = run_cli(capsys, "list-noises", "--variants")
        assert code == 0
        assert "deployment variants" in out
        assert "cv-nearest" in out

    def test_list_models(self, capsys):
        code, out = run_cli(capsys, "list-models")
        assert code == 0
        assert "resnet-50" in out and "swin-base" in out
        assert out.count("\n") >= 26          # all zoo rows + header

    def test_list_models_params_sorted_by_capacity(self, capsys):
        code, out = run_cli(capsys, "list-models", "--params")
        assert code == 0
        rows = {line.split()[0]: int(line.split()[-1])
                for line in out.splitlines()[2:]}
        assert rows["resnet-50"] > rows["resnet18x0.25"]

    def test_list_backends(self, capsys):
        code, out = run_cli(capsys, "list-backends")
        assert code == 0
        for preset in ("reference", "gpu-fp16", "dsp", "npu-bilinear"):
            assert preset in out
        assert "fuse_conv_bn" in out


class TestBackendDiff:
    def test_diff_report_printed(self, capsys):
        code, out = run_cli(capsys, "backend-diff", "--model", "resnet18x0.25",
                            "--backend", "gpu-fp16", "--batch", "2", "--top", "3")
        assert code == 0
        assert "worst by relative error" in out

    def test_reference_vs_reference_rejected(self, capsys):
        code, out = run_cli(capsys, "backend-diff", "--backend", "reference")
        assert code == 2
        assert "error" in out

    def test_unknown_backend_rejected(self, capsys):
        code, out = run_cli(capsys, "backend-diff", "--backend", "fpga")
        assert code == 2

    def test_vit_diff_supported(self, capsys):
        """Transformers export too — attention softmax is diffable."""
        code, out = run_cli(capsys, "backend-diff", "--model", "vit-tiny",
                            "--backend", "dsp", "--batch", "2")
        assert code == 0
        assert "softmax" in out or "worst by relative error" in out

    def test_unknown_model_graceful(self, capsys):
        code, out = run_cli(capsys, "backend-diff", "--model", "alexnet-9000")
        assert code == 2
        assert "error" in out


class TestVisualize:
    def test_heatmaps_printed(self, capsys):
        code, out = run_cli(capsys, "visualize")
        assert code == 0
        for panel in ("decode", "resize", "color", "int8"):
            assert f"== {panel} ==" in out

    def test_panels_saved(self, capsys, tmp_path):
        code, out = run_cli(capsys, "visualize", "--out", str(tmp_path / "p"))
        assert code == 0
        saved = sorted(f.name for f in (tmp_path / "p").glob("*.npy"))
        assert saved == ["color.npy", "decode.npy", "int8.npy", "resize.npy"]
        panel = np.load(tmp_path / "p" / "resize.npy")
        assert panel.dtype == np.uint8


class TestReport:
    def test_missing_results_dir(self, capsys, tmp_path):
        code, out = run_cli(capsys, "report", "--results", str(tmp_path))
        assert code == 2
        assert "error" in out

    def test_tables_ordered_and_concatenated(self, capsys, tmp_path):
        for stem in ("table10_z", "table2_b", "table1_a", "fig3_c", "ablation_x"):
            (tmp_path / f"{stem}.txt").write_text(f"body of {stem}")
        code, out = run_cli(capsys, "report", "--results", str(tmp_path))
        assert code == 0
        order = [line[3:] for line in out.splitlines() if line.startswith("## ")]
        assert order == ["table1_a", "table2_b", "table10_z", "fig3_c",
                         "ablation_x"]

    def test_report_to_file(self, capsys, tmp_path):
        (tmp_path / "table1_a.txt").write_text("hello")
        out_file = tmp_path / "combined.md"
        code, out = run_cli(capsys, "report", "--results", str(tmp_path),
                            "--out", str(out_file))
        assert code == 0
        assert "hello" in out_file.read_text()


class TestSweep:
    """End-to-end sweep at the smallest viable scale (slow-ish but real)."""

    def test_bad_noise_rejected(self, capsys):
        code, out = run_cli(capsys, "sweep", "--noises", "gamma-rays",
                            "--n", "8", "--epochs", "1")
        assert code == 2
        assert "unknown classification noise" in out

    def test_sweep_prints_table(self, capsys):
        code, out = run_cli(capsys, "sweep", "--model", "mcunet-293kb",
                            "--n", "40", "--epochs", "2",
                            "--noises", "color", "--no-combined")
        assert code == 0
        assert "SysNoise sweep" in out
        assert "mcunet-293kb" in out

    def test_worst_case_prints_curve(self, capsys, tmp_path):
        """The CLI curve stacks the noises a served ``worst_case`` job with
        the same spec stacks: ceil-mode only on models with a max-pool."""
        from repro.serve import JobManager
        manager = JobManager(tmp_path)
        manager.start()
        try:
            for model, has_maxpool in (("mcunet-293kb", False),
                                       ("resnet18x0.25", True)):
                code, out = run_cli(capsys, "worst-case", "--model", model,
                                    "--n", "40", "--epochs", "1")
                assert code == 0
                assert "cumulative" in out
                labels = curve_labels(out)
                assert ("+ceil_mode" in labels) == has_maxpool
                job, _ = manager.submit({"kind": "worst_case", "model": model,
                                         "n": 40, "epochs": 1})
                deadline = time.time() + 120
                while not job.terminal and time.time() < deadline:
                    time.sleep(0.05)
                assert job.status == "completed", job.error
                assert curve_labels(job.table) == labels
        finally:
            manager.shutdown()


def curve_labels(text: str) -> list[str]:
    return [line.split()[0] for line in text.splitlines()
            if line.startswith("  +")]


class TestExport:
    def test_export_writes_graph(self, capsys, tmp_path):
        out = tmp_path / "model.npz"
        code, text = run_cli(capsys, "export", "--model", "resnet18x0.25",
                             "--out", str(out))
        assert code == 0 and out.exists()
        from repro.backend import load_graph
        graph = load_graph(out)
        assert len(graph.nodes) > 10

    def test_export_optimized_is_smaller(self, capsys, tmp_path):
        from repro.backend import load_graph
        plain, opt = tmp_path / "a.npz", tmp_path / "b.npz"
        run_cli(capsys, "export", "--model", "resnet18x0.25",
                "--out", str(plain))
        run_cli(capsys, "export", "--model", "resnet18x0.25",
                "--out", str(opt), "--optimize")
        assert len(load_graph(opt).nodes) < len(load_graph(plain).nodes)

    def test_export_with_checkpoint(self, capsys, tmp_path):
        from repro.backend import load_graph
        from repro.models import create_model
        from repro.nn import save_checkpoint
        model = create_model("resnet18x0.25", seed=7)
        for p in model.parameters():
            p.data[...] = 0.125
        ckpt = save_checkpoint(model, tmp_path / "w.npz")
        out = tmp_path / "g.npz"
        code, _ = run_cli(capsys, "export", "--model", "resnet18x0.25",
                          "--out", str(out), "--checkpoint", str(ckpt))
        assert code == 0
        graph = load_graph(out)
        conv_w = next(v for k, v in graph.initializers.items()
                      if k.endswith("stem.0.weight"))
        assert np.all(conv_w == 0.125)

    def test_export_missing_checkpoint_graceful(self, capsys, tmp_path):
        code, out = run_cli(capsys, "export", "--model", "resnet18x0.25",
                            "--out", str(tmp_path / "g.npz"),
                            "--checkpoint", str(tmp_path / "nope.npz"))
        assert code == 2 and "error" in out


class TestInteraction:
    def test_unknown_noise_rejected(self, capsys):
        code, out = run_cli(capsys, "interaction", "--noises", "tachyons",
                            "--n", "8", "--epochs", "1")
        assert code == 2
        assert "unknown noise" in out

    def test_interaction_matrix_printed(self, capsys):
        code, out = run_cli(capsys, "interaction", "--model", "mcunet-293kb",
                            "--n", "40", "--epochs", "2",
                            "--noises", "decoder,color")
        assert code == 0
        assert "pairwise" in out and "strongest" in out


class TestProfile:
    def test_profile_printed(self, capsys):
        code, out = run_cli(capsys, "profile", "--model", "resnet18x0.25",
                            "--top", "4")
        assert code == 0
        assert "MFLOPs" in out and "conv2d" in out

    def test_profile_with_shapes(self, capsys):
        code, out = run_cli(capsys, "profile", "--model", "vit-tiny",
                            "--shapes")
        assert code == 0
        assert "(N, 3, 32, 32)" in out

    def test_profile_with_timing(self, capsys):
        code, out = run_cli(capsys, "profile", "--model", "mcunet-293kb",
                            "--time")
        assert code == 0
        assert "ms/sample" in out

    def test_profile_unknown_model(self, capsys):
        code, out = run_cli(capsys, "profile", "--model", "gpt-7")
        assert code == 2 and "error" in out


class TestExportInt8:
    def test_export_int8_inserts_qdq(self, capsys, tmp_path):
        from repro.backend import load_graph
        out = tmp_path / "q.npz"
        code, _ = run_cli(capsys, "export", "--model", "resnet18x0.25",
                          "--out", str(out), "--optimize", "--int8")
        assert code == 0
        graph = load_graph(out)
        assert any(n.op == "quantize_linear" for n in graph.nodes)
        assert graph.name.endswith(".int8")

    def test_export_int8_counts_only_live_weights(self, capsys, tmp_path):
        """Each float weight's INT8 copy replaces it: the count is the
        model's own (mcunet-293kb has 1254 parameters)."""
        code, out = run_cli(capsys, "export", "--model", "mcunet-293kb",
                            "--out", str(tmp_path / "q.npz"), "--int8")
        assert code == 0
        assert "1254 params" in out


# ---------------------------------------------------------------------------
# repro run: validation and run identity
# ---------------------------------------------------------------------------

RUN_ARGS = ("--run-id", "r", "--model", "mcunet-293kb", "--n", "24",
            "--epochs", "1", "--noises", "resize,precision", "--no-combined")


def tree_bytes(root) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestRunSpecValidation:
    @pytest.mark.parametrize("flag, value, message", [
        ("--n", "0", "n must be in [8, 100000], got 0"),
        ("--train-frac", "1.5", "train_frac must be in [0.1, 0.95], got 1.5"),
        ("--epochs", "0", "epochs must be in [1, 10000], got 0"),
        ("--batch-size", "0", "batch_size must be in [1, 4096], got 0"),
        ("--model", "nope", "unknown model 'nope' (see GET /v1/tasks or "
                            "`repro list-models`)"),
        ("--retries", "-1", "retries must be in [0, 16], got -1"),
    ])
    def test_bad_values_exit_2_before_any_work(self, capsys, tmp_path, flag,
                                               value, message):
        """The CLI refuses what the server answers 400 to, with the same
        text, before it creates a run directory or trains anything."""
        store = tmp_path / "store"
        code, out = run_cli(capsys, "run", "--store", str(store), *RUN_ARGS,
                            flag, value)
        assert (code, out) == (2, f"error: {message}\n")
        assert not store.exists()
        if flag != "--retries":                  # run's own flag
            for command in ("sweep", "worst-case"):
                code, out = run_cli(capsys, command, *RUN_ARGS[2:4],
                                    flag, value)
                assert (code, out) == (2, f"error: {message}\n")

    def test_epochs_is_run_identity(self, capsys, tmp_path):
        assert run_cli(capsys, "run", "--store", str(tmp_path), *RUN_ARGS,
                       "--prepare-only")[0] == 0
        before = tree_bytes(tmp_path)
        code, out = run_cli(capsys, "run", "--store", str(tmp_path),
                            *RUN_ARGS, "--epochs", "3")
        assert code == 2
        assert out.startswith("error:")
        assert "manifest mismatch on ['epochs']" in out
        assert tree_bytes(tmp_path) == before

    def test_resume_and_worker_overrides_are_validated(self, capsys,
                                                       tmp_path):
        assert run_cli(capsys, "run", "--store", str(tmp_path), *RUN_ARGS,
                       "--prepare-only")[0] == 0
        before = tree_bytes(tmp_path)
        for argv in (("resume", "r", "--retries", "-1"),
                     ("resume", "r", "--workers", "0"),
                     ("worker", "r", "--retries", "17")):
            code, out = run_cli(capsys, *argv, "--store", str(tmp_path))
            assert code == 2 and out.startswith("error: run 'r': ")
            assert f"{argv[2][2:]} must be in" in out
        assert tree_bytes(tmp_path) == before

    def test_resume_restates_mitigations_in_any_order(self, capsys,
                                                      tmp_path):
        assert run_cli(capsys, "run", "--store", str(tmp_path), *RUN_ARGS,
                       "--mitigate", "tent", "--mitigate", "tent:steps=2",
                       "--prepare-only")[0] == 0
        code, out = run_cli(capsys, "resume", "r", "--store", str(tmp_path),
                            "--mitigate", "tent")
        assert code == 2 and "a different mitigation set" in out
        code, out = run_cli(capsys, "resume", "r", "--store", str(tmp_path),
                            "--mitigate", "tent:steps=2", "--mitigate",
                            "tent:steps=1")
        assert code == 0, out

    def test_run_without_a_spec_is_refused(self, capsys, tmp_path,
                                           recorded_manifest):
        """Fluent-API runs record no spec; out-of-range recorded values
        name their field.  Both commands exit 2 and touch nothing."""
        from repro.core import RunStore, run_manifest
        store = RunStore(tmp_path)
        store.create(run_manifest(task="cls", model="mcunet-293kb", seed=0,
                                  noises=["color"]), "fluent")
        bad = recorded_manifest("3e12727-cli")
        bad["cli"]["fit"]["epochs"] = 0
        store.create(bad, "zero-epochs")
        before = tree_bytes(tmp_path)
        for command in ("resume", "worker"):
            code, out = run_cli(capsys, command, "fluent", "--store",
                                str(tmp_path))
            assert code == 2 and out.startswith("error: run 'fluent'")
            assert "records no run spec" in out
            code, out = run_cli(capsys, command, "zero-epochs", "--store",
                                str(tmp_path))
            assert code == 2
            assert "epochs must be in [1, 10000], got 0" in out
        assert tree_bytes(tmp_path) == before


# ---------------------------------------------------------------------------
# Run directories recorded by older trees (tests/fixtures/manifests)
# ---------------------------------------------------------------------------

#: The flags each recorded manifest's run was started with.
RECORDED_ARGS = {
    "5e8166d-ledger": RUN_ARGS,
    "fe0bc57-shards": RUN_ARGS + ("--batch-size", "4", "--shard-size", "8"),
    "a32abe1-tent": RUN_ARGS + ("--mitigate", "tent"),
    "0b52533-inference": RUN_ARGS + ("--batch-size", "8"),
    "3e12727-cli": RUN_ARGS + ("--batch-size", "8", "--shard-size", "8",
                               "--workers", "2", "--retries", "1"),
    "3e12727-serve": ("--run-id", "r", "--model", "mcunet-293kb", "--n", "16",
                      "--epochs", "1", "--noises", "color", "--no-combined"),
}


def ledger_values(store) -> dict:
    from repro.core import RunStore
    return {(e["model"], e["dataset"], e["cfg"]): e["value"]
            for e in RunStore(store).open("r").entries()
            if e["kind"] == "eval" and e["status"] == "ok"}


def install_recorded(capsys, tmp_path, manifest, args):
    """A fresh ``repro run`` of ``args``, and run ``r`` of store
    ``tmp_path/old`` holding ``manifest`` plus the fresh run's weights
    (their digests depend on the host's BLAS)."""
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert run_cli(capsys, "run", "--store", str(fresh), *args)[0] == 0
    checkpoints = json.loads((fresh / "r" / "manifest.json").read_text())[
        "checkpoints"]
    (old / "r").mkdir(parents=True)
    shutil.copy(fresh / "r" / "weights.npz", old / "r")
    (old / "r" / "manifest.json").write_text(
        json.dumps({**manifest, "checkpoints": checkpoints}, indent=2))
    return fresh, old


def finish_recorded(capsys, tmp_path, manifest, args):
    """``resume`` and ``worker`` each finish a copy of the recorded run
    with the ledger values of a fresh run."""
    fresh, old = install_recorded(capsys, tmp_path, manifest, args)
    for command in ("worker", "resume"):
        store = tmp_path / command
        shutil.copytree(old, store)
        code, out = run_cli(capsys, command, "r", "--store", str(store))
        assert code == 0, out
        values = ledger_values(store)
        assert values and values == ledger_values(fresh)


class TestOldRunManifests:
    @pytest.mark.parametrize("name", [n for n in sorted(RECORDED_ARGS)
                                      if n != "0b52533-inference"])
    def test_recorded_run_resumes_and_takes_workers(self, capsys, tmp_path,
                                                    recorded_manifest, name):
        finish_recorded(capsys, tmp_path, recorded_manifest(name),
                        RECORDED_ARGS[name])

    def test_module_run_resumes_and_takes_workers(self, capsys, tmp_path,
                                                  recorded_manifest):
        """Runs recorded with ``"inference": "module"``."""
        name = "0b52533-inference"
        finish_recorded(capsys, tmp_path, recorded_manifest(name),
                        RECORDED_ARGS[name])

    def test_plan_run_is_refused_by_resume_and_worker(self, capsys, tmp_path,
                                                       recorded_manifest):
        """Plan cells were computed on another substrate: both commands
        refuse the run, touch nothing, and fsck and report still read it."""
        name = "0b52533-inference"
        manifest = recorded_manifest(name)
        manifest["inference"] = manifest["cli"]["inference"] = "plan"
        _, old = install_recorded(capsys, tmp_path, manifest,
                                  RECORDED_ARGS[name])
        before = tree_bytes(old)
        for command in ("resume", "worker"):
            code, out = run_cli(capsys, command, "r", "--store", str(old))
            assert code == 2
            assert out.startswith("error:") and "plan" in out
        assert tree_bytes(old) == before
        assert run_cli(capsys, "fsck", "r", "--store", str(old))[0] == 0
        assert run_cli(capsys, "report", "--store", str(old),
                       "--run", "r")[0] == 0
