"""CLI tests: every command via repro.cli.main with captured stdout."""

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

    def test_worst_case_prints_curve(self, capsys):
        code, out = run_cli(capsys, "worst-case", "--model", "mcunet-293kb",
                            "--n", "40", "--epochs", "2")
        assert code == 0
        assert "cumulative" in out


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
# Run directories recorded before plan inference was removed
# ---------------------------------------------------------------------------

RUN_ARGS = ("--run-id", "r", "--model", "mcunet-293kb", "--n", "24",
            "--epochs", "1", "--noises", "resize,precision", "--no-combined")


def record_inference(run_dir, inference: str) -> None:
    """Give a CLI run's manifest the shape older runs carry: the inference
    substrate at the top level and in ``cli``."""
    import json
    path = run_dir / "manifest.json"
    doc = json.loads(path.read_text())
    doc["inference"] = doc["cli"]["inference"] = inference
    path.write_text(json.dumps(doc, indent=2) + "\n")


def ledger_values(store) -> dict:
    from repro.core import RunStore
    return {(e["model"], e["dataset"], e["cfg"]): e["value"]
            for e in RunStore(store).open("r").entries()
            if e["kind"] == "eval" and e["status"] == "ok"}


class TestOldRunManifests:
    def test_module_run_resumes_and_takes_workers(self, capsys, tmp_path):
        fresh = tmp_path / "fresh"
        assert run_cli(capsys, "run", "--store", str(fresh), *RUN_ARGS)[0] == 0
        for store, command in ((tmp_path / "w", "worker"),
                               (tmp_path / "s", "resume")):
            code, _ = run_cli(capsys, "run", "--store", str(store), *RUN_ARGS,
                              "--prepare-only")
            assert code == 0
            record_inference(store / "r", "module")
            code, out = run_cli(capsys, command, "r", "--store", str(store))
            assert code == 0, out
            values = ledger_values(store)
            assert values and values == ledger_values(fresh)

    def test_plan_run_is_refused_by_resume_and_worker(self, capsys,
                                                       tmp_path):
        """Plan cells were computed on another substrate: both commands
        refuse the run, touch nothing, and fsck and report still read it."""
        assert run_cli(capsys, "run", "--store", str(tmp_path), *RUN_ARGS,
                       "--prepare-only")[0] == 0
        run_dir = tmp_path / "r"
        record_inference(run_dir, "plan")
        before = {p: p.read_bytes() for p in sorted(run_dir.rglob("*"))
                  if p.is_file()}
        for command in ("resume", "worker"):
            code, out = run_cli(capsys, command, "r", "--store",
                                str(tmp_path))
            assert code == 2
            assert out.startswith("error:") and "plan" in out
        after = {p: p.read_bytes() for p in sorted(run_dir.rglob("*"))
                 if p.is_file()}
        assert after == before
        assert run_cli(capsys, "fsck", "r", "--store", str(tmp_path))[0] == 0
        assert run_cli(capsys, "report", "--store", str(tmp_path),
                       "--run", "r")[0] == 0
