"""Graph-level INT8 quantisation tests (repro.backend.quantize)."""

import numpy as np
import pytest

from repro.backend import (ReferenceExecutor, backend_diff, calibrate_ranges,
                           export_module, infer_shapes, quantize_graph)
from repro.models import MODEL_ZOO, create_model

RNG = np.random.default_rng(31)
X = RNG.normal(size=(8, 3, 32, 32))


def fp32_graph(name="resnet18x0.25"):
    return export_module(create_model(name, num_classes=5, seed=0), name)


class TestCalibration:
    def test_ranges_cover_every_node(self):
        g = fp32_graph()
        ranges = calibrate_ranges(g, X[:4])
        assert set(ranges) == {n.output for n in g.nodes}
        for lo, hi in ranges.values():
            assert lo <= hi

    def test_relu_outputs_nonnegative_range(self):
        g = fp32_graph()
        ranges = calibrate_ranges(g, X[:4])
        relu_outs = [n.output for n in g.nodes if n.op == "relu"]
        assert all(ranges[v][0] >= 0 for v in relu_outs)


class TestQuantizeGraph:
    def test_structure_gains_qdq_pairs(self):
        g = fp32_graph()
        q = quantize_graph(g, X[:4])
        n_targets = sum(n.op in ("conv2d", "linear", "matmul")
                        for n in g.nodes)
        assert sum(n.op == "quantize_linear" for n in q.nodes) == n_targets
        assert sum(n.op == "dequantize_linear" for n in q.nodes) == n_targets
        assert len(q.nodes) == len(g.nodes) + 2 * n_targets
        q.validate()

    @pytest.mark.parametrize("name", [s.name for s in MODEL_ZOO])
    def test_every_initializer_is_read(self, name):
        """A float weight replaced by its ``.int8`` copy is not kept."""
        g = fp32_graph(name)
        q = quantize_graph(g, X[:2])
        read = {v for node in q.nodes for v in node.inputs}
        assert set(q.initializers) <= read
        assert q.num_parameters() == g.num_parameters()

    def test_fp32_graph_untouched(self):
        g = fp32_graph()
        before = len(g.nodes)
        quantize_graph(g, X[:4])
        assert len(g.nodes) == before
        assert not any(k.endswith(".int8") for k in g.initializers)

    def test_weights_on_int8_grid(self):
        q = quantize_graph(fp32_graph(), X[:4])
        snapped = [k for k in q.initializers if k.endswith(".int8")]
        assert snapped
        for name in snapped:
            w = q.initializers[name]
            for c in range(w.shape[0]):
                assert len(np.unique(w[c])) <= 256

    def test_output_close_but_not_equal(self):
        g = fp32_graph()
        q = quantize_graph(g, X[:4])
        ref = ReferenceExecutor().run(g, X)
        qd = ReferenceExecutor().run(q, X)
        dev = np.abs(ref - qd).max()
        assert 0 < dev < np.abs(ref).max()      # perturbed, not destroyed

    def test_predictions_mostly_preserved(self):
        g = fp32_graph()
        q = quantize_graph(g, X[:4])
        a = ReferenceExecutor().run(g, X).argmax(axis=1)
        b = ReferenceExecutor().run(q, X).argmax(axis=1)
        assert (a == b).mean() >= 0.5

    def test_shape_inference_passes_through_qdq(self):
        q = quantize_graph(fp32_graph(), X[:4])
        shapes = infer_shapes(q)
        assert shapes[q.output] == (None, 5)

    def test_transformer_attention_quantised(self):
        g = fp32_graph("vit-tiny")
        q = quantize_graph(g, X[:4])
        quant_names = [n.name for n in q.nodes if n.op == "quantize_linear"]
        assert any(".scores.quant" in n or ".context.quant" in n
                   for n in quant_names)

    def test_diffable_against_fp32(self):
        """QDQ noise is attributable per layer via the standard diff tool."""
        g = fp32_graph()
        q = quantize_graph(g, X[:4])
        ref = ReferenceExecutor(keep_intermediates=True)
        qex = ReferenceExecutor(keep_intermediates=True)
        ref.run(g, X[:2])
        qex.run(q, X[:2])
        # The shared layer names exist on both sides with identical shapes.
        shared = set(ref.intermediates) & set(qex.intermediates)
        assert len(shared) >= len(g.nodes) // 2
