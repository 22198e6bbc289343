"""Process policy tests: the BLAS pin, the heap policy, the bounded
``prepare_cached`` executor cache and the ``profile --compiled`` report.

Every CLI process and process-mode sweep helper pins OpenBLAS to one
thread and keeps freed array buffers resident
(:mod:`repro.backend.parallel`); these tests pin both, plus the cache bounds and the compiled-plan timing that
``repro profile --compiled`` prints.
"""

import gc
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend import (export_module, parallel, profile_graph,
                           render_profile)
from repro.backend.executor import (clear_prepared_cache, prepare_cached,
                                    prepared_cache_stats)
from repro.core import sweep as sweep_mod
from repro.models import create_model

RNG = np.random.default_rng(11)
SRC = Path(repro.__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
HEAP_ENV = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
            "MALLOC_MMAP_THRESHOLD_", "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES")


#: A process-mode sweep helper's payload with no cells: the helper sets
#: up its process, walks an empty ledger and returns.
EMPTY_HELPER_PAYLOAD = pickle.dumps((None, None, None, [], []))


def graph_for(name: str):
    return export_module(create_model(name, num_classes=5, seed=0), name)


# ---------------------------------------------------------------------------
# The OpenBLAS thread pin
# ---------------------------------------------------------------------------

needs_openblas = pytest.mark.skipif(
    parallel.blas_threads() is None,
    reason="no OpenBLAS is mapped into this process; the pin is a no-op")


def child_env(**extra) -> dict:
    """This process's environment minus the BLAS width and glibc malloc
    variables."""
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_ENV + HEAP_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def blas_width_after(code: str, **env) -> int:
    """Run ``code`` in a fresh interpreter; the BLAS width it ends at."""
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nfrom repro.backend.parallel import blas_threads\n"
         "print(blas_threads())\n"],
        env=child_env(**env), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.fixture
def blas_at_two(monkeypatch):
    """Unset the BLAS env widths and start at width 2, so a pin shows;
    put this process's width back after."""
    for var in BLAS_ENV:
        monkeypatch.delenv(var, raising=False)
    libs = parallel._openblas()
    before = [get() for _, get in libs]
    for setter, _ in libs:
        setter(2)
    yield
    for (setter, _), width in zip(libs, before):
        setter(width)


@needs_openblas
class TestBlasPin:
    def test_pin_reads_back_one_and_is_idempotent(self, blas_at_two):
        assert parallel.pin_blas_threads() == 1
        assert parallel.blas_threads() == 1
        assert parallel.pin_blas_threads() == 1
        assert parallel.blas_threads() == 1

    def test_cli_main_pins(self):
        code = "import repro.cli\nrepro.cli.main(['tasks'])"
        assert blas_width_after(code) == 1

    def test_import_changes_nothing(self):
        """Importing the package (CLI included) leaves OpenBLAS's default."""
        assert blas_width_after("import numpy, repro, repro.cli") == \
            blas_width_after("import numpy")

    @pytest.mark.skipif(parallel.available_cores() < 2,
                        reason="1 core: OpenBLAS caps any width at 1, so "
                               "an explicit width of 2 cannot be told apart")
    def test_explicit_env_width_is_honoured(self):
        code = "import repro.cli\nrepro.cli.main(['tasks'])"
        assert blas_width_after(code, OPENBLAS_NUM_THREADS="2") == 2

    def test_sweep_helper_pins(self, blas_at_two, tmp_path):
        sweep_mod._sweep_helper(EMPTY_HELPER_PAYLOAD, str(tmp_path),
                                str(tmp_path), {}, {}, os.getppid())
        assert parallel.blas_threads() == 1

    def test_no_openblas_is_a_noop(self, blas_at_two, monkeypatch):
        before = parallel.blas_threads()
        monkeypatch.setattr(parallel, "_read_maps", lambda: (
            "7f00-7f10 r-xp 00000000 08:01 42 /usr/lib/libc.so.6\n"
            "7f20-7f30 rw-p 00000000 00:00 0\n"))
        assert parallel.pin_blas_threads() is None
        assert parallel.blas_threads() is None
        monkeypatch.undo()
        assert parallel.blas_threads() == before


# ---------------------------------------------------------------------------
# The heap policy
# ---------------------------------------------------------------------------

FORWARDS = 5

#: Appended to a setup line: one warm-up resnet18x0.25 batch-64 no-grad
#: forward, then prints the minor page faults the next FORWARDS took.
_FAULT_CHILD = f"""
import resource
import numpy as np
from repro.models import create_model
from repro.nn import Tensor, no_grad
model = create_model("resnet18x0.25", num_classes=10, seed=0)
model.eval()
x = Tensor(np.random.default_rng(0).normal(size=(64, 3, 32, 32)))
with no_grad():
    model(x)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range({FORWARDS}):
        model(x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def faults_after(code: str) -> int:
    """Run ``code`` in a fresh interpreter, then FORWARDS forwards; their
    minor page faults."""
    proc = subprocess.run([sys.executable, "-c", code + _FAULT_CHILD],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.fixture(scope="module")
def default_heap_faults() -> int:
    """Faults of the five forwards after a bare ``import repro.cli`` (the
    glibc default heap); at least 1000 per forward, so a low count after
    the policy cannot be vacuous."""
    faults = faults_after("import repro.cli")
    assert faults >= 1000 * FORWARDS, faults
    return faults


class _MalloptSpy:
    """Stands in for the ``ctypes`` ``mallopt``; records every call."""

    def __init__(self, result: int = 1):
        self.result = result
        self.calls: list[tuple[int, int]] = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


@pytest.fixture
def mallopt_spy(monkeypatch):
    """A libc whose ``mallopt`` is a spy, with no malloc env set."""
    for var in HEAP_ENV:
        monkeypatch.delenv(var, raising=False)
    spy = _MalloptSpy()
    monkeypatch.setattr(parallel, "_libc",
                        lambda: types.SimpleNamespace(mallopt=spy))
    return spy


class TestHeapPolicy:
    def test_cli_main_keeps_freed_buffers_resident(self,
                                                   default_heap_faults):
        code = "import repro.cli\nrepro.cli.main(['tasks'])"
        assert faults_after(code) < 0.05 * default_heap_faults

    def test_sweep_helper_keeps_freed_buffers_resident(
            self, default_heap_faults, tmp_path):
        code = (f"import os\nfrom repro.core import sweep\n"
                f"sweep._sweep_helper({EMPTY_HELPER_PAYLOAD!r}, "
                f"{str(tmp_path)!r}, {str(tmp_path)!r}, {{}}, {{}}, "
                f"os.getppid())")
        assert faults_after(code) < 0.05 * default_heap_faults

    def test_sets_both_thresholds_mmap_first(self, mallopt_spy):
        assert parallel.retain_heap() is True
        assert mallopt_spy.calls == [(-3, 32 << 20), (-1, 128 << 20)]

    def test_a_refused_threshold_stops_before_the_other(self, mallopt_spy):
        mallopt_spy.result = 0
        assert parallel.retain_heap() is False
        assert mallopt_spy.calls == [(-3, 32 << 20)]

    @pytest.mark.parametrize("var, value", [
        ("MALLOC_TRIM_THRESHOLD_", "1048576"),
        ("MALLOC_TOP_PAD_", "0"),
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("MALLOC_MMAP_MAX_", "0"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1048576"),
        ("GLIBC_TUNABLES",
         "glibc.malloc.arena_max=2:glibc.malloc.mmap_threshold=131072"),
    ])
    def test_operator_setting_is_honoured(self, mallopt_spy, monkeypatch,
                                          var, value):
        monkeypatch.setenv(var, value)
        assert parallel.retain_heap() is False
        assert mallopt_spy.calls == []

    def test_unrelated_tunables_do_not_count(self, mallopt_spy, monkeypatch):
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.arena_max=2")
        assert parallel.retain_heap() is True

    @pytest.mark.parametrize("libc", [None, object()])
    def test_libc_without_mallopt_is_a_noop(self, monkeypatch, libc):
        for var in HEAP_ENV:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(parallel, "_libc", lambda: libc)
        assert parallel.retain_heap() is False


# ---------------------------------------------------------------------------
# Bounded prepare_cached (byte- and entry-bounded LRU)
# ---------------------------------------------------------------------------

class _Carrier:
    """A graph-shaped cache key owner with a measurable payload."""

    def __init__(self, nbytes: int):
        self.initializers = {"w": np.zeros(nbytes, dtype=np.uint8)}


class TestPreparedCache:
    def setup_method(self):
        clear_prepared_cache()

    def teardown_method(self):
        clear_prepared_cache()

    def test_hit_and_miss_accounting(self):
        g = _Carrier(64)
        calls = []
        for _ in range(3):
            prepare_cached(g, "k", lambda graph: (calls.append(1), graph)[1])
        stats = prepared_cache_stats()
        assert len(calls) == 1
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_entry_bound_evicts_lru(self, monkeypatch):
        from repro.backend import executor as executor_mod
        monkeypatch.setattr(executor_mod, "PREPARED_CACHE_ENTRIES", 3)
        carriers = [_Carrier(16) for _ in range(5)]
        for g in carriers:
            prepare_cached(g, "k", lambda graph: graph)
        assert prepared_cache_stats()["entries"] == 3
        # The survivors are the most recently used; re-preparing the
        # evicted head is a miss again.
        before = prepared_cache_stats()["misses"]
        prepare_cached(carriers[0], "k", lambda graph: graph)
        assert prepared_cache_stats()["misses"] == before + 1

    def test_byte_bound_evicts(self, monkeypatch):
        from repro.backend import executor as executor_mod
        monkeypatch.setattr(executor_mod, "PREPARED_CACHE_BYTES", 3000)
        carriers = [_Carrier(1024) for _ in range(4)]
        for g in carriers:
            prepare_cached(g, "k", lambda graph: graph)
        stats = prepared_cache_stats()
        assert stats["entries"] < 4
        assert stats["bytes"] <= 3000

    def test_dead_graph_entries_are_reclaimed(self):
        g = _Carrier(128)
        # The cached value must not be the graph itself (as in real use,
        # where transforms return new graphs/plans) or the cache's strong
        # reference would keep the key's graph alive forever.
        prepare_cached(g, "k", lambda graph: _Carrier(8))
        assert prepared_cache_stats()["entries"] == 1
        del g
        gc.collect()
        assert prepared_cache_stats()["entries"] == 0


# ---------------------------------------------------------------------------
# profile --compiled: wall time measured on the compiled plan
# ---------------------------------------------------------------------------

class TestCompiledProfile:
    def test_compiled_profile_times_the_plan(self):
        g = graph_for("mcunet-293kb")
        x = RNG.normal(size=(4, 3, 32, 32))
        profile = profile_graph(g, x=x, compiled=True, repeats=1)
        assert profile.compiled
        assert profile.wall_time_s > 0.0
        assert profile.batch == 4
        assert "(compiled plan)" in render_profile(profile, top=5)
