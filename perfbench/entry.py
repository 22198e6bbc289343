"""Entry shim for every process the benchmark launches.

    python3 perfbench/entry.py <repro CLI arguments...>
    python3 perfbench/entry.py --import-only

Puts the checkout's ``src`` on ``sys.path`` and calls
``repro.cli.main(argv)``.  When ``PERFBENCH_TRACE_DIR`` is set, it first
installs the layer wrappers from ``spans.py`` and writes this process's
spans into that directory at exit; otherwise nothing is wrapped.
"""

import time

T0 = time.perf_counter()

import atexit  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir:
        import spans
        rec = spans.Recorder(T0)
        token = rec.begin("proc.import")
        import repro.cli
        spans.install(rec)
        rec.end(token)
        atexit.register(rec.dump, trace_dir)
    else:
        import repro.cli
    if argv == ["--import-only"]:
        return 0
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
