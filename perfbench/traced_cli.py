"""``python -m repro`` with the per-layer tracer installed.

Usage: ``python perfbench/traced_cli.py <trace-out.json> <repro args...>``.
Times a fresh ``import repro.cli`` first (``cli.import_s``), then wraps the
layers, runs the command and writes the tracer's counters to the JSON file.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

if __name__ == "__main__":
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.seconds["cli.import"] += import_s
        tracer.calls["cli.import"] += 1
        tracer.sessions = 1
        tracer.dump(out)
    sys.exit(code)
