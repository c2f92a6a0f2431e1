"""One benchmark repetition in a fresh interpreter; prints one JSON line.

    python3 perfbench/rep.py --workload NAME --mode MODE --launched-at T

``MODE`` is ``warmup`` (compile every module, then set up), ``setup`` (set
up only), ``timed`` (set up, run and check the body) or ``traced`` (the
same with every layer traced).  ``T`` is the launching process's
``time.monotonic()`` just before the launch: the system-wide monotonic
clock makes ``setup_s`` span interpreter start-up, imports and input
construction.  ``run.py`` launches this script; the record is documented on
:func:`repetition`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from layers import LayerTracer, count_events
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
MODES = ("warmup", "setup", "timed", "traced")


def run_body(workload: Workload, inputs: Any, traced: bool) -> tuple[Any, dict]:
    """Run the body once; return its output and the measurements."""
    tracer = LayerTracer() if traced else None
    with count_events() as events, (tracer.active() if tracer else nullcontext()):
        started = time.perf_counter()
        output = workload.body(inputs)
        wall_s = time.perf_counter() - started
    record = {"wall_s": wall_s, "events": events[0]}
    if tracer is not None:
        record["layers"] = tracer.metrics()
    return output, record


def repetition(workload: Workload, mode: str, launched_at: float, root: Path = ROOT) -> dict:
    """``setup_s``; past set-up also ``wall_s``, ``events`` (engine events
    processed by the body), ``ops`` (``[operation, ok]`` pairs from the
    golden check), ``peak_rss_mb`` and, when traced, ``layers``."""
    if mode == "warmup":
        # .pyc compilation and the page cache belong to no timed set-up
        compileall.compile_dir(root / "src", quiet=1)
    inputs = workload.setup()
    record: dict[str, Any] = {"setup_s": time.monotonic() - launched_at}
    if mode in ("warmup", "setup"):
        return record
    output, measured = run_body(workload, inputs, traced=mode == "traced")
    record.update(measured)
    record["ops"] = workload.check(output, root)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--launched-at", required=True, type=float)
    args = parser.parse_args()
    record = repetition(WORKLOADS[args.workload], args.mode, args.launched_at)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
