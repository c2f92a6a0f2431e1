"""The repo's benchmark: one workload, repeated in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a new ``python3``
process (``rep.py``) with a fixed ``PYTHONHASHSEED``, ``REPRO_FLUID`` and
``REPRO_FULL`` unset and telemetry off, so no memo, cache or JIT-like state
survives from one repetition to the next.  The first process of a run is
an untimed warm-up that compiles every module and sets up once.

``--trace 0`` then runs set-up-only processes and timed repetitions, at
least ``MIN_REPS`` and more while another fits in ``--seconds``, and
reports the end-to-end metrics as medians: ``wall_s`` (the workload body),
``setup_s`` (interpreter launch to body start) and ``peak_rss_mb``.
``--trace 1`` runs one plain repetition and one traced one, and reports the
per-layer counts and self times of the traced one plus
``trace.overhead_s``, the traced minus the plain wall.

The workloads are the paper's fixed configurations; ``--seed`` changes no
input and is only echoed.  Each compared curve or row of a repetition is
one operation.  A golden mismatch fails that operation; a repetition whose
body processed no engine events, or a different number than its siblings,
fails all of its operations.  Each repetition also times a fixed loop in
this process beforehand, a host-speed probe printed as a diagnostic only.

The last line of standard output is the JSON result; the lines before it
give every metric's median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: timed repetitions per ``--trace 0`` run, at least
MIN_REPS = 2
#: set-up-only processes per ``--trace 0`` run, besides each repetition's
SETUP_PROBES = 8
#: the whole run ends within this many seconds
DEADLINE_S = 170.0
PROBE_LOOPS = 300_000


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_FLUID", "REPRO_FULL", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop (diagnostic only)."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


class Runner:
    """Launches repetitions of one workload before a shared deadline."""

    def __init__(self, workload: str):
        self.workload = workload
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()

    def launch(self, mode: str) -> dict:
        command = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload,
                   "--mode", mode]
        launched_at = time.monotonic()
        done = subprocess.run(
            command + ["--launched-at", repr(launched_at)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - launched_at),
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: {mode} repetition of {self.workload} "
                             f"exited with code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def repetition(self, mode: str) -> dict:
        probe_s = host_probe()
        record = self.launch(mode)
        record["probe_s"] = probe_s
        return record


def invalid_reps(reps: list[dict]) -> list[int]:
    """Indices of repetitions that processed no events, or a different
    number than the most common count among their siblings, or whose
    traced event count disagrees with the untraced one."""
    counts = [rep["events"] for rep in reps]
    usual = max(set(counts), key=lambda c: (counts.count(c), c))
    return [
        i for i, rep in enumerate(reps)
        if rep["events"] == 0
        or rep["events"] != usual
        or rep.get("layers", {}).get("sim.events", rep["events"]) != rep["events"]
    ]


def tally(reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations over all repetitions."""
    invalid = set(invalid_reps(reps))
    attempted = failed = 0
    for i, rep in enumerate(reps):
        attempted += len(rep["ops"])
        failed += sum(1 for _name, ok in rep["ops"] if i in invalid or not ok)
    return attempted, failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def measure(runner: Runner, seconds: int) -> tuple[dict[str, list[float]], list[dict]]:
    """``--trace 0``: set-up probes, then timed repetitions."""
    setups = [runner.launch("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    started = time.monotonic()
    while len(reps) < MIN_REPS or (
        time.monotonic() - started + reps[-1]["wall_s"] + reps[-1]["setup_s"] <= seconds
    ):
        reps.append(runner.repetition("timed"))
    samples = {
        "wall_s": [rep["wall_s"] for rep in reps],
        "setup_s": setups + [rep["setup_s"] for rep in reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
    }
    return samples, reps


def trace(runner: Runner) -> tuple[dict[str, float], list[dict]]:
    """``--trace 1``: one untraced and one traced repetition."""
    plain = runner.repetition("timed")
    traced = runner.repetition("traced")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return layers, [plain, traced]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "repro", ROOT / "results"):
        if not needed.is_dir():
            print(f"perfbench: {needed.relative_to(ROOT)}/ is missing; run from a "
                  "full checkout of the repository", file=sys.stderr)
            return 2

    runner = Runner(args.workload)
    runner.launch("warmup")
    if args.trace:
        layers, reps = trace(runner)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    else:
        samples, reps = measure(runner, args.seconds)
        metrics = {}
        for name, unit in metric_units("end_to_end").items():
            q1, median, q3 = quartiles(samples[name])
            metrics[name] = {"value": median, "unit": unit}
            print(f"{name:<12} median {median:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"n {len(samples[name])}")
    for i, rep in enumerate(reps):
        failed = [name for name, ok in rep["ops"] if not ok]
        print(f"rep {i}: wall {rep['wall_s']:.3f} s  setup {rep['setup_s']:.3f} s  "
              f"events {rep['events']}  probe {rep['probe_s']:.4f} s  "
              f"failed {failed or 'none'}")
    invalid = invalid_reps(reps)
    if invalid:
        print(f"invalid repetitions (event counts differ or are 0): {invalid}")
    attempted, failed = tally(reps)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
