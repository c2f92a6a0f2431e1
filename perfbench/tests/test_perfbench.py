"""Tests for the benchmark's own code, on cheap fast-mode workloads.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import rep
import run
from workloads import campaign_workload, clear_memos, npb_workload, ray2mesh_workload

ROOT = Path(__file__).resolve().parents[2]
FIG3_FAST = campaign_workload("fig3_fast", "fig3", fast=True)
NPB_EP = npb_workload("npb_ep", ("ep",))


def counts(layers: dict) -> dict:
    return {name: value for name, value in layers.items() if not name.endswith("_s")}


@pytest.fixture(scope="module")
def fig3_runs():
    """One plain and two traced fast Fig. 3 runs, each from cold memos."""
    return [
        rep.run_body(FIG3_FAST, FIG3_FAST.setup(), traced=traced)
        for traced in (False, True, True)
    ]


def tampered_root(tmp_path: Path, name: str, old: str, new: str) -> Path:
    """A copy of ``results/`` with the first ``old`` in ``fast/<name>``
    replaced by ``new``."""
    shutil.copytree(ROOT / "results", tmp_path / "results")
    path = tmp_path / "results" / "fast" / name
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return tmp_path


def test_two_traced_runs_give_identical_counts(fig3_runs):
    (_, plain), (_, first), (_, second) = fig3_runs
    assert counts(first["layers"]) == counts(second["layers"])
    layers = first["layers"]
    assert layers["sim.events"] == plain["events"] == first["events"] > 0
    assert layers["runner.hashed_events"] == layers["sim.events"]
    assert layers["net.flows"] == layers["tcp.transfers"] > 0
    assert 0 < layers["sim.events.window_tick"] < layers["sim.events"]
    assert layers["tcp.window_rounds"] <= layers["sim.events.window_tick"]
    assert all(layers[f"{layer}.self_s"] > 0 for layer in ("sim", "net", "tcp", "mpi"))


def test_tracing_changes_no_output(fig3_runs):
    outputs = [output for output, _ in fig3_runs]
    assert outputs[0] == outputs[1] == outputs[2]
    assert all(ok for _, ok in FIG3_FAST.check(outputs[0], ROOT))


def test_tampered_golden_copy_fails(fig3_runs, tmp_path):
    text = fig3_runs[0][0]
    root = tampered_root(tmp_path, "fig3.txt", "86.18", "86.19")
    ops = dict(FIG3_FAST.check(text, root))
    assert not ops["fig3/MPICH2"] and not ops["fig3/report"]
    assert ops["fig3/TCP"] and ops["fig3/OpenMPI"]


def test_npb_and_ray2mesh_checks_fail_on_tampered_goldens(tmp_path):
    times = NPB_EP.body(NPB_EP.setup())
    assert NPB_EP.check(times, ROOT) == [("fig10/ep", True)]
    ray2mesh = ray2mesh_workload("ray2mesh_nancy", "nancy")
    summary = {
        "rays_per_cluster": {"nancy": 24000, "rennes": 24000, "sophia": 28000,
                             "toulouse": 24000},
        "comp_time": 21.15, "merge_time": 151.0, "total_time": 181.2,
    }
    assert all(ok for _, ok in ray2mesh.check(summary, ROOT))

    root = tampered_root(tmp_path, "fig10.txt", "EP  | 1      | 1.000", "EP  | 1      | 1.001")
    assert NPB_EP.check(times, root) == [("fig10/ep", False)]
    (root / "results" / "fast" / "table7.txt").write_text(
        (ROOT / "results" / "fast" / "table7.txt").read_text().replace("21.15", "21.16"))
    assert dict(ray2mesh.check(summary, root))["table7/nancy"] is False


def test_memo_warm_repetition_fails():
    inputs = NPB_EP.setup()
    reps = []
    for _ in range(2):  # the second body replays the warm NPB memo
        times, record = rep.run_body(NPB_EP, inputs, traced=False)
        record["ops"] = NPB_EP.check(times, ROOT)
        reps.append(record)
    clear_memos()
    assert reps[0]["events"] > 0 and reps[1]["events"] == 0
    assert run.invalid_reps(reps) == [1]
    assert run.tally(reps) == (2, 1)


def test_differing_sibling_counts_are_invalid():
    reps = [{"events": 5, "ops": [("a", True)]} for _ in range(3)]
    reps[2]["events"] = 6
    assert run.invalid_reps(reps) == [2]
    reps[1]["layers"] = {"sim.events": 4}
    assert run.invalid_reps(reps) == [1, 2]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "npb_grid16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
