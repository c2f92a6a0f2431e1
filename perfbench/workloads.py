"""The benchmark's workloads and the golden checks on their outputs.

Each workload is the paper's fixed configuration, so its inputs do not
depend on a seed.  ``setup`` imports what the body needs, clears every
in-process memo (a warm memo would replay no simulation) and builds the
body's arguments; ``body`` is what a user waits for; ``check`` compares the
output with the committed goldens under ``results/``, read at check time,
and returns one ``(operation, ok)`` pair per compared curve or row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


def clear_memos() -> None:
    """Empty every in-process result memo the library keeps."""
    from repro.experiments import npb_runs, registry
    from repro.npb import suite

    npb_runs.clear_cache()
    registry.clear_memos()
    suite.clear_failure_memo()


def golden_text(path: Path) -> str:
    """A committed report without its ``[N.Ns wall, fast=...]`` footer."""
    text = path.read_text(encoding="utf-8").rstrip("\n")
    body, sep, footer = text.rpartition("\n\n")
    if not sep or not (footer.startswith("[") and "wall, fast=" in footer):
        raise ValueError(f"{path}: no wall/fast footer")
    return body


def table_rows(text: str) -> dict[str, list[str]]:
    """``|``-separated table rows of a rendered report, keyed by first cell."""
    rows = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) > 1 and cells[0]:
            rows[cells[0]] = cells[1:]
    return rows


def column(rows: dict[str, list[str]], index: int) -> dict[str, "str | None"]:
    return {key: cells[index] if index < len(cells) else None for key, cells in rows.items()}


def fmt(value: float) -> str:
    """A number as the repo's table renderer prints it."""
    from repro.report.tables import Table

    return Table._format(value)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], Any]
    body: Callable[[Any], Any]
    check: Callable[[Any, Path], list[tuple[str, bool]]]


# --- figure through the campaign runner (the ``repro run`` path) -------------------
def campaign_workload(name: str, experiment_id: str, fast: bool) -> Workload:
    """One experiment through ``run_campaign(jobs=1, use_cache=False)``.

    Each curve (table column) is one operation, and the whole report, which
    must equal the committed golden minus its footer, is one more.
    """

    def setup():
        from repro.runner.pool import ExperimentSpec, run_campaign

        clear_memos()
        return run_campaign, [ExperimentSpec(experiment_id, fast)]

    def body(inputs):
        run_campaign, specs = inputs
        run = run_campaign(specs, jobs=1, use_cache=False).runs[0]
        if not run.ok:
            raise RuntimeError(f"{experiment_id} failed: {run.error}")
        return run.text

    def check(text, root):
        golden = golden_text(root / "results" / ("fast" if fast else "") / f"{experiment_id}.txt")
        got, want = table_rows(text), table_rows(golden)
        header = next(iter(want.values()))  # the first row names the curves
        ops = [
            (f"{experiment_id}/{curve}", column(got, i) == column(want, i))
            for i, curve in enumerate(header)
        ]
        ops.append((f"{experiment_id}/report", text == golden))
        return ops

    return Workload(name, setup, body, check)


# --- NPB through the library (``examples/nas_grid_study.py``) -----------------------
def npb_workload(name: str, benches: tuple[str, ...]) -> Workload:
    """Fast-mode NPB ``benches`` on 8+8 grid nodes for all four impls.

    MPICH2-relative ratios must equal the matching rows of the fast Fig. 10
    golden; each benchmark row is one operation.
    """

    def setup():
        from repro.experiments import npb_runs

        clear_memos()
        return npb_runs.bench_times

    def body(bench_times):
        return {bench: bench_times(bench, "grid16", fast=True) for bench in benches}

    def check(times, root):
        from repro.impls import IMPLEMENTATION_ORDER

        want = table_rows(golden_text(root / "results" / "fast" / "fig10.txt"))
        ops = []
        for bench, by_impl in times.items():
            ref = by_impl["mpich2"]
            got = [
                fmt(0.0 if math.isinf(by_impl[n]) else ref / by_impl[n])
                for n in IMPLEMENTATION_ORDER
            ]
            ops.append((f"fig10/{bench}", want.get(bench.upper()) == got))
        return ops

    return Workload(name, setup, body, check)


# --- ray2mesh: the table6/table7 shard for one master site --------------------------
def ray2mesh_workload(name: str, site: str) -> Workload:
    """Fast ray2mesh with the master at ``site``, through the shard runner.

    Rays per node must equal the ``master=<site>`` column of the fast
    Table 6 golden (one operation per cluster row) and the phase times the
    ``<site>`` row of Table 7 (one operation).
    """

    def setup():
        from repro.experiments import table6

        clear_memos()
        return table6.run_ray2mesh_shard

    def body(run_shard):
        return run_shard(site, fast=True)

    def check(summary, root):
        from repro.experiments.table6 import SITES

        fast = root / "results" / "fast"
        rays = column(table_rows(golden_text(fast / "table6.txt")), SITES.index(site))
        per_node = 8  # nodes per cluster, as Table 6 divides
        ops = [
            (
                f"table6/{cluster}",
                rays.get(cluster) == fmt(summary["rays_per_cluster"][cluster] / per_node),
            )
            for cluster in SITES
        ]
        table7 = table_rows(golden_text(fast / "table7.txt"))
        times = [fmt(summary[k]) for k in ("comp_time", "merge_time", "total_time")]
        ops.append((f"table7/{site}", table7.get(site, [])[:3] == times))
        return ops

    return Workload(name, setup, body, check)


#: every workload ``run.py`` can run by name.  ``BENCHMARK.json`` lists the
#: ones measured for each change, with why each was chosen.  ``npb_grid16``
#: is left out of that list: a run must hold three repetitions to be steady
#: on a shared 2-core host, and three workloads at three ~17 s repetitions
#: per run exceed the list's total time budget; at two repetitions per run
#: its wall_s spread (IQR/median over 5 runs) was 17.6 %, the widest.
WORKLOADS = {
    w.name: w
    for w in (
        campaign_workload("pingpong_wan", "fig3", fast=False),
        npb_workload("npb_grid16", ("cg", "mg", "is")),
        ray2mesh_workload("ray2mesh_nancy", "nancy"),
    )
}
