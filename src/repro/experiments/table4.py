"""Table 4 — one-byte latency, cluster vs grid, TCP + four implementations."""

from __future__ import annotations

from repro.apps.pingpong import mpi_pingpong, tcp_pingpong
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.environments import get_environment, pingpong_pair
from repro.impls import IMPLEMENTATION_ORDER
from repro.report import Table
from repro.units import to_usec

#: the paper's measured values (us, one way)
PAPER = {
    "TCP": (41, 5812),
    "MPICH2": (46, 5818),
    "GridMPI": (46, 5819),
    "MPICH-Madeleine": (62, 5826),
    "OpenMPI": (46, 5820),
}


def run_shard(fast: bool = False) -> dict:
    """The whole experiment, as its single shard's JSON payload."""
    env = get_environment("fully_tuned")
    repeats = 5 if fast else 200
    measured: dict[str, tuple[float, float]] = {}

    latencies = {}
    for where in ("cluster", "grid"):
        net, a, b = pingpong_pair(where)
        curve = tcp_pingpong(net, a, b, sizes=[1], repeats=repeats, sysctls=env.sysctls)
        latencies[("TCP", where)] = to_usec(curve.points[0].one_way_latency)
        for name in IMPLEMENTATION_ORDER:
            impl = env.impl(name)
            curve = mpi_pingpong(
                net, impl, a, b, sizes=[1], repeats=repeats, sysctls=env.sysctls
            )
            latencies[(impl.display_name, where)] = to_usec(
                curve.points[0].one_way_latency
            )

    table = Table(
        ["stack", "cluster (us)", "paper", "grid (us)", "paper"],
        title="Table 4: one-byte latency, Rennes cluster vs Rennes-Nancy grid",
    )
    rows = []
    for label in PAPER:
        cluster = latencies[(label, "cluster")]
        grid = latencies[(label, "grid")]
        p_cluster, p_grid = PAPER[label]
        table.add_row([label, cluster, p_cluster, grid, p_grid])
        rows.append(
            {
                "stack": label,
                "cluster_us": cluster,
                "grid_us": grid,
                "paper_cluster_us": p_cluster,
                "paper_grid_us": p_grid,
            }
        )
    return {
        "title": "Table 4: latency comparison",
        "paper_ref": "Table 4, §4.1",
        "rows": rows,
        "text": table.render(),
    }


def shards(fast: bool = False) -> list[ShardSpec]:
    return [ShardSpec(task_id="table4", runner=f"{__name__}:run_shard")]


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    return ExperimentResult("table4", **payloads["table4"])
