"""Figure 9 — impact of TCP slow start on a stream of 1 MB messages.

200 round trips of 1 MB between Rennes and Nancy on the tuned stack; the
per-message bandwidth ramps over seconds.  The paper's markers: the
stream tops out near 570 Mbps; raw TCP and paced GridMPI pass 500 Mbps
around 2 s while the unpaced implementations need about 4 s.
"""

from __future__ import annotations

from repro.apps.pingpong import mpi_stream, tcp_stream
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.environments import get_environment, pingpong_pair
from repro.impls import IMPLEMENTATION_ORDER
from repro.report import Table, line_chart
from repro.units import MB

PAPER_T500 = {"TCP": 2.0, "MPICH2": 4.0, "GridMPI": 2.0,
              "MPICH-Madeleine": 4.0, "OpenMPI": 4.0}


def run_shard(fast: bool = False) -> dict:
    """The whole experiment, as its single shard's JSON payload."""
    env = get_environment("fully_tuned")
    net, a, b = pingpong_pair("grid")
    count = 80 if fast else 250

    streams = {"TCP": tcp_stream(net, a, b, nbytes=MB, count=count, sysctls=env.sysctls)}
    for name in IMPLEMENTATION_ORDER:
        impl = env.impl(name)
        streams[impl.display_name] = mpi_stream(
            net, impl, a, b, nbytes=MB, count=count, sysctls=env.sysctls
        )

    def time_to(samples, mbps):
        for s in samples:
            if s.bandwidth_mbps >= mbps:
                return s.time
        return float("inf")

    table = Table(
        ["stack", "peak (Mbps)", "time to 500 Mbps (s)", "paper (s)"],
        title="Fig. 9: slow-start ramp of a 1 MB message stream (grid)",
    )
    rows = []
    for label, samples in streams.items():
        peak = max(s.bandwidth_mbps for s in samples)
        t500 = time_to(samples, 500)
        table.add_row([label, peak, t500, PAPER_T500[label]])
        rows.append(
            {"stack": label, "peak_mbps": peak, "t500_s": t500,
             "paper_t500_s": PAPER_T500[label]}
        )

    chart = line_chart(
        {
            label: [(s.time, s.bandwidth_mbps) for s in samples[:: max(1, count // 60)]]
            for label, samples in streams.items()
        },
        title="per-message bandwidth vs time",
        y_label="Mbps",
    )
    return {
        "title": "Fig. 9: slow-start impact on the grid",
        "paper_ref": "Figure 9, §4.2.3",
        "rows": rows,
        "text": "\n".join([table.render(), "", chart]),
    }


def shards(fast: bool = False) -> list[ShardSpec]:
    return [ShardSpec(task_id="fig9", runner=f"{__name__}:run_shard")]


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    return ExperimentResult("fig9", **payloads["fig9"])
