"""Table 3 — host specifications of the testbed (static data)."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, ShardSpec
from repro.net.grid5000 import HOST_SPECS
from repro.report import Table


def run_shard(fast: bool = False) -> dict:
    """The whole experiment, as its single shard's JSON payload."""
    table = Table(
        ["", "Rennes", "Nancy"],
        title="Table 3: host specifications",
    )
    rennes, nancy = HOST_SPECS["rennes"], HOST_SPECS["nancy"]
    fields = [
        ("Processor", f"{rennes.processor} {rennes.clock_ghz} GHz",
         f"{nancy.processor} {nancy.clock_ghz} GHz"),
        ("Motherboard", rennes.motherboard, nancy.motherboard),
        ("Memory", f"{rennes.memory_gb} GB", f"{nancy.memory_gb} GB"),
        ("NIC", rennes.nic, nancy.nic),
        ("OS", rennes.os, nancy.os),
        ("Kernel", rennes.kernel, nancy.kernel),
        ("TCP version", rennes.tcp, nancy.tcp),
        ("Calibrated rate", f"{rennes.gflops} Gflop/s", f"{nancy.gflops} Gflop/s"),
    ]
    rows = []
    for label, r, n in fields:
        table.add_row([label, r, n])
        rows.append({"field": label, "rennes": r, "nancy": n})
    return {
        "title": "Table 3: host specifications",
        "paper_ref": "Table 3, §3.2",
        "rows": rows,
        "text": table.render(),
    }


def shards(fast: bool = False) -> list[ShardSpec]:
    return [ShardSpec(task_id="table3", runner=f"{__name__}:run_shard")]


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    return ExperimentResult("table3", **payloads["table3"])
