"""Table 5 — ideal eager/rendezvous threshold per implementation.

The sweep measures, per message size, whether eager beats rendezvous
(receive pre-posted, as the paper assumes); the ideal threshold is then
"anything above the largest message" — 65 MB, or OpenMPI's 32 MB cap.
"""

from __future__ import annotations

import math

from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.environments import get_environment, pingpong_pair
from repro.impls import ALL_IMPLEMENTATIONS, IMPLEMENTATION_ORDER
from repro.report import Table
from repro.tuning.sweep import measure_ideal_threshold
from repro.units import KB, MB, fmt_bytes

#: the paper's Table 5
PAPER = {
    "mpich2": ("256k", "65M", "65M"),
    "gridmpi": ("inf", "-", "-"),
    "madeleine": ("128k", "65M", "65M"),
    "openmpi": ("64k", "32M", "32M"),
}

SWEEP_SIZES_FAST = (256 * KB, MB)
SWEEP_SIZES_FULL = (128 * KB, 256 * KB, 512 * KB, MB, 4 * MB, 16 * MB)


def run_shard(fast: bool = False) -> dict:
    """The whole experiment, as its single shard's JSON payload."""
    env = get_environment("tcp_tuned")
    sizes = SWEEP_SIZES_FAST if fast else SWEEP_SIZES_FULL
    repeats = 4 if fast else 20

    table = Table(
        [
            "implementation",
            "original threshold",
            "measured ideal (cluster)",
            "measured ideal (grid)",
            "paper (cluster / grid)",
        ],
        title="Table 5: ideal eager/rendezvous threshold",
    )
    rows = []
    for name in IMPLEMENTATION_ORDER:
        impl = env.impl(name)
        original = ALL_IMPLEMENTATIONS[name].eager_threshold
        original_text = "inf" if math.isinf(original) else fmt_bytes(original)
        if math.isinf(original):
            # GridMPI never uses rendezvous: nothing to tune.
            cluster = grid = None
        else:
            results = {}
            for where in ("cluster", "grid"):
                net, a, b = pingpong_pair(where)
                results[where] = measure_ideal_threshold(
                    impl, net, a, b, sizes=sizes, repeats=repeats, sysctls=env.sysctls
                )
            cluster, grid = results["cluster"], results["grid"]
        paper_c, paper_g = PAPER[name][1], PAPER[name][2]
        table.add_row(
            [
                impl.display_name,
                original_text,
                fmt_bytes(cluster) if cluster else "-",
                fmt_bytes(grid) if grid else "-",
                f"{paper_c} / {paper_g}",
            ]
        )
        rows.append(
            {
                "implementation": name,
                "original": original,
                "measured_cluster": cluster,
                "measured_grid": grid,
                "paper_cluster": paper_c,
                "paper_grid": paper_g,
            }
        )
    return {
        "title": "Table 5: ideal eager/rendezvous thresholds",
        "paper_ref": "Table 5, §4.2.2",
        "rows": rows,
        "text": table.render(),
    }


def shards(fast: bool = False) -> list[ShardSpec]:
    return [ShardSpec(task_id="table5", runner=f"{__name__}:run_shard")]


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    return ExperimentResult("table5", **payloads["table5"])
