"""Table 2 — communication features of the NAS Parallel Benchmarks.

The paper ran each NAS under an instrumented MPI implementation to count
messages; we do the same with the tracing layer.  Counts from sampled
iterations are scaled to the full iteration count.  The paper's values
(from Faraj & Yuan's class-A/16-node counts and the paper's own runs) are
printed alongside; exact totals differ where the accounting granularity
did (notably FT/IS), the magnitudes and the point-to-point/collective
split are the comparison targets.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.environments import get_environment, grid_placement
from repro.mpi.constants import COLLECTIVE_CONTEXT, POINT_TO_POINT_CONTEXT
from repro.npb import COMM_TYPE, run_npb
from repro.npb.common import DEFAULT_SAMPLE_ITERS, PROBLEM
from repro.report import Table
from repro.units import fmt_bytes

#: the paper's Table 2 (class B except where its source used class A)
PAPER = {
    "ep": "192 * 8 B + 68 * 80 B",
    "cg": "126479 * 8 B + 86944 * 147 kB",
    "mg": "50809 * various sizes from 4 B to 130 kB",
    "lu": "1200000 * 960 B<msg<1040 B",
    "sp": "57744 * 45-54 kB + 96336 * 100-160 kB",
    "bt": "28944 * 26 kB + 48336 * 146-156 kB",
    "is": "176 * 1 kB + 176 * 30 MB",
    "ft": "320 * 1 B + 352 * 128 kB",
}

#: iterations represented by one sampled iteration (scales trace counts)
def _scale_factor(bench: str, cls: str, sample) -> float:
    total = {
        "ep": 1,
        "cg": PROBLEM["cg"][cls]["niter"],
        "mg": PROBLEM["mg"][cls]["nit"],
        "lu": PROBLEM["lu"][cls]["itmax"],
        "sp": PROBLEM["sp"][cls]["niter"],
        "bt": PROBLEM["bt"][cls]["niter"],
        "is": PROBLEM["is"][cls]["niter"],
        "ft": PROBLEM["ft"][cls]["niter"],
    }[bench]
    if sample is None:
        return 1.0
    return total / min(sample, total)


def run_shard(fast: bool = False) -> dict:
    """The whole experiment, as its single shard's JSON payload."""
    env = get_environment("fully_tuned")
    cls = "A" if fast else "B"
    network, placement = grid_placement(16)

    table = Table(
        ["NAS", "type", "measured (scaled message counts)", "paper (Table 2)"],
        title=f"Table 2: NPB communication features (class {cls}, 16 ranks)",
    )
    rows = []
    for bench in ("ep", "cg", "mg", "lu", "sp", "bt", "is", "ft"):
        sample = 2 if fast else DEFAULT_SAMPLE_ITERS[bench]
        result = run_npb(
            bench, cls, network, env.impl("gridmpi"), placement,
            sysctls=env.sysctls, sample_iters=sample, trace=True,
            honor_known_failures=False,
        )
        scale = _scale_factor(bench, cls, sample)
        context = (
            COLLECTIVE_CONTEXT if COMM_TYPE[bench] == "Collective"
            else POINT_TO_POINT_CONTEXT
        )
        dominant = result.trace.dominant_sizes(context, top=3)
        if not dominant:
            # EP's only traffic is its final allreduces; the paper's source
            # counted their point-to-point decomposition, so do the same.
            dominant = result.trace.dominant_sizes(COLLECTIVE_CONTEXT, top=3)
        measured = " + ".join(
            f"{int(count * scale)} * {fmt_bytes(size)}"
            for size, count in sorted(dominant)
        )
        table.add_row([bench.upper(), COMM_TYPE[bench], measured, PAPER[bench]])
        rows.append(
            {
                "bench": bench,
                "type": COMM_TYPE[bench],
                "dominant_sizes": [(s, int(c * scale)) for s, c in dominant],
                "paper": PAPER[bench],
            }
        )
    return {
        "title": "Table 2: NPB communication features",
        "paper_ref": "Table 2, §3.1",
        "rows": rows,
        "text": table.render(),
    }


def shards(fast: bool = False) -> list[ShardSpec]:
    return [ShardSpec(task_id="table2", runner=f"{__name__}:run_shard")]


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    return ExperimentResult("table2", **payloads["table2"])
