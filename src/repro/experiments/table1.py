"""Table 1 — feature comparison of the MPI implementations (static data)."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, ShardSpec
from repro.impls import EXTENDED_IMPLEMENTATIONS
from repro.report import Table

#: the paper's Table 1 row order (it lists all six)
TABLE1_ORDER = ("mpich2", "gridmpi", "madeleine", "openmpi", "mpichg2", "mpichvmi")


def run_shard(fast: bool = False) -> dict:
    """The whole experiment, as its single shard's JSON payload."""
    table = Table(
        ["implementation", "long-distance optimisations", "heterogeneity", "first / last publication"],
        title="Table 1: MPI implementation features",
    )
    rows = []
    for name in TABLE1_ORDER:
        impl = EXTENDED_IMPLEMENTATIONS[name]
        feats = impl.features
        pubs = f"{feats.first_publication} / {feats.last_publication}"
        table.add_row([impl.display_name, feats.long_distance, feats.heterogeneity, pubs])
        rows.append(
            {
                "implementation": impl.display_name,
                "long_distance": feats.long_distance,
                "heterogeneity": feats.heterogeneity,
                "publications": pubs,
            }
        )
    return {
        "title": "Table 1: implementation feature matrix",
        "paper_ref": "Table 1, §2.1.7",
        "rows": rows,
        "text": table.render(),
    }


def shards(fast: bool = False) -> list[ShardSpec]:
    return [ShardSpec(task_id="table1", runner=f"{__name__}:run_shard")]


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    return ExperimentResult("table1", **payloads["table1"])
