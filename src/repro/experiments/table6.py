"""Table 6 — ray2mesh: rays computed per cluster vs master placement."""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import run_ray2mesh
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.environments import get_environment
from repro.report import Table

SITES = ("nancy", "rennes", "sophia", "toulouse")

#: paper's Table 6 (rays per cluster, averaged over runs)
PAPER = {
    "nancy": (29650, 27938, 29344, 28781),
    "rennes": (30225, 30625, 29438, 29469),
    "sophia": (35375, 36562, 37344, 36438),
    "toulouse": (29750, 29875, 28875, 30312),
}

@dataclass(frozen=True)
class Ray2MeshSummary:
    """The slice of a ray2mesh run that Tables 6 and 7 consume."""

    rays_per_cluster: dict[str, int]
    comp_time: float
    merge_time: float
    total_time: float


def _summarise(result) -> Ray2MeshSummary:
    return Ray2MeshSummary(
        rays_per_cluster=dict(result.rays_per_cluster),
        comp_time=result.comp_time,
        merge_time=result.merge_time,
        total_time=result.total_time,
    )


def _run_site(site: str, fast: bool) -> Ray2MeshSummary:
    env = get_environment("fully_tuned")
    total_rays = 100_000 if fast else 1_000_000
    return _summarise(
        run_ray2mesh(
            env.impl("mpich2"),
            master_site=site,
            total_rays=total_rays,
            sysctls=env.sysctls,
        )
    )


# --- sharding (see repro.experiments.base) ---------------------------------------
def run_ray2mesh_shard(site: str, fast: bool = False) -> dict:
    """Worker-side shard: the full ray2mesh run for one master site.

    Shared (same task_ids) with Table 7, so a campaign runs ray2mesh once
    per site even though both tables consume every run.
    """
    summary = _run_site(site, fast)
    return {
        "rays_per_cluster": summary.rays_per_cluster,
        "comp_time": summary.comp_time,
        "merge_time": summary.merge_time,
        "total_time": summary.total_time,
    }


def ray2mesh_shards() -> list[ShardSpec]:
    return [
        ShardSpec(
            task_id=f"ray2mesh/{site}",
            runner="repro.experiments.table6:run_ray2mesh_shard",
            params={"site": site},
        )
        for site in SITES
    ]


def results_from_payloads(payloads: dict[str, dict]) -> dict[str, Ray2MeshSummary]:
    return {
        site: Ray2MeshSummary(
            rays_per_cluster=dict(payloads[f"ray2mesh/{site}"]["rays_per_cluster"]),
            comp_time=payloads[f"ray2mesh/{site}"]["comp_time"],
            merge_time=payloads[f"ray2mesh/{site}"]["merge_time"],
            total_time=payloads[f"ray2mesh/{site}"]["total_time"],
        )
        for site in SITES
    }


def _result_from_runs(results: dict[str, Ray2MeshSummary]) -> ExperimentResult:
    per_node = 8  # nodes per cluster; the paper reports per-cluster means

    table = Table(
        ["cluster"] + [f"master={s}" for s in SITES] + ["paper (master=nancy..toulouse)"],
        title="Table 6: rays computed per node of each cluster vs master location",
    )
    rows = []
    for cluster in SITES:
        cells = [cluster]
        row = {"cluster": cluster}
        for master in SITES:
            rays = results[master].rays_per_cluster[cluster] / per_node
            cells.append(rays)
            row[f"master_{master}"] = rays
        cells.append(" / ".join(str(v) for v in PAPER[cluster]))
        row["paper"] = PAPER[cluster]
        table.add_row(cells)
        rows.append(row)
    note = (
        "paper scale: 1 M rays; fast mode scales counts down 10x. "
        "Sophia (fastest CPUs) leads everywhere, as in the paper."
    )
    return ExperimentResult(
        "table6",
        "Table 6: ray2mesh ray distribution",
        "Table 6, §4.4",
        rows,
        "\n".join([table.render(), note]),
    )


def shards(fast: bool = False) -> list[ShardSpec]:
    return ray2mesh_shards()


def merge(payloads: dict[str, dict], fast: bool = False) -> ExperimentResult:
    return _result_from_runs(results_from_payloads(payloads))
