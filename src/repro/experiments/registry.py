"""Experiment registry: id -> runner, plus the shard-plan lookup."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.errors import ExperimentError
from repro.experiments import (
    coll_hier,
    faults,
    fig3,
    fig5,
    fig6,
    fig7,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    npb_runs,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.base import ExperimentResult, ShardSpec, resolve
from repro.npb import suite
from repro.obs.runtime import track as telemetry_track

#: id -> defining module (or module-like namespace: ``experiments.faults``
#: hosts two experiments), each defining the ``shards``/``merge`` hooks of
#: its shard plan (see repro.experiments.base)
MODULES: dict[str, Any] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "fig3": fig3,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "faults_pingpong": faults.faults_pingpong,
    "faults_cg": faults.faults_cg,
    "coll_hier": coll_hier,
}


def execute_shard(shard: ShardSpec, fast: bool = False) -> Any:
    """Run one shard from cold memos and return its payload.

    The one place work starts, whether :func:`run_plan` runs the plan
    in-process or a campaign runs the shard as a task: a memo left warm by
    an earlier shard would replay no simulation, so the shard's trace, wall
    and telemetry would depend on what ran before it in the process.
    """
    clear_memos()
    return resolve(shard.runner)(fast=fast, **shard.params)


def run_plan(module: Any, fast: bool = False) -> ExperimentResult:
    """Execute an experiment's shard plan in-process: each shard in plan
    order, its telemetry in the track named after its ``task_id`` (the
    track a pooled worker records into), then ``merge``."""
    payloads: dict[str, Any] = {}
    for shard in module.shards(fast=fast):
        with telemetry_track(shard.task_id):
            payloads[shard.task_id] = execute_shard(shard, fast)
    return module.merge(payloads, fast=fast)


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    experiment_id: partial(run_plan, module) for experiment_id, module in MODULES.items()
}


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    try:
        return EXPERIMENTS[experiment_id.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; have {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(experiment_id: str, fast: bool = False) -> ExperimentResult:
    return get_experiment(experiment_id)(fast=fast)


def clear_memos() -> None:
    """Drop every in-process simulation memo.

    :func:`execute_shard` calls this before every shard, so every run of an
    experiment — a campaign at any ``--jobs``, :func:`run_experiment`, the
    sanitizers — starts cold.  Work is shared between experiments through
    shard ``task_id`` deduplication, never through a memo.  A new
    module-level memo joins ``_MEMO_CLEARERS``.
    """
    for clear in _MEMO_CLEARERS:
        clear()


#: every module-level memo: the NPB run times and the NPB known-failure
#: locations
_MEMO_CLEARERS: tuple[Callable[[], None], ...] = (
    npb_runs.clear_cache,
    suite.clear_failure_memo,
)


@dataclass(frozen=True)
class ShardPlan:
    """Shard decomposition of one experiment (see repro.experiments.base)."""

    experiment_id: str
    shards: tuple[ShardSpec, ...]
    #: ``merge(payloads, fast=...) -> ExperimentResult``; runs in the parent
    merge: Callable[..., ExperimentResult]


def get_shard_plan(experiment_id: str, fast: bool = False) -> ShardPlan:
    """The experiment's shard decomposition (see :mod:`repro.experiments.base`)."""
    get_experiment(experiment_id)  # raise ExperimentError for unknown ids
    module = MODULES[experiment_id.lower()]
    return ShardPlan(
        experiment_id=experiment_id.lower(),
        shards=tuple(module.shards(fast=fast)),
        merge=module.merge,
    )
