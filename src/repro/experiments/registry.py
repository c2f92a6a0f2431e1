"""Experiment registry: id -> runner, plus the shard-plan lookup."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

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
#: hosts two experiments); the entry defines either ``run`` (an unsharded
#: experiment) or the ``shards``/``merge`` hooks (see repro.experiments.base)
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


def run_plan(module: Any, fast: bool = False) -> ExperimentResult:
    """Execute a sharded experiment in-process: each shard in plan order,
    its telemetry in the track named after its ``task_id`` (the track a
    pooled worker records into), then ``merge``."""
    payloads: dict[str, Any] = {}
    for shard in module.shards(fast=fast):
        with telemetry_track(shard.task_id):
            payloads[shard.task_id] = resolve(shard.runner)(fast=fast, **shard.params)
    return module.merge(payloads, fast=fast)


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    experiment_id: partial(run_plan, module) if hasattr(module, "shards") else module.run
    for experiment_id, module in MODULES.items()
}


def experiment_module(experiment_id: str) -> Optional[str]:
    """Dotted module defining ``experiment_id`` — the dependency root for
    its cache key — or ``None`` for ids injected directly into
    :data:`EXPERIMENTS` (tests), which fall back to whole-tree digests.

    Works for both real modules (``fig3``) and module-like namespaces
    (``experiments.faults`` hosts two experiments whose ``shards`` hooks
    carry the defining module).
    """
    entry = MODULES.get(experiment_id.lower())
    if entry is None:
        return None
    name = getattr(entry, "__name__", None)
    if isinstance(name, str) and "." in name:
        return name
    return getattr(getattr(entry, "shards", None), "__module__", None)


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

    The sanitizers call this before each instrumented run: a warm memo
    replays no simulation, so a trace or schedule projection captured over
    a memo hit would be vacuously empty and diverge from a cold run's.
    Campaign runners never call this: they share work between experiments
    through shard ``task_id`` deduplication, not memos.  A new
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


def get_shard_plan(experiment_id: str, fast: bool = False) -> Optional[ShardPlan]:
    """The experiment's shard decomposition, or ``None`` if it only runs whole.

    An experiment opts in by defining module-level ``shards``/``merge``
    hooks instead of ``run`` (see :mod:`repro.experiments.base`).
    Experiments registered directly in :data:`EXPERIMENTS` (tests do this)
    have no module entry and run whole.
    """
    get_experiment(experiment_id)  # raise ExperimentError for unknown ids
    module = MODULES.get(experiment_id.lower())
    shards = getattr(module, "shards", None)
    merge = getattr(module, "merge", None)
    if shards is None or merge is None:
        return None
    return ShardPlan(
        experiment_id=experiment_id.lower(),
        shards=tuple(shards(fast=fast)),
        merge=merge,
    )
