"""Experiment result container and the sharding protocol.

Every experiment module defines its *shard plan* through two hooks, and
the plan is the experiment's only definition:

``shards(fast=False) -> list[ShardSpec]``
    Decompose the experiment into independent units of work.  Each shard
    must be reproducible in a fresh process from its picklable ``params``
    alone, so running the plan in-process or on the worker pool gives the
    same payloads.  An experiment that is one indivisible run (tables 1-5,
    Fig. 9) declares a single shard whose ``task_id`` is the experiment id
    and whose payload is the result's ``title``/``paper_ref``/``rows``/
    ``text``.

``merge(payloads, fast=False) -> ExperimentResult``
    Reassemble the result from ``{shard task_id: payload}``.  Runs in the
    orchestrating process; it must be cheap (table rendering, no
    simulation).

The registry turns a plan into the experiment's callable (every shard
runner in plan order, then ``merge``), and the campaign runner executes,
caches and schedules the same shards at every ``--jobs`` value, so serial
and pooled runs agree by construction.  Every shard starts with cold
in-process memos (:func:`repro.experiments.registry.execute_shard`).

Shard ``task_id``s are global, not per-experiment: two experiments that
declare a shard with the same ``task_id`` (e.g. table6/table7 both needing
the ray2mesh run for one master site, or figs 10/12/13 sharing the grid16
NPB points) are deduplicated by the runner — the shard executes once per
campaign and both merges see its payload.  Payloads must be
JSON-serialisable so they can live in the on-disk result cache.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class ExperimentResult:
    """Structured + rendered outcome of one reproduced table/figure."""

    experiment_id: str
    title: str
    paper_ref: str
    #: structured data (list of dicts; schema is experiment-specific)
    rows: list[dict]
    #: rendered, human-readable report
    text: str

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class ShardSpec:
    """One independent, cacheable unit of a sharded experiment.

    ``runner`` is a ``"package.module:function"`` reference resolved inside
    the worker process; the function is called as ``fn(fast=fast, **params)``
    and must return a JSON-serialisable payload.
    """

    #: global cache/dedup key, e.g. ``"npb/grid16/ft"`` — identical task_ids
    #: across experiments are executed once per campaign
    task_id: str
    #: dotted reference to the worker-side function
    runner: str
    #: picklable, JSON-serialisable keyword arguments
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def module(self) -> str:
        """Module of the worker-side runner — the cache's dependency root:
        the shard's result can only depend on code reachable from here."""
        return self.runner.partition(":")[0]

    def cache_spec(self) -> str:
        """Digest of (runner, params) folded into the shard's cache key, so
        two shards that ever shared a ``task_id`` with different work could
        never replay each other's payloads."""
        from repro.runner.cache import spec_material

        return spec_material(self.runner, self.params)


def resolve(dotted: str) -> Callable[..., Any]:
    """The function a ``"package.module:function"`` reference names."""
    module_name, _, func_name = dotted.partition(":")
    return getattr(importlib.import_module(module_name), func_name)
