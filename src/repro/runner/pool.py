"""Hardened process-per-task experiment orchestrator.

Execution model
---------------
A campaign is a list of :class:`ExperimentSpec`.  Every experiment is its
shard plan (see :mod:`repro.experiments.base`), and the shard is the only
unit the runner executes, caches and schedules.  Each shard is first
looked up in the result cache; the misses become one task list, the same
at every ``jobs`` value, deduplicated campaign-wide by ``task_id``
(table6 and table7 share the four ray2mesh runs; figs 10/12/13 share the
grid16 NPB points).  With ``jobs <= 1`` the tasks run in-process, one
after another; otherwise on a process-per-task engine governed by a
:class:`RunnerPolicy`.  Every experiment is then merged in the parent from
its shard artifacts, cached or fresh — ``merge`` is cheap — and counts as
cached when all of its shards were.  Shard payloads are cached by the task
that computed them — the parent passes its cache root and dependency-aware
digest down — so a completed shard survives even a parent crash and is
never recomputed.

Every shard runs under :func:`repro.sim.core.trace_capture`, the same hook
the determinism sanitizer uses, from cold in-process memos
(:func:`repro.experiments.registry.execute_shard`).  An experiment records
the canonical combination of its shard hashes
(:meth:`EventTraceHasher.combine`).

Robustness
----------
On the pool, each task owns a dedicated worker process and a result pipe,
which is what makes real fault handling possible (a shared
``ProcessPoolExecutor`` cannot kill a hung task without poisoning the
whole pool):

* **timeouts** — a task that exceeds ``RunnerPolicy.timeout_s`` of wall
  clock is terminated (SIGTERM) and counted;
* **retries** — crashed (died without reporting) and timed-out tasks are
  resubmitted up to ``retries`` times with exponential backoff; a *clean*
  worker exception is deterministic and never retried;
* **graceful degradation** — a task that exhausts its attempts fails only
  the experiments depending on it; everything else completes, partial
  results merge, and the campaign reports what happened through the
  ``retries``/``timeouts`` counters (surfaced in
  ``BENCH_experiments.json``).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Optional

from repro.errors import ReproError
from repro.mpi.tracing import EventTraceHasher
from repro.obs.runtime import TelemetryConfig, merge_payloads
from repro.obs.runtime import session as telemetry_session
from repro.runner.cache import ResultCache
from repro.sim.core import trace_capture

if TYPE_CHECKING:
    from repro.experiments.base import ShardSpec
    from repro.experiments.registry import ShardPlan

#: fork keeps workers cheap and lets tests inject registry entries; fall
#: back to the platform default where fork does not exist (Windows).
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else None

#: parent poll interval while supervising workers (host-side seconds)
_POLL_INTERVAL_S = 0.02


@dataclass(frozen=True)
class RunnerPolicy:
    """Fault-handling knobs of the parallel engine.

    ``timeout_s`` is wall-clock per *task* (one shard), not per campaign;
    ``None`` disables timeouts.  Crashed and timed-out tasks are retried up
    to ``retries`` times, sleeping ``backoff_s * 2**attempt`` between
    attempts.
    """

    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_s: float = 0.5

    def __post_init__(self):
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ReproError("timeout_s must be positive (or None to disable)")
        if self.retries < 0:
            raise ReproError("retries must be >= 0")
        if self.backoff_s < 0:
            raise ReproError("backoff_s must be >= 0")


DEFAULT_POLICY = RunnerPolicy()


@dataclass(frozen=True)
class ExperimentSpec:
    """One requested experiment run."""

    experiment_id: str
    fast: bool = False

    @property
    def key(self) -> tuple[str, bool]:
        return (self.experiment_id, self.fast)


@dataclass
class ExperimentRun:
    """Outcome of one experiment within a campaign."""

    experiment_id: str
    fast: bool
    ok: bool
    #: every shard of the experiment replayed from the result cache
    cached: bool = False
    #: aggregate worker seconds: the sum over its shards, including shards
    #: shared with other experiments (a cached shard reports the wall of
    #: the run that computed it)
    wall_s: float = 0.0
    #: other experiment ids this run shared work with (tables 6/7 share
    #: the four ray2mesh runs): experiments consuming at least one common
    #: shard, whose wall time is counted in *both* ``wall_s`` figures
    shared_with: list[str] = field(default_factory=list)
    text: str = ""
    rows: list = field(default_factory=list)
    title: str = ""
    paper_ref: str = ""
    trace_hash: str = ""
    trace_events: int = 0
    error: Optional[str] = None
    #: merged telemetry payload (``repro.obs``); present only when the
    #: campaign ran with telemetry enabled.  Deliberately NOT part of
    #: :meth:`artifact`: telemetry runs bypass the result cache, and the
    #: cached/golden artifacts must stay byte-identical either way.
    telemetry: Optional[dict] = None
    #: compact span-analytics summary (``repro.obs.aggregate.rollup``)
    #: derived from ``telemetry``; recorded into the campaign manifest so
    #: traced campaigns leave a greppable footprint of where the ticks
    #: went.  Like ``telemetry``, never part of :meth:`artifact`.
    rollup: Optional[dict] = None

    def artifact(self) -> dict[str, Any]:
        """The structured JSON artifact written to the out dir."""
        return {
            "kind": "experiment",
            "experiment_id": self.experiment_id,
            "fast": self.fast,
            "ok": self.ok,
            "wall_s": round(self.wall_s, 3),
            "shared_with": self.shared_with,
            "trace_hash": self.trace_hash,
            "trace_events": self.trace_events,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "rows": self.rows,
            "text": self.text,
            "error": self.error,
        }


@dataclass
class CampaignResult:
    """Everything one ``run_campaign`` call did."""

    runs: list[ExperimentRun]
    wall_s: float
    jobs: int
    cache_enabled: bool
    #: crashed/timed-out task re-submissions performed by the engine
    retries: int = 0
    #: tasks terminated for exceeding the policy's wall-clock timeout
    timeouts: int = 0
    #: the campaign recorded telemetry (and therefore bypassed the cache)
    telemetry_enabled: bool = False
    #: per-shard worker wall seconds, by task_id (cached shards report the
    #: wall of the run that originally computed them) — the cost model's
    #: training data, recorded into the manifest
    shard_walls: dict[str, float] = field(default_factory=dict)
    #: result-cache traffic: the parent's shard lookups plus every store
    #: the campaign's shard tasks performed
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0

    @property
    def failures(self) -> list[ExperimentRun]:
        return [run for run in self.runs if not run.ok]

    @property
    def cached(self) -> list[ExperimentRun]:
        return [run for run in self.runs if run.cached]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        done = len(self.runs) - len(self.failures)
        parts = [
            f"{done}/{len(self.runs)} experiments ok",
            f"{len(self.cached)} cached",
            f"jobs={self.jobs}",
            f"{self.wall_s:.1f}s wall",
        ]
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.failures:
            failed = ", ".join(run.experiment_id for run in self.failures)
            parts.append(f"FAILED: {failed}")
        return "; ".join(parts)

    def cache_summary(self) -> str:
        """One-line cache traffic report (printed by ``repro run``)."""
        if not self.cache_enabled:
            return "cache: disabled"
        return (
            f"cache: {self.cache_hits} hit{'s' if self.cache_hits != 1 else ''}, "
            f"{self.cache_misses} miss{'es' if self.cache_misses != 1 else ''}, "
            f"{self.cache_stores} stored"
        )


# --- worker-side functions (module-level: picklable by reference) ----------------
def _shard_worker(
    shard: "ShardSpec",
    fast: bool,
    cache_root: str = "",
    cache_digest: str = "",
    cache_enabled: bool = False,
    telemetry: "tuple[bool, bool] | None" = None,
) -> dict:
    """Execute one shard under trace capture; returns its artifact.

    When the parent hands down its cache coordinates, the artifact is
    stored *here*, in the worker — the parent passes the shard's
    already-resolved digest, and a completed shard survives even if the
    parent dies before collecting it.
    """
    from repro.experiments.registry import execute_shard

    started = time.monotonic()  # host-side timing, not sim state  # lint: disable=DET002
    config = TelemetryConfig.from_tuple(telemetry)
    sess = None
    with trace_capture() as hasher:
        if config is None:
            payload = execute_shard(shard, fast)
        else:
            # The shard's records default into the track named after its
            # task_id — the track registry.run_plan switches to in-process.
            with telemetry_session(config, default_track=shard.task_id) as sess:
                payload = execute_shard(shard, fast)
    elapsed = time.monotonic() - started  # lint: disable=DET002
    artifact = {
        "kind": "shard",
        "payload": payload,
        "wall_s": round(elapsed, 3),
        "trace_hash": hasher.hexdigest(),
        "trace_events": hasher.events,
    }
    if sess is not None:
        artifact["telemetry"] = sess.to_payload()
    if cache_enabled and cache_root:
        cache = ResultCache(root=cache_root, digest=cache_digest, enabled=True)
        cache.store(shard.task_id, fast, artifact)
    return artifact


def _task_main(conn, target: Callable[..., Any], args: tuple) -> None:
    """Worker process entry point: run ``target`` and report on the pipe.

    A clean exception is reported as ``("error", message)`` — it is
    deterministic, so the parent fails the task without retrying.  A
    worker that dies before sending anything (segfault, ``os._exit``,
    SIGKILL) is detected by the parent through its exit code instead.
    """
    try:
        result = target(*args)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - marshalled to the parent
        try:
            conn.send(("error", _describe_error(exc)))
        except Exception:  # noqa: BLE001 - parent sees a crash instead
            pass
    finally:
        conn.close()


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --- the process-per-task engine --------------------------------------------------
@dataclass
class _Task:
    """One shard for the engine, keyed by ``(task_id, fast)``."""

    key: tuple
    target: Callable[..., Any]
    args: tuple
    label: str
    attempts: int = 0


class _Running:
    """Book-keeping for one live worker process."""

    __slots__ = ("task", "process", "conn", "deadline")

    def __init__(self, task: _Task, process, conn, deadline: Optional[float]):
        self.task = task
        self.process = process
        self.conn = conn
        self.deadline = deadline


def _run_tasks(
    tasks: list[_Task],
    jobs: int,
    policy: RunnerPolicy,
) -> tuple[dict[tuple, tuple[str, Any]], int, int]:
    """Run ``tasks``: in-process for ``jobs <= 1``, else supervised on up
    to ``jobs`` worker processes.

    Returns ``(outcomes, retries, timeouts)`` where each outcome is
    ``("ok", payload)`` or ``("error", message)``.  Never raises for a
    failing task; the engine always drains.  In-process, a crash takes the
    campaign down and a hung task cannot be killed, so the policy's
    timeout and retries apply on the pool only.
    """
    outcomes: dict[tuple, tuple[str, Any]] = {}
    if jobs <= 1:
        for task in tasks:
            try:
                outcomes[task.key] = ("ok", task.target(*task.args))
            except Exception as exc:  # noqa: BLE001 - surfaced in the campaign result
                outcomes[task.key] = ("error", _describe_error(exc))
        return outcomes, 0, 0

    context = multiprocessing.get_context(_START_METHOD)
    ready: list[_Task] = list(tasks)
    delayed: list[tuple[float, _Task]] = []  # (not-before, task) backoff queue
    running: list[_Running] = []
    n_retries = 0
    n_timeouts = 0

    def launch(task: _Task) -> None:
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_task_main,
            args=(child_conn, task.target, task.args),
            name=f"repro-worker:{task.label}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent only reads
        deadline = (
            time.monotonic() + policy.timeout_s  # lint: disable=DET002
            if policy.timeout_s is not None
            else None
        )
        running.append(_Running(task, process, parent_conn, deadline))

    def retire(entry: _Running) -> None:
        entry.conn.close()
        entry.process.join(timeout=5.0)
        if entry.process.is_alive():  # ignored SIGTERM: escalate
            entry.process.kill()
            entry.process.join()
        running.remove(entry)

    def requeue_or_fail(task: _Task, reason: str) -> None:
        nonlocal n_retries
        task.attempts += 1
        if task.attempts <= policy.retries:
            n_retries += 1
            delay = policy.backoff_s * (2 ** (task.attempts - 1))
            not_before = time.monotonic() + delay  # lint: disable=DET002
            delayed.append((not_before, task))
        else:
            outcomes[task.key] = (
                "error",
                f"{reason} (gave up after {task.attempts} attempt"
                f"{'s' if task.attempts != 1 else ''})",
            )

    while ready or delayed or running:
        now = time.monotonic()  # lint: disable=DET002

        still_delayed: list[tuple[float, _Task]] = []
        for not_before, task in delayed:
            if not_before <= now:
                ready.append(task)
            else:
                still_delayed.append((not_before, task))
        delayed = still_delayed

        while ready and len(running) < jobs:
            launch(ready.pop(0))

        progressed = False
        for entry in list(running):
            task, process = entry.task, entry.process
            # Read the exit code *before* polling the pipe: a worker's
            # send happens-before its exit, so "exited and still no
            # message" is a definite crash, never a lost result.
            exited = process.exitcode is not None
            message: Optional[tuple[str, Any]] = None
            if entry.conn.poll():
                try:
                    message = entry.conn.recv()
                except (EOFError, OSError):
                    message = None  # died mid-send: handled as a crash below
            if message is not None:
                outcomes[task.key] = message
                retire(entry)
                progressed = True
                continue
            if exited:
                # Exited without reporting: a hard crash (segfault,
                # os._exit, OOM kill).  Retry with backoff.
                retire(entry)
                requeue_or_fail(
                    task, f"worker crashed (exit code {process.exitcode})"
                )
                progressed = True
                continue
            if entry.deadline is not None and now >= entry.deadline:
                process.terminate()
                retire(entry)
                n_timeouts += 1
                requeue_or_fail(
                    task, f"timed out after {policy.timeout_s:g}s wall clock"
                )
                progressed = True
        if not progressed and (running or delayed):
            time.sleep(_POLL_INTERVAL_S)
    return outcomes, n_retries, n_timeouts


# --- orchestration ---------------------------------------------------------------
def _shard_sharers(
    plans: "dict[tuple[str, bool], ShardPlan]",
) -> dict[tuple[str, bool], list[str]]:
    """Per spec key, the other experiment ids consuming any common shard."""
    shard_ids = {
        key: {shard.task_id for shard in plan.shards} for key, plan in plans.items()
    }
    return {
        key: sorted(
            {
                other[0]
                for other, other_ids in shard_ids.items()
                if other != key and other_ids & ids
            }
        )
        for key, ids in shard_ids.items()
    }


def _failed_run(spec: ExperimentSpec, error: str) -> ExperimentRun:
    return ExperimentRun(
        experiment_id=spec.experiment_id, fast=spec.fast, ok=False, error=error
    )


def _order_by_cost(tasks: list[_Task], estimates: dict[str, float]) -> None:
    """Longest-estimated-first (LPT) dispatch order, in place.

    With FIFO submission the 4-worker makespan was hostage to whichever
    heavyweight (fig10, fig12, the ray2mesh shards) happened to land last;
    sorting by historical wall estimates starts the long poles first so
    the short tail packs in behind them.  Tasks with no history sort
    before everything (an unknown might *be* the long pole); ties break on
    the label so the order is deterministic for a given manifest.
    """
    tasks.sort(key=lambda task: (-estimates.get(task.key[0], math.inf), task.label))


def _run_plans(
    specs: list[ExperimentSpec],
    cache: ResultCache,
    jobs: int,
    policy: RunnerPolicy,
    telemetry: "tuple[bool, bool] | None" = None,
    estimates: "dict[str, float] | None" = None,
) -> tuple[dict[tuple[str, bool], ExperimentRun], int, int, dict[str, float]]:
    """Run every experiment's shard plan: load the cached shards, execute
    the rest as one deduplicated task list (in-process or on the pool),
    then merge each experiment from its shard artifacts."""
    from repro.experiments.registry import get_shard_plan

    runs: dict[tuple[str, bool], ExperimentRun] = {}
    plans: dict[tuple[str, bool], ShardPlan] = {}
    tasks: list[_Task] = []
    submitted: set[tuple[str, bool]] = set()
    #: (shard task_id, fast) -> completed shard artifact
    shard_results: dict[tuple[str, bool], dict] = {}
    #: shards replayed from the cache
    cache_hits: set[tuple[str, bool]] = set()

    for spec in specs:
        try:
            plans[spec.key] = plan = get_shard_plan(spec.experiment_id, spec.fast)
        except Exception as exc:  # noqa: BLE001
            runs[spec.key] = _failed_run(spec, _describe_error(exc))
            continue
        for shard in plan.shards:
            shard_key = (shard.task_id, spec.fast)
            if shard_key in shard_results or shard_key in submitted:
                continue  # deduplicated across experiments
            cached = cache.load(
                shard.task_id, spec.fast, module=shard.module, spec=shard.cache_spec()
            )
            if cached is not None:
                shard_results[shard_key] = cached
                cache_hits.add(shard_key)
                continue
            submitted.add(shard_key)
            tasks.append(
                _Task(
                    key=shard_key,
                    target=_shard_worker,
                    # The worker stores its own artifact: the parent
                    # resolves the shard's dependency-aware digest once and
                    # ships it down, so the worker never walks the tree.
                    args=(
                        shard,
                        spec.fast,
                        str(cache.root),
                        cache.effective_digest(
                            module=shard.module, spec=shard.cache_spec()
                        ),
                        cache.enabled,
                        telemetry,
                    ),
                    label=shard.task_id,
                )
            )

    if jobs > 1:
        _order_by_cost(tasks, estimates or {})
    outcomes, n_retries, n_timeouts = _run_tasks(tasks, jobs, policy)
    for shard_key, (status, payload) in outcomes.items():
        shard_results[shard_key] = payload if status == "ok" else {"error": payload}
        if status == "ok" and cache.enabled:
            # The worker stored its own artifact; account for it here so
            # the campaign's store counter covers shard traffic too.
            cache.stores += 1

    shard_walls = {
        task_id: round(float(artifact["wall_s"]), 3)
        for (task_id, _fast), artifact in sorted(shard_results.items())
        if "wall_s" in artifact
    }
    sharers = _shard_sharers(plans)
    for spec in specs:
        if spec.key not in runs:
            runs[spec.key] = _merge_sharded(
                spec, plans[spec.key], shard_results, cache_hits, sharers[spec.key]
            )
    return runs, n_retries, n_timeouts, shard_walls


def _merge_sharded(
    spec: ExperimentSpec,
    plan: "ShardPlan",
    shard_results: dict[tuple[str, bool], dict],
    cache_hits: "AbstractSet[tuple[str, bool]]" = frozenset(),
    shared_with: "list[str] | None" = None,
) -> ExperimentRun:
    payloads: dict[str, Any] = {}
    shard_hashes: dict[str, str] = {}
    shard_telemetry: dict[str, dict] = {}
    wall = 0.0
    events = 0
    failed: list[str] = []
    for shard in plan.shards:
        artifact = shard_results.get((shard.task_id, spec.fast), {})
        if "payload" not in artifact:
            failed.append(f"{shard.task_id} ({artifact.get('error', 'missing')})")
            continue
        payloads[shard.task_id] = artifact["payload"]
        shard_hashes[shard.task_id] = artifact.get("trace_hash", "")
        if artifact.get("telemetry"):
            shard_telemetry[shard.task_id] = artifact["telemetry"]
        wall += float(artifact.get("wall_s", 0.0))
        events += int(artifact.get("trace_events", 0))
    if failed:
        return _failed_run(spec, "shard failure: " + "; ".join(failed))
    try:
        result = plan.merge(payloads, fast=spec.fast)
    except Exception as exc:  # noqa: BLE001
        return _failed_run(spec, f"merge failed: {_describe_error(exc)}")
    return ExperimentRun(
        experiment_id=spec.experiment_id,
        fast=spec.fast,
        ok=True,
        cached=all((shard.task_id, spec.fast) in cache_hits for shard in plan.shards),
        wall_s=wall,
        # Shared shard walls are counted into every consumer's wall_s;
        # this names the other experiments double-counting them.
        shared_with=list(shared_with or []),
        text=result.text,
        rows=result.rows,
        title=result.title,
        paper_ref=result.paper_ref,
        trace_hash=EventTraceHasher.combine(shard_hashes, result.text),
        trace_events=events,
        # Sorted task_id order, independent of shard completion order —
        # the jobs-independence of telemetry exports relies on it.
        telemetry=(
            merge_payloads(
                shard_telemetry[task_id] for task_id in sorted(shard_telemetry)
            )
            if shard_telemetry
            else None
        ),
    )


def run_campaign(
    specs: list[ExperimentSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    out_dir: "Path | str | None" = None,
    progress: Optional[Callable[[str], None]] = None,
    policy: Optional[RunnerPolicy] = None,
    telemetry: Optional[TelemetryConfig] = None,
    estimates: "dict[str, float] | None" = None,
) -> CampaignResult:
    """Run a campaign; never raises for individual experiment failures.

    ``cache`` may be injected (tests use a tmp root / pinned digest);
    otherwise a default :class:`ResultCache` under ``.repro-cache/`` is
    built with ``enabled=use_cache``.  ``policy`` tunes timeout/retry
    handling on the pool; ``jobs <= 1`` runs the same tasks in-process,
    where a hung task cannot be killed.

    ``estimates`` maps shard ``task_id``s to historical wall seconds; the
    parallel engine dispatches longest-estimated-first so the makespan is
    not hostage to a heavyweight landing last.  ``None`` loads the history
    recorded in ``BENCH_experiments.json`` (missing file: every task is
    unknown and the order degrades to the deterministic label order).

    ``telemetry`` turns on the ``repro.obs`` recorder in every worker and
    attaches the merged payload to each :class:`ExperimentRun`.  Telemetry
    campaigns bypass the result cache entirely — cached artifacts carry no
    telemetry, and a half-cached campaign would return half-empty traces.
    """
    started = time.monotonic()  # host-side timing, not sim state  # lint: disable=DET002
    if telemetry is not None:
        cache = ResultCache(enabled=False, digest="")
    elif cache is None:
        cache = ResultCache(enabled=use_cache, digest="" if not use_cache else None)
    if policy is None:
        policy = DEFAULT_POLICY
    telemetry_pair = telemetry.as_tuple() if telemetry is not None else None
    if estimates is None and jobs > 1:
        from repro.runner.manifest import load_task_estimates

        estimates = load_task_estimates()

    unique = list(dict.fromkeys(specs))
    runs, n_retries, n_timeouts, shard_walls = _run_plans(
        unique, cache, jobs, policy, telemetry_pair, estimates
    )
    if progress is not None:
        for spec in unique:
            run = runs[spec.key]
            state = "failed" if not run.ok else ("cached" if run.cached else "ok")
            progress(f"{run.experiment_id}: {run.wall_s:7.1f}s [{state}]")
    ordered = [runs[spec.key] for spec in specs]
    if telemetry is not None and telemetry.spans:
        from repro.obs.aggregate import rollup as span_rollup

        for run in ordered:
            if run.telemetry is not None:
                run.rollup = span_rollup(run.telemetry)
    elapsed = time.monotonic() - started  # lint: disable=DET002
    campaign = CampaignResult(
        runs=ordered,
        wall_s=elapsed,
        jobs=jobs,
        cache_enabled=cache.enabled,
        retries=n_retries,
        timeouts=n_timeouts,
        telemetry_enabled=telemetry is not None,
        shard_walls=shard_walls,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        cache_stores=cache.stores,
    )
    if cache.enabled:
        cache.write_stats(
            {
                "jobs": jobs,
                "experiments": len(campaign.runs),
                "cached_experiments": len(campaign.cached),
            }
        )
    if out_dir is not None:
        write_reports(campaign, Path(out_dir))
    return campaign


def write_reports(campaign: CampaignResult, out_dir: Path) -> None:
    """``<id>.txt`` rendered reports + ``json/<id>.json`` artifacts.

    The text format (report, blank line, wall/fast footer) is the one the
    committed goldens under ``results/`` use; CI diffs these files with
    the footer line ignored.
    """
    import json

    json_dir = out_dir / "json"
    json_dir.mkdir(parents=True, exist_ok=True)
    for run in campaign.runs:
        text_path = out_dir / f"{run.experiment_id}.txt"
        json_path = json_dir / f"{run.experiment_id}.json"
        if not run.ok:
            # Drop whatever a previous run left behind, so a failure never
            # leaves a stale report that looks current.
            text_path.unlink(missing_ok=True)
            json_path.unlink(missing_ok=True)
            continue
        text_path.write_text(
            run.text + f"\n\n[{run.wall_s:.1f}s wall, fast={run.fast}]\n",
            encoding="utf-8",
        )
        json_path.write_text(
            json.dumps(run.artifact(), indent=1), encoding="utf-8"
        )
