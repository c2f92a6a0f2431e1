"""Runner subsystem: cache semantics, parallel/serial identity, failures.

The fake experiments below are one-shard plans injected into the live
registry; the pool uses the fork start method (skipped where unavailable),
so worker processes inherit the injected entries without pickling them.
"""

import importlib.util
import json
import logging
import multiprocessing
import os
import pathlib
import sys
import time
from functools import partial
from types import SimpleNamespace

import pytest

from repro.experiments import EXPERIMENTS, registry, run_experiment
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.registry import get_shard_plan
from repro.runner import (
    ExperimentSpec,
    ResultCache,
    RunnerPolicy,
    record_campaign,
    run_campaign,
)
from repro.runner.cache import source_digest

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests require the fork start method",
)

REPO = pathlib.Path(__file__).resolve().parent.parent


def _tiny_shard(fast=False):
    return {"title": "Tiny", "paper_ref": "Table 0", "rows": [{"x": 1}], "text": "tiny report"}


def _raising_shard(fast=False):
    raise RuntimeError("synthetic experiment failure")


def _crashing_shard(fast=False):
    os._exit(3)  # simulate a worker segfault: no exception, no cleanup


def _hanging_shard(fast=False):
    time.sleep(60)  # a stuck shard: only the supervisor's timeout ends it
    return _tiny_shard(fast)


def _flaky_shard(marker, fast=False):
    marker = pathlib.Path(marker)
    if not marker.exists():
        marker.write_text("first attempt crashed")
        os._exit(9)
    return {"title": "Flaky", "paper_ref": "-", "rows": [{"x": 1}], "text": "flaky ok"}


def _register(monkeypatch, experiment_id, module):
    """Inject ``module``'s shard plan as experiment ``experiment_id``."""
    monkeypatch.setitem(registry.MODULES, experiment_id, module)
    monkeypatch.setitem(EXPERIMENTS, experiment_id, partial(registry.run_plan, module))
    return experiment_id


def _one_shard(monkeypatch, experiment_id, runner, **params):
    """Register a one-shard experiment whose shard ``task_id`` is its id."""

    def shards(fast=False):
        return [ShardSpec(experiment_id, f"{__name__}:{runner}", params)]

    def merge(payloads, fast=False):
        return ExperimentResult(experiment_id, **payloads[experiment_id])

    return _register(monkeypatch, experiment_id, SimpleNamespace(shards=shards, merge=merge))


def _entry_path(cache, experiment_id):
    """Cache entry of a one-shard experiment."""
    (shard,) = get_shard_plan(experiment_id, fast=True).shards
    return cache.path(shard.task_id, True, module=shard.module, spec=shard.cache_spec())


@pytest.fixture()
def tiny(monkeypatch):
    return _one_shard(monkeypatch, "tiny", "_tiny_shard")


# --- cache semantics --------------------------------------------------------------
def test_cache_miss_then_hit(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    specs = [ExperimentSpec(tiny, fast=True)]

    first = run_campaign(specs, cache=cache)
    assert first.ok and not first.runs[0].cached
    assert first.runs[0].trace_hash  # sanitizer hook ran

    second = run_campaign(specs, cache=cache)
    assert second.ok and second.runs[0].cached
    assert second.runs[0].text == first.runs[0].text
    assert second.runs[0].trace_hash == first.runs[0].trace_hash


def test_source_digest_invalidates_cache(tmp_path, tiny):
    specs = [ExperimentSpec(tiny, fast=True)]
    run_campaign(specs, cache=ResultCache(root=tmp_path, digest="digest-a"))
    # Same tree, same digest -> hit; changed source digest -> miss.
    hit = run_campaign(specs, cache=ResultCache(root=tmp_path, digest="digest-a"))
    miss = run_campaign(specs, cache=ResultCache(root=tmp_path, digest="digest-b"))
    assert hit.runs[0].cached
    assert not miss.runs[0].cached


def test_fast_flag_is_part_of_the_key(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    full = run_campaign([ExperimentSpec(tiny, fast=False)], cache=cache)
    assert not full.runs[0].cached


def test_disabled_cache_never_hits(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a", enabled=False)
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    again = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert not again.runs[0].cached
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_cache_roundtrips_infinities(tmp_path):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    cache.store("npb/test/point", True, {"payload": {"times": {"a": float("inf")}}})
    loaded = cache.load("npb/test/point", True)
    assert loaded["payload"]["times"]["a"] == float("inf")


def test_source_digest_changes_with_content(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    before = source_digest(tmp_path)
    (tmp_path / "m.py").write_text("x = 2\n")
    assert source_digest(tmp_path) != before


# --- parallel == serial -----------------------------------------------------------
@needs_fork
def test_sharded_parallel_output_is_byte_identical_to_serial(tmp_path):
    direct = run_experiment("fig6", fast=True)
    campaign = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        jobs=4,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
        out_dir=tmp_path / "out",
    )
    run = campaign.runs[0]
    assert run.ok
    assert run.text == direct.text
    # the written report is the golden format: text + wall/fast footer
    written = (tmp_path / "out" / "fig6.txt").read_text()
    body, footer = written.rsplit("\n\n", 1)
    assert body == direct.text
    assert footer.startswith("[") and "s wall, fast=True]" in footer
    # warm-cache replay returns the same bytes
    warm = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        jobs=4,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert warm.runs[0].cached and warm.runs[0].text == direct.text


def test_shard_plans_dedupe_across_experiments():
    t6 = [s.task_id for s in get_shard_plan("table6", fast=True).shards]
    t7 = [s.task_id for s in get_shard_plan("table7", fast=True).shards]
    assert t6 == t7  # one ray2mesh run per site feeds both tables

    grid16 = {s.task_id for s in get_shard_plan("fig10", fast=True).shards}
    assert grid16 <= {s.task_id for s in get_shard_plan("fig12", fast=True).shards}
    assert grid16 <= {s.task_id for s in get_shard_plan("fig13", fast=True).shards}


def test_every_experiment_has_a_plan():
    assert len(EXPERIMENTS) == 19
    for experiment_id in EXPERIMENTS:
        assert get_shard_plan(experiment_id, fast=True).shards, experiment_id
    (table1,) = get_shard_plan("table1", fast=True).shards
    assert table1.task_id == "table1"


#: tags of the shards :func:`_counted_shard` executed in this process
_SHARD_CALLS: list[str] = []


def _counted_shard(tag: str, fast: bool = False) -> dict:
    _SHARD_CALLS.append(tag)
    return {"tag": tag}


def _plan_experiment(experiment_id: str, tags: tuple[str, ...]) -> SimpleNamespace:
    """A sharded experiment whose shards are ``dedup/<tag>`` tasks."""

    def shards(fast=False):
        return [
            ShardSpec(
                task_id=f"dedup/{tag}",
                runner=f"{__name__}:_counted_shard",
                params={"tag": tag},
            )
            for tag in tags
        ]

    def merge(payloads, fast=False):
        text = " ".join(payloads[f"dedup/{tag}"]["tag"] for tag in tags)
        return ExperimentResult(experiment_id, experiment_id, "-", [], text)

    return SimpleNamespace(shards=shards, merge=merge)


def test_serial_campaign_runs_a_shared_shard_once(tmp_path, monkeypatch):
    for experiment_id, tags in (("left", ("shared", "left")), ("right", ("shared", "right"))):
        _register(monkeypatch, experiment_id, _plan_experiment(experiment_id, tags))
    _SHARD_CALLS.clear()
    campaign = run_campaign(
        [ExperimentSpec("left", fast=True), ExperimentSpec("right", fast=True)],
        jobs=1,
        cache=ResultCache(root=tmp_path, digest="digest-a", enabled=False),
    )
    assert campaign.ok
    assert sorted(_SHARD_CALLS) == ["left", "right", "shared"]
    assert [run.text for run in campaign.runs] == ["shared left", "shared right"]
    assert [run.shared_with for run in campaign.runs] == [["right"], ["left"]]
    # The in-process executor runs the same plan, one experiment at a time.
    _SHARD_CALLS.clear()
    assert run_experiment("right", fast=True).text == "shared right"
    assert _SHARD_CALLS == ["shared", "right"]


def test_consecutive_in_process_campaigns_start_cold(monkeypatch):
    """Regression: the NPB point memo outlived a campaign, so a second
    in-process campaign replayed it and reported 0 trace events."""
    from repro.experiments import npb_runs

    (ep,) = [s for s in npb_runs.npb_point_shards(("grid4",)) if s.task_id.endswith("/ep")]
    module = SimpleNamespace(
        shards=lambda fast=False: [ep],
        merge=lambda payloads, fast=False: ExperimentResult(
            "ep_grid4", "EP", "-", [], repr(payloads[ep.task_id])
        ),
    )
    _register(monkeypatch, "ep_grid4", module)
    first, second = (
        run_campaign([ExperimentSpec("ep_grid4", fast=True)], jobs=1, use_cache=False).runs[0]
        for _ in range(2)
    )
    assert first.ok and second.ok
    assert first.trace_events > 0
    assert second.trace_events == first.trace_events
    assert second.trace_hash == first.trace_hash


# --- failure surfacing ------------------------------------------------------------
def test_raising_experiment_fails_without_aborting_campaign(tmp_path, monkeypatch, tiny):
    _one_shard(monkeypatch, "boom", "_raising_shard")
    campaign = run_campaign(
        [ExperimentSpec("boom", fast=True), ExperimentSpec(tiny, fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert not campaign.ok
    boom, tiny_run = campaign.runs
    assert not boom.ok and "RuntimeError" in boom.error
    assert tiny_run.ok  # the loop kept going
    assert "FAILED: boom" in campaign.summary()
    # failures are never cached
    rerun = run_campaign(
        [ExperimentSpec("boom", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert not rerun.runs[0].cached


@needs_fork
def test_raising_experiment_fails_on_the_pool_too(tmp_path, monkeypatch, tiny):
    _one_shard(monkeypatch, "boom", "_raising_shard")
    campaign = run_campaign(
        [ExperimentSpec("boom", fast=True), ExperimentSpec(tiny, fast=True)],
        jobs=2,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert not campaign.ok
    assert "RuntimeError" in campaign.runs[0].error
    assert campaign.runs[1].ok


@needs_fork
def test_worker_crash_surfaces_as_failure_not_hang(tmp_path, monkeypatch):
    _one_shard(monkeypatch, "crash", "_crashing_shard")
    campaign = run_campaign(
        [ExperimentSpec("crash", fast=True)],
        jobs=2,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert not campaign.ok
    assert campaign.runs[0].error  # BrokenProcessPool, surfaced as text


# --- robustness policy: timeouts, retries, graceful degradation -------------------
@needs_fork
def test_hung_task_times_out_retries_then_fails(tmp_path, monkeypatch, tiny):
    _one_shard(monkeypatch, "hang", "_hanging_shard")
    campaign = run_campaign(
        [ExperimentSpec("hang", fast=True), ExperimentSpec(tiny, fast=True)],
        jobs=2,
        cache=ResultCache(root=tmp_path / "cache", digest="digest-a"),
        policy=RunnerPolicy(timeout_s=0.5, retries=1, backoff_s=0.01),
        out_dir=tmp_path / "out",
    )
    assert not campaign.ok
    hang, tiny_run = campaign.runs
    assert "timed out after 0.5s wall clock" in hang.error
    assert "gave up after 2 attempts" in hang.error
    assert tiny_run.ok  # partial results: the healthy experiment completed
    assert campaign.timeouts == 2  # initial attempt + one retry
    assert campaign.retries == 1
    # ... and its report was still written, while the hung one has none
    assert (tmp_path / "out" / "tiny.txt").exists()
    assert not (tmp_path / "out" / "hang.txt").exists()


@needs_fork
def test_crashed_task_recovers_on_retry(tmp_path, monkeypatch):
    _one_shard(monkeypatch, "flaky", "_flaky_shard", marker=str(tmp_path / "crashed-once"))
    campaign = run_campaign(
        [ExperimentSpec("flaky", fast=True)],
        jobs=2,
        cache=ResultCache(root=tmp_path / "cache", digest="digest-a"),
        policy=RunnerPolicy(timeout_s=30.0, retries=2, backoff_s=0.01),
    )
    assert campaign.ok
    assert campaign.runs[0].text == "flaky ok"
    assert campaign.retries == 1  # one crash, one successful resubmission
    assert campaign.timeouts == 0


@needs_fork
def test_crashing_task_exhausts_retries_with_attempt_count(tmp_path, monkeypatch):
    _one_shard(monkeypatch, "crash", "_crashing_shard")
    campaign = run_campaign(
        [ExperimentSpec("crash", fast=True)],
        jobs=2,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
        policy=RunnerPolicy(timeout_s=30.0, retries=2, backoff_s=0.01),
    )
    assert not campaign.ok
    assert "worker crashed (exit code 3)" in campaign.runs[0].error
    assert "gave up after 3 attempts" in campaign.runs[0].error
    assert campaign.retries == 2


@needs_fork
def test_retry_and_timeout_counters_reach_the_manifest(tmp_path, monkeypatch):
    _one_shard(monkeypatch, "hang", "_hanging_shard")
    campaign = run_campaign(
        [ExperimentSpec("hang", fast=True)],
        jobs=2,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
        policy=RunnerPolicy(timeout_s=0.3, retries=1, backoff_s=0.01),
    )
    manifest = tmp_path / "bench.json"
    record_campaign(campaign, path=manifest, label="robustness")
    entry = json.loads(manifest.read_text())["runs"][-1]
    assert entry["retries"] == campaign.retries == 1
    assert entry["timeouts"] == campaign.timeouts == 2


def test_runner_policy_validation():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        RunnerPolicy(timeout_s=0.0)
    with pytest.raises(ReproError):
        RunnerPolicy(retries=-1)
    with pytest.raises(ReproError):
        RunnerPolicy(backoff_s=-0.1)


@needs_fork
def test_workers_store_with_the_parent_digest(tmp_path, tiny):
    # The parent computes source_digest() once and ships it to workers; a
    # worker recomputing its own digest would be both slow and racy.
    cache = ResultCache(root=tmp_path, digest="pinned-digest")
    campaign = run_campaign([ExperimentSpec(tiny, fast=True)], jobs=2, cache=cache)
    assert campaign.ok
    assert _entry_path(cache, tiny).exists()
    rerun = run_campaign([ExperimentSpec(tiny, fast=True)], jobs=2, cache=cache)
    assert rerun.runs[0].cached


# --- cache corruption: miss + evict + warn ----------------------------------------
def test_corrupt_cache_entry_is_a_miss_and_gets_evicted(tmp_path, caplog):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    cache.store("tiny", True, {"ok": True})
    path = cache.path("tiny", True)
    path.write_text("{ truncated garbage", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
        assert cache.load("tiny", True) is None
    assert not path.exists()  # evicted, cannot shadow the recomputed entry
    assert "evicted corrupt cache entry" in caplog.text
    assert "malformed JSON" in caplog.text
    # the slot is reusable immediately
    cache.store("tiny", True, {"ok": True})
    assert cache.load("tiny", True) == {"ok": True}


def test_wrong_shape_cache_document_is_evicted(tmp_path, caplog):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    path = cache.path("tiny", True)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema": 1, "artifact": "not a dict"}))
    with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
        assert cache.load("tiny", True) is None
    assert not path.exists()
    assert "unexpected document shape" in caplog.text


def test_corrupt_entry_forces_recompute_then_reheals(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    _entry_path(cache, tiny).write_text("not json at all")
    rerun = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert rerun.runs[0].ok
    assert not rerun.runs[0].cached  # corruption degraded to a recompute
    healed = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert healed.runs[0].cached


# --- front-ends -------------------------------------------------------------------
def _load_wrapper():
    spec = importlib.util.spec_from_file_location(
        "run_all_experiments", REPO / "scripts" / "run_all_experiments.py"
    )
    wrapper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wrapper)
    return wrapper


def test_run_all_wrapper_reports_failures_with_exit_code(tmp_path, monkeypatch, tiny, capsys):
    wrapper = _load_wrapper()
    _one_shard(monkeypatch, "boom", "_raising_shard")
    monkeypatch.chdir(tmp_path)  # manifest + cache land in the tmp dir
    # A stale report from an earlier run must not survive the failure.
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "boom.txt").write_text("stale report\n")
    monkeypatch.setattr(
        sys,
        "argv",
        ["run_all_experiments.py", "boom", tiny, "--out", str(tmp_path / "out")],
    )
    assert wrapper.main() == 1  # non-zero, but the sweep kept going
    out = capsys.readouterr().out
    assert "1/2 experiments ok" in out and "FAILED: boom" in out
    assert (tmp_path / "out" / "tiny.txt").exists()
    assert not (tmp_path / "out" / "boom.txt").exists()
    assert (tmp_path / "BENCH_experiments.json").exists()


def test_run_all_wrapper_fast_is_uniform(tmp_path, monkeypatch, tiny, capsys):
    """--fast applies to every experiment — the wrapper produces the same
    bytes as ``repro run all --fast``, so either front-end can regenerate
    the ``results/fast`` goldens CI diffs against."""
    wrapper = _load_wrapper()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        sys,
        "argv",
        ["run_all_experiments.py", "table1", tiny, "--fast", "--out", "out"],
    )
    assert wrapper.main() == 0
    for report in ("table1.txt", "tiny.txt"):
        assert "fast=True]" in (tmp_path / "out" / report).read_text()


def test_cli_run_with_jobs_out_and_bench(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    rc = main(["run", "table1", "--jobs", "2", "--out", "o", "--bench", "b.json"])
    assert rc == 0
    assert "[table1:" in capsys.readouterr().out
    assert (tmp_path / "o" / "table1.txt").exists()
    assert (tmp_path / "o" / "json" / "table1.json").exists()
    assert "table1" in json.loads((tmp_path / "b.json").read_text())["runs"][-1]["experiments"]


# --- manifest ---------------------------------------------------------------------
def test_manifest_records_serial_and_parallel_runs(tmp_path, tiny):
    bench = tmp_path / "BENCH.json"
    cache = ResultCache(root=tmp_path / "cache", digest="digest-a", enabled=False)
    serial = run_campaign([ExperimentSpec(tiny, fast=True)], jobs=1, cache=cache)
    record_campaign(serial, path=bench, label="serial")
    parallel = run_campaign([ExperimentSpec(tiny, fast=True)], jobs=8, cache=cache)
    record_campaign(parallel, path=bench, label="parallel")

    document = json.loads(bench.read_text())
    assert [entry["label"] for entry in document["runs"]] == ["serial", "parallel"]
    assert [entry["jobs"] for entry in document["runs"]] == [1, 8]
    for entry in document["runs"]:
        assert entry["ok"] and "tiny" in entry["experiments"]


# --- cache pruning ----------------------------------------------------------------
def _seed_cache_entry(root, name, *, size=100, age=0.0):
    root.mkdir(exist_ok=True)
    path = root / f"{name}.json"
    path.write_text("x" * size)
    stamp = time.time() - age
    os.utime(path, (stamp, stamp))
    return path


def test_prune_size_cap_evicts_oldest_first(tmp_path):
    from repro.runner.cache import prune_cache

    old = _seed_cache_entry(tmp_path, "old", age=300)
    mid = _seed_cache_entry(tmp_path, "mid", age=200)
    new = _seed_cache_entry(tmp_path, "new", age=100)
    report = prune_cache(tmp_path, max_bytes=250)
    assert report.removed == [old]
    assert not old.exists() and mid.exists() and new.exists()
    assert report.kept == 2 and report.kept_bytes == 200


def test_prune_max_age(tmp_path):
    from repro.runner.cache import prune_cache

    stale = _seed_cache_entry(tmp_path, "stale", age=7200)
    fresh = _seed_cache_entry(tmp_path, "fresh", age=60)
    report = prune_cache(tmp_path, max_age_seconds=3600)
    assert report.removed == [stale]
    assert not stale.exists() and fresh.exists()


def test_prune_always_removes_stray_tmp_files(tmp_path):
    from repro.runner.cache import prune_cache

    kept = _seed_cache_entry(tmp_path, "kept")
    stray = tmp_path / "entry.json.tmp1234"
    stray.write_text("partial write")
    report = prune_cache(tmp_path, max_bytes=10**9)
    assert report.removed_tmp == 1
    assert not stray.exists() and kept.exists()


def test_prune_dry_run_deletes_nothing(tmp_path):
    from repro.runner.cache import prune_cache

    old = _seed_cache_entry(tmp_path, "old", age=300)
    _seed_cache_entry(tmp_path, "new", age=100)
    report = prune_cache(tmp_path, max_bytes=150, dry_run=True)
    assert report.dry_run and report.removed == [old]
    assert old.exists()
    assert "would remove" in report.render()


def test_prune_missing_root_is_a_noop(tmp_path):
    from repro.runner.cache import prune_cache

    report = prune_cache(tmp_path / "absent")
    assert report.removed == [] and report.kept == 0


def test_result_cache_prune_wrapper(tmp_path, tiny):
    from repro.runner.cache import RESERVED_NAMES

    cache = ResultCache(root=tmp_path, digest="digest-a")
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    entries = [p for p in tmp_path.glob("*.json") if p.name not in RESERVED_NAMES]
    assert entries
    report = cache.prune(max_bytes=0)
    assert report.kept == 0
    # Only the reserved stats sidecar may survive a full prune.
    survivors = {p.name for p in tmp_path.glob("*.json")}
    assert survivors <= set(RESERVED_NAMES)


# --- shared-shard wall attribution (tables 6/7 share the ray2mesh shards) ---------
def test_shard_sharers_links_table6_and_table7():
    from repro.runner.pool import _shard_sharers

    plans = {
        (experiment_id, True): get_shard_plan(experiment_id, fast=True)
        for experiment_id in ("table6", "table7", "table1")
    }
    sharers = _shard_sharers(plans)
    assert sharers[("table6", True)] == ["table7"]
    assert sharers[("table7", True)] == ["table6"]
    assert sharers[("table1", True)] == []


def test_merge_attributes_shared_shard_wall_to_every_consumer():
    """Regression: table7 used to record wall_s=0.0 because all shard wall
    time landed on table6; every consumer must count the shared shards and
    say who else did."""
    from repro.runner.pool import _merge_sharded

    shards = tuple(
        ShardSpec(task_id=f"ray2mesh/{site}", runner="unused:unused")
        for site in ("nancy", "rennes")
    )

    class Plan:
        pass

    plan = Plan()
    plan.shards = shards
    plan.merge = lambda payloads, fast: ExperimentResult(
        "table7", "T7", "Table 7", [], "merged"
    )
    shard_results = {
        ("ray2mesh/nancy", True): {"payload": {}, "wall_s": 10.0, "trace_hash": "a"},
        ("ray2mesh/rennes", True): {"payload": {}, "wall_s": 2.5, "trace_hash": "b"},
    }
    run = _merge_sharded(
        ExperimentSpec("table7", fast=True),
        plan,
        shard_results,
        shared_with=["table6"],
    )
    assert run.ok
    assert run.wall_s == pytest.approx(12.5)
    assert run.shared_with == ["table6"]

    # The attribution reaches the written artifact.
    assert run.artifact()["shared_with"] == ["table6"]
    assert run.artifact()["wall_s"] == pytest.approx(12.5)


def test_manifest_entry_records_shared_with(tmp_path, tiny):
    from repro.runner.manifest import campaign_entry
    from repro.runner.pool import CampaignResult, ExperimentRun

    campaign = CampaignResult(
        runs=[
            ExperimentRun("table7", True, ok=True, wall_s=12.5, shared_with=["table6"]),
            ExperimentRun("tiny", True, ok=True, wall_s=0.1),
        ],
        wall_s=12.6,
        jobs=2,
        cache_enabled=True,
    )
    entry = campaign_entry(campaign, label="test")
    assert entry["experiments"]["table7"]["shared_with"] == ["table6"]
    assert "shared_with" not in entry["experiments"]["tiny"]


# --- cost-model scheduling --------------------------------------------------------
def test_order_by_cost_longest_first():
    from repro.runner.pool import _Task, _order_by_cost

    def noop():
        pass

    tasks = [
        _Task(key=(label, True), target=noop, args=(), label=label)
        for label in ("a", "b", "x", "new")
    ]
    estimates = {"a": 1.0, "b": 30.0, "x": 5.0}
    _order_by_cost(tasks, estimates)
    # Unknown history first (it might be the long pole), then descending.
    assert [t.label for t in tasks] == ["new", "b", "x", "a"]


def test_order_by_cost_without_history_is_label_order():
    from repro.runner.pool import _Task, _order_by_cost

    tasks = [
        _Task(key=(n, True), target=None, args=(), label=n)
        for n in ("c", "a", "b")
    ]
    _order_by_cost(tasks, {})
    assert [t.label for t in tasks] == ["a", "b", "c"]


def test_load_task_estimates_latest_wins(tmp_path):
    from repro.runner.manifest import load_task_estimates

    manifest = tmp_path / "bench.json"
    manifest.write_text(json.dumps({"schema": 1, "runs": [
        {
            "shards": {"npb/grid16/ft": 9.0},
            "experiments": {"fig3": {"ok": True, "wall_s": 2.0}},
        },
        {
            "shards": {"npb/grid16/ft": 4.5},
            "experiments": {
                "fig3": {"ok": True, "wall_s": 1.0},
                "broken": {"ok": False, "wall_s": 99.0},
            },
        },
    ]}), encoding="utf-8")
    estimates = load_task_estimates(manifest)
    assert estimates["npb/grid16/ft"] == 4.5  # newest entry wins
    assert set(estimates) == {"npb/grid16/ft"}  # shards are the only tasks


def test_load_task_estimates_missing_manifest(tmp_path):
    from repro.runner.manifest import load_task_estimates

    assert load_task_estimates(tmp_path / "absent.json") == {}


# --- cache counters / stats --------------------------------------------------------
def test_campaign_counts_hits_and_misses(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    first = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert first.cache_misses >= 1 and first.cache_hits == 0
    assert first.cache_stores >= 1
    assert "1 miss" in first.cache_summary()

    cache2 = ResultCache(root=tmp_path, digest="digest-a")
    second = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache2)
    assert second.cache_hits == 1 and second.cache_stores == 0
    assert second.cache_summary().startswith("cache: 1 hit")


def test_campaign_writes_stats_sidecar(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    document = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
    assert document["stores"] >= 1
    assert "experiments" in document


def test_manifest_entry_records_cache_counters(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a")
    campaign = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    path = record_campaign(campaign, path=tmp_path / "bench.json")
    entry = json.loads(path.read_text(encoding="utf-8"))["runs"][-1]
    assert entry["cache"] == {
        "hits": campaign.cache_hits,
        "misses": campaign.cache_misses,
        "stores": campaign.cache_stores,
    }


def test_disabled_cache_summary(tmp_path, tiny):
    cache = ResultCache(root=tmp_path, digest="digest-a", enabled=False)
    campaign = run_campaign([ExperimentSpec(tiny, fast=True)], cache=cache)
    assert campaign.cache_summary() == "cache: disabled"


def test_salt_segregates_entries(tmp_path, tiny):
    clean = ResultCache(root=tmp_path, digest="digest-a")
    run_campaign([ExperimentSpec(tiny, fast=True)], cache=clean)
    salted = ResultCache(root=tmp_path, digest="digest-a", salt="faults=lossy")
    faulted = run_campaign([ExperimentSpec(tiny, fast=True)], cache=salted)
    assert not faulted.runs[0].cached  # the clean entry must not replay


# --- dependency-aware invalidation (end to end through the campaign runner) --------
def _deps_with_touch(module=None):
    from repro.analysis.imports import DependencyDigests, ImportGraph

    if module is None:
        return DependencyDigests()
    source = ImportGraph().source(module)
    return DependencyDigests(overlay={module: source + b"\n# touched\n"})


def test_touching_a_leaf_module_keeps_experiments_warm(tmp_path):
    specs = [ExperimentSpec("table4", fast=True)]
    cold = run_campaign(
        specs, cache=ResultCache(root=tmp_path, deps=_deps_with_touch())
    )
    assert not cold.runs[0].cached
    warm = run_campaign(
        specs,
        cache=ResultCache(
            root=tmp_path, deps=_deps_with_touch("repro.obs.report")
        ),
    )
    assert warm.runs[0].cached  # obs/report.py is outside table4's closure


def test_touching_a_dependency_goes_cold(tmp_path):
    specs = [ExperimentSpec("table4", fast=True)]
    run_campaign(specs, cache=ResultCache(root=tmp_path, deps=_deps_with_touch()))
    cold = run_campaign(
        specs,
        cache=ResultCache(
            root=tmp_path, deps=_deps_with_touch("repro.tcp.congestion")
        ),
    )
    assert not cold.runs[0].cached  # every simulation reaches the TCP stack


# --- profile recording -------------------------------------------------------------
def test_profile_report_rows_and_recording(tmp_path):
    from repro.obs.profile import profile_report
    from repro.runner.manifest import record_profile

    report = profile_report("table1", fast=True, top=5)
    assert report.rows and len(report.rows) <= 5
    assert {"function", "where", "ncalls", "tottime_s", "cumtime_s"} <= set(
        report.rows[0]
    )
    # rows are sorted by cumulative time, descending
    cums = [row["cumtime_s"] for row in report.rows]
    assert cums == sorted(cums, reverse=True)

    path = record_profile(
        report.experiment_id,
        report.fast,
        report.rows,
        report.wall_s,
        path=tmp_path / "bench.json",
    )
    document = json.loads(path.read_text(encoding="utf-8"))
    entry = document["profiles"]["table1|fast=True"]
    assert entry["top"] == report.rows
    assert entry["wall_s"] >= 0
