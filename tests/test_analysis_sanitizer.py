"""Runtime determinism sanitizer: double-run trace-hash comparison."""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.sanitizer import sanitize, trace_experiment
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentResult, ShardSpec
from repro.experiments.registry import run_plan
from repro.mpi.tracing import EventTraceHasher
from repro.sim.core import Environment, install_trace_sink, remove_trace_sink


def _result(experiment_id, value):
    return ExperimentResult(
        experiment_id=experiment_id,
        title=experiment_id,
        paper_ref="fixture",
        rows=[{"value": value}],
        text=f"{experiment_id}: {value}",
    )


def seeded_experiment(fast=True):
    """A tiny deterministic 'experiment': fixed timeouts, fixed result."""
    env = Environment()
    total = []

    def proc():
        for delay in (0.25, 0.5, 1.0):
            yield env.timeout(delay)
        total.append(env.now)

    env.process(proc(), name="fixture")
    env.run()
    return _result("seeded-fixture", total[0])


#: ``seeded_experiment`` as a one-shard plan, run the way the registry runs
#: every experiment
SEEDED_PLAN = partial(
    run_plan,
    SimpleNamespace(
        shards=lambda fast=False: [ShardSpec("seeded-fixture", f"{__name__}:seeded_experiment")],
        merge=lambda payloads, fast=False: payloads["seeded-fixture"],
    ),
)


def unseeded_experiment(fast=True):
    """A deliberately nondeterministic 'experiment': delays drawn from OS
    entropy (exactly the bug class DET005 exists to prevent)."""
    env = Environment()
    rng = np.random.default_rng()  # unseeded on purpose
    total = []

    def proc():
        for _ in range(5):
            yield env.timeout(float(rng.uniform(0.1, 1.0)))
        total.append(env.now)

    env.process(proc(), name="fixture")
    env.run()
    return _result("unseeded-fixture", total[0])


class TestTraceHasher:
    def test_identical_streams_hash_identically(self):
        a, b = EventTraceHasher(), EventTraceHasher()
        for hasher in (a, b):
            hasher(0.5, 1, 1, object())
            hasher(1.0, 0, 2, object())
        assert a.hexdigest() == b.hexdigest()
        assert a.events == 2

    def test_order_matters(self):
        a, b = EventTraceHasher(), EventTraceHasher()
        a(0.5, 1, 1, object())
        a(1.0, 1, 2, object())
        b(1.0, 1, 2, object())
        b(0.5, 1, 1, object())
        assert a.hexdigest() != b.hexdigest()

    def test_hash_ignores_object_identity(self):
        class Named:
            name = "rank0"

        a, b = EventTraceHasher(), EventTraceHasher()
        a(0.5, 1, 1, Named())
        b(0.5, 1, 1, Named())  # different instance, same kind+name
        assert a.hexdigest() == b.hexdigest()

    def test_sink_installation_is_scoped(self):
        hasher = EventTraceHasher()
        install_trace_sink(hasher)
        try:
            env = Environment()
            env.timeout(1.0)
            env.run()
        finally:
            remove_trace_sink(hasher)
        seen = hasher.events
        assert seen == 1
        env = Environment()
        env.timeout(1.0)
        env.run()
        assert hasher.events == seen  # removed sink sees nothing


class TestSanitize:
    def test_seeded_fixture_passes(self):
        report = sanitize(seeded_experiment)
        assert report.passed
        assert len(set(report.hashes)) == 1
        assert report.event_counts[0] == report.event_counts[1] > 0
        assert "PASS" in report.render()

    def test_unseeded_fixture_diverges(self):
        report = sanitize(unseeded_experiment)
        assert not report.deterministic
        assert "FAIL" in report.render()

    def test_value_divergence_caught_even_with_same_schedule(self):
        # same event schedule, different reported numbers: still a failure
        counter = {"n": 0}

        def drifting(fast=True):
            env = Environment()
            env.timeout(1.0)
            env.run()
            counter["n"] += 1
            return _result("drifting", counter["n"])

        report = sanitize(drifting)
        assert not report.deterministic

    def test_needs_two_runs(self):
        with pytest.raises(ExperimentError):
            sanitize(seeded_experiment, runs=1)

    def test_unknown_experiment_id_raises(self):
        with pytest.raises(ExperimentError):
            sanitize("fig99")

    def test_zero_event_runs_fail_both_sanitizers(self):
        from repro.analysis.perturb import perturb

        def simulates_nothing(fast=True):
            return _result("nothing", 0)

        report = sanitize(simulates_nothing)
        assert report.deterministic  # identical empty hashes...
        assert not report.passed  # ...prove nothing
        assert "vacuous" in report.render()
        perturbed = perturb(simulates_nothing, seeds=(1,))
        assert not perturbed.passed
        assert "vacuous" in perturbed.render()

    def test_fig3_is_sanitizer_verified(self):
        """The acceptance criterion: fig3 twice with the same seed, hashes equal."""
        report = sanitize("fig3", fast=True)
        assert report.passed, report.render()
        assert report.event_counts[0] == report.event_counts[1]

    def test_fig11_is_sanitizer_verified(self):
        """Both runs of an NPB figure simulate: the NPB memo is cleared."""
        report = sanitize("fig11", fast=True)
        assert report.passed, report.render()
        assert report.event_counts[0] == report.event_counts[1] > 0

    def test_trace_experiment_returns_result(self):
        digest, events, result = trace_experiment(seeded_experiment)
        assert len(digest) == 32  # blake2b-16 hex
        assert events == 5  # Initialize + three Timeouts + Process completion
        assert result.rows[0]["value"] == pytest.approx(1.75)


class TestMemoClearing:
    """Sanitized runs must start with cold experiment memos: a warm memo
    replays no simulation, so the captured trace/projection would be empty.
    Every shard of a plan starts cold (``registry.execute_shard``)."""

    def test_clear_memos_empties_every_memo(self):
        from repro.experiments import npb_runs
        from repro.experiments.registry import clear_memos
        from repro.npb import suite

        npb_runs._cache[("sentinel",)] = 1.0
        suite._failure_memo[("sentinel",)] = object()
        clear_memos()
        assert npb_runs._cache == {}
        assert suite._failure_memo == {}

    def test_trace_experiment_starts_cold(self):
        from repro.experiments import npb_runs

        npb_runs._cache[("sentinel",)] = 1.0
        trace_experiment(SEEDED_PLAN)
        assert npb_runs._cache == {}

    def test_perturb_runs_start_cold(self):
        from repro.analysis.perturb import perturb
        from repro.experiments import npb_runs

        npb_runs._cache[("sentinel",)] = 1.0
        report = perturb(SEEDED_PLAN, seeds=(1,))
        assert report.passed
        assert npb_runs._cache == {}
