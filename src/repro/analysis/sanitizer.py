"""Runtime determinism sanitizer: run twice, hash the event trace, compare.

The static linter (``repro.analysis.linter``) catches *sources* of
nondeterminism it can see syntactically; this module catches the ones it
cannot (set-ordered scheduling, unseeded library internals, hidden global
state) by construction: an experiment is run ``runs`` times with identical
configuration, every processed event is folded into an
:class:`~repro.mpi.tracing.EventTraceHasher` via the
:func:`repro.sim.core.install_trace_sink` hook, and the digests must be
bit-identical.  The rendered result is folded in as well, so value-level
divergence (same schedule, different numbers) also fails.  A run that
processes no event at all (a memo replay, a stub) compares nothing and
fails as vacuous.

Exposed as ``repro sanitize <experiment>`` and used by the tier-1 suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ExperimentError
from repro.sim.core import trace_capture

__all__ = ["SanitizeReport", "sanitize", "trace_experiment"]


@dataclass
class SanitizeReport:
    """Outcome of one sanitizer run."""

    experiment_id: str
    hashes: list[str] = field(default_factory=list)
    event_counts: list[int] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        return len(set(self.hashes)) <= 1

    @property
    def vacuous(self) -> bool:
        """Some run simulated nothing, so its hash proves nothing."""
        return 0 in self.event_counts

    @property
    def passed(self) -> bool:
        return self.deterministic and not self.vacuous

    def render(self) -> str:
        lines = [f"sanitize {self.experiment_id}: {len(self.hashes)} run(s)"]
        for i, (digest, count) in enumerate(zip(self.hashes, self.event_counts), start=1):
            lines.append(f"  run {i}: {count} events, trace hash {digest}")
        if self.vacuous:
            lines.append("FAIL (vacuous: a run processed 0 events)")
        elif self.deterministic:
            lines.append("PASS (trace hashes identical)")
        else:
            lines.append(
                "FAIL (trace hashes diverge: the experiment is not deterministic)"
            )
        return "\n".join(lines)


def _resolve_runner(experiment: "str | Callable") -> tuple[str, Callable]:
    if callable(experiment):
        return getattr(experiment, "__name__", "<callable>"), experiment
    from repro.experiments import get_experiment

    return experiment, get_experiment(experiment)


def trace_experiment(
    experiment: "str | Callable", fast: bool = True
) -> tuple[str, int, object]:
    """One instrumented run: ``(trace hash, event count, result)``."""
    experiment_id, runner = _resolve_runner(experiment)
    # Memoised work (the NPB point times behind figs 10-13) replays no
    # simulation on a hit, which would make every run after the first hash
    # an empty trace — vacuously "deterministic".  Start cold.
    from repro.experiments.registry import clear_memos

    clear_memos()
    with trace_capture() as hasher:
        result = runner(fast=fast)
    # Fold the rendered output in: same schedule + different values is
    # still a determinism failure.
    hasher.update_text(getattr(result, "text", repr(result)))
    return hasher.hexdigest(), hasher.events, result


def sanitize(
    experiment: "str | Callable",
    fast: bool = True,
    runs: int = 2,
) -> SanitizeReport:
    """Run ``experiment`` ``runs`` times and compare trace hashes."""
    if runs < 2:
        raise ExperimentError(f"sanitize needs at least 2 runs, got {runs}")
    experiment_id, _ = _resolve_runner(experiment)
    report = SanitizeReport(experiment_id=experiment_id)
    for _ in range(runs):
        digest, events, _result = trace_experiment(experiment, fast=fast)
        report.hashes.append(digest)
        report.event_counts.append(events)
    return report
