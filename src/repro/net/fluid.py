"""Flow-level ("fluid") bandwidth sharing.

A :class:`Pipe` is a capacity constraint (a NIC direction, a site uplink...).
A :class:`Flow` is a byte transfer across an ordered set of pipes with an
optional sender rate cap (used by TCP to impose its congestion window:
``cap = cwnd / RTT``).

Rates are allocated by **progressive filling** (max-min fairness with per-flow
caps): all unfrozen flows grow at the same rate until a pipe saturates (its
flows freeze) or a flow hits its cap (it freezes); repeat.  This is the
standard fluid model of long-lived TCP flows sharing a network.

Incremental allocation
----------------------
The max-min allocation decomposes over connected components of the
shares-a-pipe relation, so it can be repaired locally instead of recomputed
globally.  Every mutation (flow arrival, completion, abort, rate cap
change, pipe capacity change) seeds a *dirty-pipe worklist*; the worklist
is closed transitively (a dirtied pipe pulls in its flows, those flows
their other pipes, and so on) and exactly that component is re-solved —
flows outside it share no constraint with the mutation and provably keep
their rates.  The component solve itself maintains per-pipe active-flow
counts incrementally, replacing the old per-iteration membership scans
over every pipe's whole population.  Completion timers are re-armed only
for flows whose rate materially changed (version tokens make stale timers
inert), so an arrival or departure leaves the timers of unaffected flows
untouched.

The pre-rewrite full-network solver lives on as the differential oracle
in ``tests/test_net_fluid.py``, which drives both engines over randomized
workloads.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Optional

from repro.errors import NetworkConfigError
from repro.sim.core import Environment, Event
from repro.units import Rate

_EPS = 1e-12
#: Residues below one bit are float noise from ``(t + eta) - t`` round-trips,
#: not real payload; clamping them avoids infinite zero-delay reschedules.
_RESIDUE_BITS = 1.0
#: Never schedule a completion closer than this (guards clock stagnation).
_MIN_ETA = 1e-12


class Pipe:
    """A single capacity constraint, in bits per second."""

    __slots__ = ("name", "capacity_bps", "flows")

    def __init__(self, name: str, capacity_bps: "Rate | float"):
        if capacity_bps <= 0:
            raise NetworkConfigError(f"pipe {name!r}: capacity must be positive")
        self.name = name
        self.capacity_bps = float(capacity_bps)
        #: insertion-ordered membership: flows register in creation (uid)
        #: order and dicts preserve it, so iterating ``pipe.flows`` is
        #: deterministic without per-recompute sorting (used as a set; the
        #: values are always None).
        self.flows: dict["Flow", None] = {}

    def __repr__(self) -> str:
        return f"Pipe({self.name!r}, {self.capacity_bps / 1e9:.3g} Gbps, {len(self.flows)} flows)"


class Flow:
    """An in-flight fluid transfer."""

    __slots__ = (
        "name",
        "uid",
        "pipes",
        "remaining_bits",
        "rate_cap_bps",
        "rate_bps",
        "done",
        "_last_update",
        "_version",
        "started_at",
    )

    def __init__(
        self,
        name: str,
        pipes: tuple[Pipe, ...],
        nbytes: float,
        done: Event,
        rate_cap_bps: float = math.inf,
        uid: int = 0,
    ):
        self.name = name
        #: creation order within the owning FluidNetwork; the deterministic
        #: iteration key (sets of flows order by id(), which is not stable
        #: run-to-run — see DET006 in repro.analysis)
        self.uid = uid
        self.pipes = pipes
        self.remaining_bits = float(nbytes) * 8.0
        self.rate_cap_bps = float(rate_cap_bps)
        self.rate_bps = 0.0
        self.done = done
        self._last_update = 0.0
        self._version = 0
        self.started_at = 0.0

    def __repr__(self) -> str:
        return (
            f"Flow({self.name!r}, remaining={self.remaining_bits / 8:.0f}B, "
            f"rate={self.rate_bps / 1e6:.1f}Mbps)"
        )


class _ComponentPlan:
    """Indexed view of one shares-a-pipe component, cached between solves.

    Rate caps and capacities may change freely between solves (the solve
    re-reads them); membership changes are patched in place — an arriving
    flow whose route stays inside the component is appended (its uid is
    the largest yet, so ``flows`` stays uid sorted), a departing flow is
    dead-marked and skipped, and only an arrival that would *merge* two
    components marks the plan stale.  ``flows`` is uid sorted, ``pipes``
    in first-touch order over that flow order — both deterministic.
    """

    __slots__ = (
        "flows",
        "pipes",
        "pipe_index",
        "flow_index",
        "flow_pipes",
        "members",
        "live_count",
        "dead",
        "n_dead",
        "stale",
    )

    def __init__(
        self,
        flows: "list[Flow]",
        pipes: "list[Pipe]",
        pipe_index: "dict[Pipe, int]",
        flow_pipes: "list[list[int]]",
        members: "list[list[int]]",
    ):
        self.flows = flows
        self.pipes = pipes
        #: pipe -> index into ``pipes`` (also the component's pipe set)
        self.pipe_index = pipe_index
        #: flow -> index into ``flows``, live flows only
        self.flow_index = {flow: fidx for fidx, flow in enumerate(flows)}
        #: per flow index, the pipe indices on its route
        self.flow_pipes = flow_pipes
        #: per pipe index, the flow indices crossing it (may include dead)
        self.members = members
        #: per pipe index, the number of *live* flows crossing it; patched
        #: on every extend/drop so each solve starts from a plain copy
        self.live_count = [len(m) for m in members]
        self.dead = bytearray(len(flows))
        self.n_dead = 0
        self.stale = False

    def try_extend(self, flow: Flow) -> None:
        """Patch ``flow`` into the component if its route allows it.

        A route entirely outside the component leaves the plan untouched
        (the flow lives in another component).  A route pipe that is
        outside the component but already carries other flows would merge
        two components — that is the one structural change we cannot
        patch, so the plan goes stale.  Otherwise the flow (and any brand
        new pipes it brings) is appended in place.
        """
        pipe_index = self.pipe_index
        inside = 0
        for pipe in flow.pipes:
            if pipe in pipe_index:
                inside += 1
            elif len(pipe.flows) > 1:
                self.stale = True
                return
        if inside == 0:
            return
        fidx = len(self.flows)
        self.flows.append(flow)
        self.dead.append(0)
        self.flow_index[flow] = fidx
        indices: list[int] = []
        for pipe in flow.pipes:
            pidx = pipe_index.get(pipe)
            if pidx is None:
                pidx = pipe_index[pipe] = len(self.pipes)
                self.pipes.append(pipe)
                self.members.append([])
                self.live_count.append(0)
            indices.append(pidx)
            self.members[pidx].append(fidx)
            self.live_count[pidx] += 1
        self.flow_pipes.append(indices)

    def drop(self, flow: Flow) -> None:
        """Dead-mark a departing flow (no-op if it is another component's)."""
        fidx = self.flow_index.pop(flow, None)
        if fidx is not None:
            self.dead[fidx] = 1
            self.n_dead += 1
            for pidx in self.flow_pipes[fidx]:
                self.live_count[pidx] -= 1

    def compact(self) -> None:
        """Rebuild the index arrays without the dead slots.

        Filtering preserves the uid order of the surviving flows.  Called
        by the owner once dead entries outnumber live ones, so the per
        solve scan stays proportional to the live population.
        """
        live = [fidx for fidx in range(len(self.flows)) if not self.dead[fidx]]
        flows = [self.flows[fidx] for fidx in live]
        old_flow_pipes = self.flow_pipes
        flow_pipes = [old_flow_pipes[fidx] for fidx in live]
        members: list[list[int]] = [[] for _ in self.pipes]
        for new_fidx, indices in enumerate(flow_pipes):
            for pidx in indices:
                members[pidx].append(new_fidx)
        self.flows = flows
        self.flow_pipes = flow_pipes
        self.members = members
        self.live_count = [len(m) for m in members]
        self.flow_index = {flow: fidx for fidx, flow in enumerate(flows)}
        self.dead = bytearray(len(flows))
        self.n_dead = 0


class FluidNetwork:
    """Tracks active flows and allocates max-min fair rates."""

    def __init__(self, env: Environment):
        self.env = env
        self.flows: set[Flow] = set()
        #: number of rate recomputations, exposed for performance tests
        self.recomputations = 0
        #: number of component solves actually run across all recomputations
        self.solve_rounds = 0
        self._flow_counter = 0
        #: cached component plan, patched in place across membership
        #: changes and rebuilt only when a mutation falls outside it
        self._plan: Optional[_ComponentPlan] = None

    # -- public API -------------------------------------------------------------
    def start_flow(
        self,
        name: str,
        pipes: Iterable[Pipe],
        nbytes: float,
        rate_cap_bps: "Rate | float" = math.inf,
    ) -> Flow:
        """Begin transferring ``nbytes`` across ``pipes``.

        Returns the :class:`Flow`; its ``done`` event triggers when the last
        byte leaves the last pipe.  ``rate_cap_bps`` bounds the flow's rate
        (TCP window cap); it may be changed later with :meth:`set_rate_cap`.
        """
        route = tuple(pipes)
        if not route:
            raise NetworkConfigError(f"flow {name!r}: needs at least one pipe")
        if nbytes < 0:
            raise NetworkConfigError(f"flow {name!r}: negative size")
        if rate_cap_bps <= 0:
            raise NetworkConfigError(f"flow {name!r}: rate cap must be positive")
        self._flow_counter += 1
        flow = Flow(
            name, route, nbytes, self.env.event(), rate_cap_bps, uid=self._flow_counter
        )
        flow._last_update = self.env.now
        flow.started_at = self.env.now
        if nbytes == 0:
            flow.done.succeed(flow)
            return flow
        self.flows.add(flow)
        for pipe in route:
            pipe.flows[flow] = None
        plan = self._plan
        if plan is not None and not plan.stale:
            plan.try_extend(flow)
        self._recompute(route)
        return flow

    def set_rate_cap(self, flow: Flow, rate_cap_bps: float) -> None:
        """Change a flow's rate cap (e.g. the congestion window grew)."""
        if rate_cap_bps <= 0:
            raise NetworkConfigError(f"flow {flow.name!r}: rate cap must be positive")
        if flow not in self.flows:
            return  # already finished; harmless race with the cap updater
        old_cap = flow.rate_cap_bps
        if abs(rate_cap_bps - old_cap) < _EPS:
            return
        flow.rate_cap_bps = float(rate_cap_bps)
        # A cap move cannot change any allocation when the flow was not
        # cap-limited before (its pipes limit it) and the new cap still
        # sits above its current rate.  Skipping the recompute here is what
        # keeps thousand-flow phases (ray2mesh's merge) tractable.
        rate = flow.rate_bps
        was_cap_limited = rate >= old_cap * (1.0 - 1e-9)
        if not was_cap_limited and rate_cap_bps >= rate - _EPS:
            return
        self._recompute(flow.pipes)

    def set_pipe_capacity(self, pipe: Pipe, capacity_bps: "Rate | float") -> None:
        """Change a pipe's capacity mid-simulation (fault injection: link
        flaps / degradation) and re-allocate every affected flow."""
        if capacity_bps <= 0:
            raise NetworkConfigError(
                f"pipe {pipe.name!r}: capacity must be positive"
            )
        if abs(float(capacity_bps) - pipe.capacity_bps) < _EPS:
            return
        pipe.capacity_bps = float(capacity_bps)
        self._recompute((pipe,))

    def abort_flow(self, flow: Flow, exc: BaseException) -> None:
        """Fail a flow's completion event and release its capacity."""
        if flow not in self.flows:
            return
        self._settle(flow)
        self._detach(flow)
        flow.done.fail(exc)
        self._recompute(flow.pipes)

    # -- internals ------------------------------------------------------------------
    def _settle(self, flow: Flow) -> None:
        """Account bytes sent at the current rate since the last update."""
        elapsed = self.env.now - flow._last_update
        if elapsed > 0:
            flow.remaining_bits -= flow.rate_bps * elapsed
            if flow.remaining_bits < _RESIDUE_BITS:
                flow.remaining_bits = 0.0
        flow._last_update = self.env.now

    def _detach(self, flow: Flow) -> None:
        self.flows.discard(flow)
        for pipe in flow.pipes:
            pipe.flows.pop(flow, None)
        plan = self._plan
        if plan is not None and not plan.stale:
            plan.drop(flow)

    def _recompute(self, dirty_pipes: Iterable[Pipe]) -> None:
        """Repair the allocation after a mutation touching ``dirty_pipes``.

        The re-solved scope is the transitive closure of the dirtied pipes
        over the shares-a-pipe relation: a flow outside the closure shares
        no constraint (directly or through intermediaries) with any flow
        inside it, so its max-min rate provably cannot change.  Solving the
        closed component from scratch therefore reproduces the global
        allocation exactly — no fixpoint iteration, and completion timers
        are re-armed at most once per mutation.
        """
        self.recomputations += 1
        plan = self._plan
        if plan is None or plan.stale or not all(
            pipe in plan.pipe_index for pipe in dirty_pipes
        ):
            plan = self._build_plan(dirty_pipes)
            if plan is None:
                return
            self._plan = plan
        elif plan.n_dead > 64 and plan.n_dead * 2 > len(plan.flows):
            plan.compact()
        self._solve_component(plan)

    def _build_plan(self, dirty_pipes: Iterable[Pipe]) -> "Optional[_ComponentPlan]":
        """Close ``dirty_pipes`` transitively and index the component."""
        scope: dict[Flow, None] = {}
        seen: set[Pipe] = set(dirty_pipes)
        worklist: list[Pipe] = list(seen)
        while worklist:
            pipe = worklist.pop()
            for flow in pipe.flows:
                if flow not in scope:
                    scope[flow] = None
                    for other in flow.pipes:
                        if other not in seen:
                            seen.add(other)
                            worklist.append(other)
        if not scope:
            return None
        flows = sorted(scope, key=lambda f: f.uid)
        pipe_index: dict[Pipe, int] = {}
        pipes: list[Pipe] = []
        flow_pipes: list[list[int]] = []
        for flow in flows:
            indices = []
            for pipe in flow.pipes:
                idx = pipe_index.get(pipe)
                if idx is None:
                    idx = pipe_index[pipe] = len(pipes)
                    pipes.append(pipe)
                indices.append(idx)
            flow_pipes.append(indices)
        members: list[list[int]] = [[] for _ in pipes]
        for fidx, indices in enumerate(flow_pipes):
            for pidx in indices:
                members[pidx].append(fidx)
        return _ComponentPlan(
            flows=flows,
            pipes=pipes,
            pipe_index=pipe_index,
            flow_pipes=flow_pipes,
            members=members,
        )

    def _solve_component(self, plan: "_ComponentPlan") -> None:
        """Progressive filling over one closed component, in uid order.

        Every flow sharing a pipe with the component is itself in it, so
        pipe capacities need no adjustment for external traffic.  The solve
        is event-driven: while a pipe's active count is stable its
        predicted saturation level ``fill + remaining/count`` is invariant,
        so a lazy heap of saturation predictions replaces the classic
        per-increment scan over every pipe (entries are invalidated by
        count changes and re-pushed).  All bookkeeping runs over the plan's
        integer indices; freezes at a saturating pipe are batched so each
        affected pipe gets one heap push per event, not one per flow.
        """
        self.solve_rounds += 1
        env_now = self.env.now
        flows = plan.flows
        flow_pipes = plan.flow_pipes
        members = plan.members
        dead = plan.dead
        n_flows = len(flows)
        live = [fidx for fidx in range(n_flows) if not dead[fidx]]
        for fidx in live:
            flow = flows[fidx]
            # Rates are about to be reassigned: account traffic sent at the
            # old rate first.  Out-of-component flows keep their rate, so
            # their byte accounting stays linear and needs no settling.
            elapsed = env_now - flow._last_update
            if elapsed > 0.0:
                rb = flow.remaining_bits - flow.rate_bps * elapsed
                flow.remaining_bits = rb if rb >= _RESIDUE_BITS else 0.0
                flow._last_update = env_now

        # Per-pipe state: residual capacity as of fill level ``fillstamp``.
        remaining = [pipe.capacity_bps for pipe in plan.pipes]
        n_pipes = len(remaining)
        fillstamp = [0.0] * n_pipes
        count = plan.live_count[:]
        #: heap of (saturation level, pipe index, count stamp); an entry is
        #: live iff its stamp equals the pipe's current count.  Ties break
        #: on the pipe index — first-touch order, deterministic.
        pipe_events = [
            (remaining[i] / count[i], i, count[i])
            for i in range(n_pipes)
            if count[i]
        ]
        heapq.heapify(pipe_events)
        # Cap events sorted once: flows freeze at their cap in cap order
        # ((cap, flow index) matches the legacy (cap, uid) order because
        # ``flows`` is uid-sorted).
        _inf = math.inf
        capped = [
            (cap, fidx)
            for fidx in live
            if (cap := flows[fidx].rate_cap_bps) != _inf
        ]
        capped.sort()
        cap_idx = 0
        n_caps = len(capped)
        # Dead slots start out frozen so both event loops skip them.
        frozen = bytearray(dead)
        rates = [0.0] * n_flows
        n_active = len(live)
        fill = 0.0
        heappush = heapq.heappush
        heappop = heapq.heappop

        while n_active:
            while pipe_events and pipe_events[0][2] != count[pipe_events[0][1]]:
                heappop(pipe_events)
            pipe_level = pipe_events[0][0] if pipe_events else math.inf
            while cap_idx < n_caps and frozen[capped[cap_idx][1]]:
                cap_idx += 1
            if cap_idx < n_caps and capped[cap_idx][0] < pipe_level:
                # Freezing a flow at its cap only *raises* the saturation
                # prediction of every pipe it crosses, so every cap event
                # strictly below the next pipe event can be frozen in one
                # batch; each touched pipe is then settled and re-predicted
                # once (per-flow heap churn was the old solver's hot spot).
                removed: dict[int, int] = {}
                capsum: dict[int, float] = {}
                while cap_idx < n_caps and capped[cap_idx][0] < pipe_level:
                    cap, fidx = capped[cap_idx]
                    cap_idx += 1
                    if frozen[fidx]:
                        continue
                    frozen[fidx] = 1
                    rates[fidx] = cap
                    n_active -= 1
                    if cap > fill:
                        fill = cap
                    for q in flow_pipes[fidx]:
                        if q in removed:
                            removed[q] += 1
                            capsum[q] += cap
                        else:
                            removed[q] = 1
                            capsum[q] = cap
                for q, rm in removed.items():
                    c = count[q]
                    # Account everyone up to ``fill``, then hand back what
                    # the batch's flows did not consume past their caps.
                    remaining[q] -= (fill - fillstamp[q]) * c
                    remaining[q] += rm * fill - capsum[q]
                    fillstamp[q] = fill
                    c -= rm
                    count[q] = c
                    if c > 0:
                        heappush(pipe_events, (fill + remaining[q] / c, q, c))
            else:
                if pipe_level == math.inf:
                    # Only uncapped flows on unconstrained pipes — impossible,
                    # every flow crosses at least one finite pipe.
                    raise NetworkConfigError("progressive filling diverged")
                level, pidx, _ = heappop(pipe_events)
                if level > fill:
                    fill = level
                # Batch-freeze every still-active flow on the saturated
                # pipe, accumulating per-pipe count deltas so each other
                # pipe is settled and re-predicted once.
                deltas: dict[int, int] = {}
                for fidx in members[pidx]:
                    if frozen[fidx]:
                        continue
                    frozen[fidx] = 1
                    rates[fidx] = fill
                    n_active -= 1
                    for q in flow_pipes[fidx]:
                        deltas[q] = deltas.get(q, 0) + 1
                for q, rm in deltas.items():
                    c = count[q]
                    remaining[q] -= (fill - fillstamp[q]) * c
                    fillstamp[q] = fill
                    c -= rm
                    count[q] = c
                    if c > 0:
                        heappush(pipe_events, (fill + remaining[q] / c, q, c))

        for fidx in live:
            flow = flows[fidx]
            rate = rates[fidx]
            # Re-arm only flows whose rate actually moved: a completion
            # elsewhere in the network usually leaves most flows untouched,
            # and their pending completion timers stay valid.  (The spelled
            # out abs/max keep this hot loop free of function calls; the
            # tolerance is abs(rate - old) <= _EPS * max(rate, old, 1.0).)
            old = flow.rate_bps
            if rate == old:
                continue
            hi = rate if rate > old else old
            diff = rate - old if rate > old else old - rate
            if diff <= _EPS * (hi if hi > 1.0 else 1.0):
                continue
            flow.rate_bps = rate
            flow._version += 1
            if rate <= _EPS:
                # Fully capped out or starved; cannot finish until the next
                # recomputation changes its rate.
                continue
            eta = flow.remaining_bits / rate
            self._schedule_completion(flow, eta, flow._version)

    def _schedule_completion(self, flow: Flow, eta: float, version: int) -> None:
        def on_timer(_event: Event, flow: Flow = flow, version: int = version) -> None:
            if version != flow._version or flow not in self.flows:
                return  # superseded by a later recomputation
            self._settle(flow)
            if flow.remaining_bits > 0.0:
                # A rate change between scheduling and firing left real
                # payload; reschedule the tail (never with a zero delay).
                flow._version += 1
                eta = max(flow.remaining_bits / flow.rate_bps, _MIN_ETA)
                self._schedule_completion(flow, eta, flow._version)
                return
            self._detach(flow)
            flow.done.succeed(flow)
            self._recompute(flow.pipes)

        timer = self.env.timeout(eta)
        timer.callbacks.append(on_timer)
