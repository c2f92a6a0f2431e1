"""Tests for the fluid flow-level bandwidth model."""

import math
import random

import pytest

from repro.errors import NetworkConfigError
from repro.net import Flow, FluidNetwork, Pipe
from repro.net.fluid import _EPS
from repro.sim import Environment
from repro.units import Gbps, MB, Mbps


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def net(env):
    return FluidNetwork(env)


def run_flow(env, net, pipes, nbytes, cap=math.inf):
    flow = net.start_flow("f", pipes, nbytes, rate_cap_bps=cap)
    env.run(until=flow.done)
    return env.now


def test_single_flow_full_capacity(env, net):
    pipe = Pipe("p", Gbps(1))
    elapsed = run_flow(env, net, [pipe], MB)
    assert elapsed == pytest.approx(MB * 8 / 1e9)


def test_flow_respects_rate_cap(env, net):
    pipe = Pipe("p", Gbps(1))
    elapsed = run_flow(env, net, [pipe], MB, cap=Mbps(100))
    assert elapsed == pytest.approx(MB * 8 / 100e6)


def test_bottleneck_is_slowest_pipe(env, net):
    fast = Pipe("fast", Gbps(10))
    slow = Pipe("slow", Mbps(100))
    elapsed = run_flow(env, net, [fast, slow], MB)
    assert elapsed == pytest.approx(MB * 8 / 100e6)


def test_zero_byte_flow_completes_immediately(env, net):
    pipe = Pipe("p", Gbps(1))
    flow = net.start_flow("f", [pipe], 0)
    assert flow.done.triggered
    assert not pipe.flows


def test_two_flows_share_fairly(env, net):
    pipe = Pipe("p", Gbps(1))
    f1 = net.start_flow("f1", [pipe], MB)
    f2 = net.start_flow("f2", [pipe], MB)
    env.run(until=f1.done)
    t1 = env.now
    env.run(until=f2.done)
    t2 = env.now
    # Both at 500 Mbps: each finishes in ~2x the solo time, together.
    assert t1 == pytest.approx(MB * 8 / 0.5e9)
    assert t2 == pytest.approx(t1)


def test_departure_releases_bandwidth(env, net):
    pipe = Pipe("p", Gbps(1))
    small = net.start_flow("small", [pipe], MB)
    big = net.start_flow("big", [pipe], 3 * MB)
    env.run(until=small.done)
    t_small = env.now
    env.run(until=big.done)
    t_big = env.now
    # Phase 1: both at 500 Mbps until small (1MB) is done at t=16.78ms.
    assert t_small == pytest.approx(MB * 8 / 0.5e9)
    # big sent 1MB in phase 1, the last 2MB at full rate.
    expected = t_small + 2 * MB * 8 / 1e9
    assert t_big == pytest.approx(expected)


def test_capped_flow_leaves_slack_to_others(env, net):
    pipe = Pipe("p", Gbps(1))
    capped = net.start_flow("capped", [pipe], 10 * MB, rate_cap_bps=Mbps(100))
    greedy = net.start_flow("greedy", [pipe], MB)
    env.run(until=greedy.done)
    # greedy gets 900 Mbps (progressive filling redistributes the slack).
    assert env.now == pytest.approx(MB * 8 / 900e6)
    assert capped.rate_bps == pytest.approx(Mbps(100))


def test_rate_cap_update_mid_flight(env, net):
    pipe = Pipe("p", Gbps(1))
    flow = net.start_flow("f", [pipe], 2 * MB, rate_cap_bps=Mbps(100))

    def raiser():
        yield env.timeout(0.08)  # ~1MB sent at 100 Mbps
        net.set_rate_cap(flow, Gbps(1))

    env.process(raiser())
    env.run(until=flow.done)
    sent_phase1 = 100e6 * 0.08 / 8  # bytes
    expected = 0.08 + (2 * MB - sent_phase1) * 8 / 1e9
    assert env.now == pytest.approx(expected, rel=1e-6)


def test_abort_flow_fails_done_event(env, net):
    pipe = Pipe("p", Gbps(1))
    flow = net.start_flow("f", [pipe], 100 * MB)

    def aborter():
        yield env.timeout(0.01)
        net.abort_flow(flow, RuntimeError("link down"))

    def waiter(log):
        try:
            yield flow.done
        except RuntimeError as exc:
            log.append(str(exc))

    log = []
    env.process(aborter())
    env.process(waiter(log))
    env.run()
    assert log == ["link down"]
    assert not pipe.flows


def test_three_flows_two_pipes_maxmin(env, net):
    # a: pipe1 only; b: pipe1+pipe2; c: pipe2 only. pipe1=1G, pipe2=500M.
    p1, p2 = Pipe("p1", Gbps(1)), Pipe("p2", Mbps(500))
    fa = net.start_flow("a", [p1], 100 * MB)
    fb = net.start_flow("b", [p1, p2], 100 * MB)
    fc = net.start_flow("c", [p2], 100 * MB)
    env.run(until=env.timeout(0.001))
    # Max-min: b and c share p2 at 250 Mbps each; a takes the rest of p1.
    assert fb.rate_bps == pytest.approx(Mbps(250))
    assert fc.rate_bps == pytest.approx(Mbps(250))
    assert fa.rate_bps == pytest.approx(Mbps(750))


def test_flow_needs_a_pipe(env, net):
    with pytest.raises(NetworkConfigError):
        net.start_flow("f", [], 10)


def test_negative_size_rejected(env, net):
    with pytest.raises(NetworkConfigError):
        net.start_flow("f", [Pipe("p", Gbps(1))], -1)


def test_invalid_cap_rejected(env, net):
    with pytest.raises(NetworkConfigError):
        net.start_flow("f", [Pipe("p", Gbps(1))], 10, rate_cap_bps=0)


def test_set_pipe_capacity_mid_flight(env, net):
    pipe = Pipe("wan", 1000.0)
    flow = net.start_flow("f", [pipe], nbytes=1000)
    env.run(until=2.0)  # 2000 of 8000 bits done
    net.set_pipe_capacity(pipe, 100.0)  # the link flaps to 10%
    assert flow.rate_bps == pytest.approx(100.0)
    env.run(until=32.0)  # 3000 bits at the degraded rate
    net.set_pipe_capacity(pipe, 1000.0)  # ... and recovers
    env.run(until=flow.done)
    # 2000 + 3000 bits before recovery, 3000 after at full rate
    assert env.now == pytest.approx(35.0)
    assert flow.done.triggered


def test_set_pipe_capacity_rejects_nonpositive(env, net):
    pipe = Pipe("wan", 1000.0)
    net.start_flow("f", [pipe], nbytes=1000)
    with pytest.raises(NetworkConfigError):
        net.set_pipe_capacity(pipe, 0.0)
    with pytest.raises(NetworkConfigError):
        net.set_pipe_capacity(pipe, -10.0)


def test_pipe_invalid_capacity():
    with pytest.raises(NetworkConfigError):
        Pipe("p", 0)


def test_many_sequential_flows_cleanup(env, net):
    pipe = Pipe("p", Gbps(1))

    def sender():
        for _ in range(100):
            flow = net.start_flow("f", [pipe], 1024)
            yield flow.done

    env.process(sender())
    env.run()
    assert not net.flows
    assert not pipe.flows
    assert env.now == pytest.approx(100 * 1024 * 8 / 1e9)


# -- differential oracle: incremental allocator vs the legacy global solve ----
#
# The incremental allocator must agree with the pre-rewrite full-network
# progressive filling (``LegacyFluidNetwork``) on arbitrary workload
# histories: flow starts and finishes, rate cap moves, capacity changes and
# link flaps.  Rates may differ by float ulps (the two solvers associate the
# fill arithmetic differently); completion times must match exactly, since
# they are what the reports are built from.


def progressive_filling(flows: "list[Flow]") -> dict[Flow, float]:
    """Max-min fair allocation with per-flow rate caps (global solve).

    ``flows`` arrives in uid order and the returned dict preserves it,
    so callers iterate deterministically.  The sets used internally
    only feed order-independent arithmetic (min/sum/membership).
    """
    if not flows:
        return {}
    level: dict[Flow, float] = {f: 0.0 for f in flows}
    active: set[Flow] = set(flows)
    pipes: set[Pipe] = {p for f in flows for p in f.pipes}
    remaining: dict[Pipe, float] = {p: p.capacity_bps for p in pipes}

    while active:
        # Equal-increment step: how much can every active flow still grow?
        increment = math.inf
        for pipe in pipes:
            n_active = sum(1 for f in pipe.flows if f in active)
            if n_active:
                increment = min(increment, remaining[pipe] / n_active)
        for flow in active:
            increment = min(increment, flow.rate_cap_bps - level[flow])
        if not math.isfinite(increment):
            # Only uncapped flows on unconstrained pipes — impossible,
            # every flow crosses at least one finite pipe.
            raise NetworkConfigError("progressive filling diverged")

        for flow in active:
            level[flow] += increment
        for pipe in pipes:
            n_active = sum(1 for f in pipe.flows if f in active)
            remaining[pipe] -= increment * n_active

        # Freeze flows that hit their cap or sit on a saturated pipe.
        # The cap test is relative, like the pipe test: ``level +=
        # (cap - level)`` can undershoot the cap by an ulp of the cap
        # (~1e-7 at Gbps scale), and an absolute 1e-12 tolerance would
        # miss that, dropping into the freeze-everything corner below
        # and pinning unrelated flows at this level.  (inf caps stay
        # unfreezable: ``inf * (1 - eps) - eps`` is still inf.)
        saturated = {p for p in pipes if remaining[p] <= _EPS * p.capacity_bps + _EPS}
        newly_frozen = {
            f
            for f in active
            if level[f] >= f.rate_cap_bps * (1.0 - _EPS) - _EPS
            or any(p in saturated for p in f.pipes)
        }
        if not newly_frozen:
            # Numerical corner: freeze everything to guarantee progress.
            break
        active -= newly_frozen
    return level


class LegacyFluidNetwork(FluidNetwork):
    """The pre-rewrite allocator: every mutation re-solves all active flows."""

    def _recompute(self, dirty_pipes):
        """Re-allocate rates for all active flows and reschedule completions.

        Flows are visited in creation (uid) order: iterating the raw set
        would schedule completion timers in id()-dependent order, giving
        same-time events different queue sequence numbers from run to run.
        """
        self.recomputations += 1
        self.solve_rounds += 1
        ordered = sorted(self.flows, key=lambda f: f.uid)
        for flow in ordered:
            self._settle(flow)

        rates = progressive_filling(ordered)

        for flow, rate in rates.items():
            if abs(rate - flow.rate_bps) <= _EPS * max(rate, flow.rate_bps, 1.0):
                continue
            flow.rate_bps = rate
            flow._version += 1
            if rate <= _EPS:
                continue
            eta = flow.remaining_bits / rate
            self._schedule_completion(flow, eta, flow._version)


def _drive_workload(seed, legacy):
    """Run a randomized flow history; return (snapshots, completions, network)."""
    env = Environment()
    network = (LegacyFluidNetwork if legacy else FluidNetwork)(env)
    rng = random.Random(seed)
    pipes = [
        Pipe(f"p{i}", rng.choice([1e8, 2.5e8, 9.37e8, 1e9, 1e10]))
        for i in range(rng.randint(3, 7))
    ]
    started = []
    completions = {}
    snapshots = []

    def script():
        counter = 0
        for _ in range(60):
            yield env.timeout(rng.uniform(1e-4, 5e-3))
            dice = rng.random()
            live = [f for f in started if f in network.flows]
            if dice < 0.5 or not live:
                counter += 1
                route = rng.sample(pipes, rng.randint(1, min(3, len(pipes))))
                cap = math.inf if rng.random() < 0.3 else rng.uniform(1e6, 2e9)
                nbytes = rng.uniform(1e3, 2e7)
                flow = network.start_flow(
                    f"w{counter}", route, nbytes, rate_cap_bps=cap
                )
                flow.done.callbacks.append(
                    lambda _ev, name=flow.name: completions.__setitem__(
                        name, env.now
                    )
                )
                started.append(flow)
            elif dice < 0.75:
                flow = live[rng.randrange(len(live))]
                network.set_rate_cap(flow, rng.uniform(1e6, 2e9))
            elif dice < 0.9:
                pipe = pipes[rng.randrange(len(pipes))]
                network.set_pipe_capacity(
                    pipe, rng.choice([1e8, 2.5e8, 9.37e8, 1e9, 1e10])
                )
            else:
                flow = live[rng.randrange(len(live))]
                flow.done._defused = True  # the abort is the point
                network.abort_flow(flow, RuntimeError("link flap"))
            snapshots.append(
                sorted((f.uid, f.rate_bps) for f in network.flows)
            )

    env.process(script())
    # Generous horizon: a 1 Mbps cap on a 20 MB flow needs ~160 s of
    # virtual time, and virtual seconds are cheap once the churn stops.
    env.run(until=300.0)
    assert not network.flows, "workload must drain within the horizon"
    return snapshots, completions, network


@pytest.mark.parametrize("seed", range(10))
def test_incremental_allocator_matches_legacy_oracle(seed):
    legacy_snaps, legacy_done, legacy_net = _drive_workload(seed, legacy=True)
    incr_snaps, incr_done, _ = _drive_workload(seed, legacy=False)

    # The legacy side really ran the global solver: one solve per recompute.
    assert legacy_net.solve_rounds == legacy_net.recomputations

    # Same flows complete, at exactly the same virtual times.
    assert incr_done == legacy_done

    # After every operation, the same flows are live with the same rates.
    assert len(incr_snaps) == len(legacy_snaps)
    for step, (legacy_snap, incr_snap) in enumerate(
        zip(legacy_snaps, incr_snaps)
    ):
        assert [uid for uid, _ in incr_snap] == [
            uid for uid, _ in legacy_snap
        ], f"live flow sets diverge at op {step}"
        for (uid, legacy_rate), (_, incr_rate) in zip(legacy_snap, incr_snap):
            assert incr_rate == pytest.approx(
                legacy_rate, rel=1e-12, abs=1e-9
            ), f"rate of flow {uid} diverges at op {step}"


def test_incremental_reuses_component_plan(env, net):
    """Steady churn on one component must not rebuild the plan each time."""
    pipe = Pipe("shared", Gbps(1))
    flows = [net.start_flow(f"f{i}", [pipe], 100 * MB) for i in range(8)]
    plan = net._plan
    assert plan is not None and not plan.stale
    for i, flow in enumerate(flows):
        net.set_rate_cap(flow, Mbps(50 + i))
    assert net._plan is plan, "cap churn inside the component rebuilt the plan"
    assert sorted(f.uid for f in plan.flow_index) == [f.uid for f in flows]
