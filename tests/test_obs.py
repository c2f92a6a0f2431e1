"""The telemetry subsystem (``repro.obs``).

Contracts under test:

* enabling telemetry never perturbs a simulation (identical event-trace
  hashes with the recorder on and off);
* the message lifecycle is observable (eager/rendezvous spans, collective
  spans, cwnd samples, metrics);
* exports are byte-deterministic, schema-valid, and identical between a
  serial and a ``--jobs 4`` campaign;
* the diagnosis reports render deterministically.
"""

import json
import multiprocessing

import pytest

from repro.obs import (
    TelemetryConfig,
    merge_payloads,
    render_chrome_trace,
    render_metrics_csv,
    render_metrics_json,
    validate_chrome_trace,
)
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import TelemetrySession, session
from repro.runner import ExperimentSpec, ResultCache, run_campaign
from repro.sim.core import trace_capture

from tests.conftest import make_cluster_job, make_grid_job

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool tests require the fork start method",
)


def _pingpong(nbytes, repeats=3):
    def program(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            for _ in range(repeats):
                yield from comm.send(1, nbytes=nbytes)
                yield from comm.recv(1)
        else:
            for _ in range(repeats):
                yield from comm.recv(0)
                yield from comm.send(0, nbytes=nbytes)

    return program


def _bcast_program(nbytes):
    def program(ctx):
        payload = "data" if ctx.rank == 0 else None
        yield from ctx.comm.bcast(payload, nbytes=nbytes, root=0)

    return program


# --- zero perturbation -------------------------------------------------------------
def test_telemetry_does_not_perturb_the_event_schedule():
    def run_once(telemetry):
        job = make_grid_job(impl_name="openmpi", nprocs=2)
        with trace_capture() as hasher:
            if telemetry:
                with session(TelemetryConfig()):
                    job.run(_pingpong(1024 * 1024))
            else:
                job.run(_pingpong(1024 * 1024))
        return hasher.hexdigest()

    assert run_once(False) == run_once(True)


def test_session_restored_even_when_the_block_raises():
    assert obs_runtime.ACTIVE is None
    with pytest.raises(RuntimeError):
        with session(TelemetryConfig()):
            assert obs_runtime.ACTIVE is not None
            raise RuntimeError("boom")
    assert obs_runtime.ACTIVE is None


# --- lifecycle instrumentation -----------------------------------------------------
def test_rendezvous_message_records_handshake_spans_and_metrics():
    job = make_grid_job(impl_name="openmpi", nprocs=2)
    with session(TelemetryConfig()) as sess:
        job.run(_pingpong(1024 * 1024))  # far above OpenMPI's 64 kB threshold
    names = sess.span_names()
    for span in ("rndv.announce", "rndv.ack", "rndv.handshake", "rndv.data", "mpi.job"):
        assert names.get(span, 0) > 0, f"missing span {span}: {names}"
    assert sess.counter_total("mpi.rndv_handshakes") > 0
    assert sess.counter_total("mpi.rndv_handshake_seconds") > 0
    assert sess.counter_value("mpi.sends", impl="openmpi", proto="rndv",
                              wan=True, context="p2p") > 0


def test_eager_message_records_eager_span_only():
    job = make_cluster_job(impl_name="mpich2", nprocs=2)
    with session(TelemetryConfig()) as sess:
        job.run(_pingpong(1024))  # well below the eager threshold
    names = sess.span_names()
    assert names.get("mpi.send.eager", 0) > 0
    assert "rndv.handshake" not in names


def test_collective_span_carries_the_selected_algorithm():
    job = make_grid_job(impl_name="gridmpi", nprocs=4)
    with session(TelemetryConfig()) as sess:
        job.run(_bcast_program(256 * 1024))
    names = sess.span_names()
    assert names.get("coll.bcast", 0) == 4  # one span per rank
    assert sess.counter_total("mpi.collective_calls") == 4.0


def test_tcp_layer_records_cwnd_samples_and_window_rounds():
    job = make_grid_job(impl_name="gridmpi", nprocs=2)
    with session(TelemetryConfig()) as sess:
        job.run(_pingpong(8 * 1024 * 1024, repeats=2))
    cwnd = sess.samples("tcp.cwnd")
    assert cwnd, "no congestion-window samples recorded"
    assert all(value > 0 for _, value in cwnd)
    assert sess.counter_total("tcp.window_rounds") > 0
    assert sess.counter_total("tcp.transfers") > 0


def test_metrics_only_config_skips_spans():
    job = make_grid_job(impl_name="openmpi", nprocs=2)
    with session(TelemetryConfig(spans=False, metrics=True)) as sess:
        job.run(_pingpong(1024 * 1024))
    assert sess.span_names() == {}
    assert sess.counter_total("mpi.rndv_handshakes") > 0


# --- session mechanics -------------------------------------------------------------
def test_tracks_partition_records_and_empty_tracks_are_dropped():
    sess = TelemetrySession(TelemetryConfig())
    sess.count("x")
    with sess.track("a"):
        sess.count("x")
        with sess.track("b"):
            sess.count("x", inc=2.0)
        sess.count("x")
    with sess.track("empty"):
        pass
    payload = sess.to_payload()
    assert sorted(payload["tracks"]) == ["a", "b", "main"]
    by_track = {name: data["counters"][0][2] for name, data in payload["tracks"].items()}
    assert by_track == {"main": 1.0, "a": 2.0, "b": 2.0}


def test_histogram_bins_are_powers_of_two():
    sess = TelemetrySession(TelemetryConfig())
    for value in (0, 1, 3, 1024, 1025):
        sess.observe("bytes", value)
    payload = sess.to_payload()
    ((_, _, bins),) = payload["tracks"]["main"]["histograms"]
    assert bins == [[0, 1], [1, 1], [2, 1], [1024, 2]]


def test_merge_payloads_sums_counters_and_merges_histograms():
    def one(value):
        sess = TelemetrySession(TelemetryConfig())
        sess.count("n", inc=value, kind="a")
        sess.gauge("g", value)
        sess.observe("h", 8)
        return sess.to_payload()

    merged = merge_payloads([one(1.0), one(2.0)])
    track = merged["tracks"]["main"]
    assert track["counters"] == [["n", [["kind", "a"]], 3.0]]
    assert track["gauges"] == [["g", [], 2.0]]
    assert track["histograms"] == [["h", [], [[8, 2]]]]


# --- exporters ---------------------------------------------------------------------
def _record_sample_session():
    job = make_grid_job(impl_name="openmpi", nprocs=2)
    with session(TelemetryConfig(), default_track="test/grid") as sess:
        job.run(_pingpong(1024 * 1024))
    return sess.to_payload()


def test_chrome_trace_is_valid_and_byte_deterministic():
    first = render_chrome_trace(_record_sample_session(), label="t")
    second = render_chrome_trace(_record_sample_session(), label="t")
    assert first == second
    document = json.loads(first)
    assert validate_chrome_trace(document) == []
    phases = {event["ph"] for event in document["traceEvents"]}
    assert phases <= {"X", "i", "C", "M"}
    assert any(event["ph"] == "X" for event in document["traceEvents"])


def test_metric_dumps_are_byte_deterministic():
    payload = _record_sample_session()
    assert render_metrics_json(payload) == render_metrics_json(
        _record_sample_session()
    )
    csv = render_metrics_csv(payload)
    lines = csv.splitlines()
    assert lines[0] == "track,kind,name,labels,bin,value"
    assert any("mpi.rndv_handshakes" in line for line in lines)


def test_validator_flags_malformed_documents():
    assert validate_chrome_trace([]) == ["trace document is not a JSON object"]
    assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]
    errors = validate_chrome_trace(
        {
            "traceEvents": [
                {"ph": "Z", "pid": 1, "tid": 1, "ts": 0, "name": "x"},
                {"ph": "X", "pid": "one", "tid": 1, "ts": 0, "name": "x", "dur": -1},
                {"ph": "C", "pid": 1, "tid": 1, "ts": 0, "name": "x",
                 "args": {"value": "NaNish"}},
            ]
        }
    )
    assert len(errors) == 4  # bad phase, bad pid, bad dur, bad C args


# --- campaign integration ----------------------------------------------------------
def test_campaign_attaches_telemetry_and_bypasses_the_cache(tmp_path):
    campaign = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        jobs=1,
        cache=ResultCache(root=tmp_path, digest="digest-a"),
        telemetry=TelemetryConfig(),
    )
    assert campaign.ok and campaign.telemetry_enabled
    assert not campaign.cache_enabled
    run = campaign.runs[0]
    assert run.telemetry is not None
    assert any(name.startswith("pingpong/") for name in run.telemetry["tracks"])
    # Telemetry never leaks into the cacheable artifact.
    assert "telemetry" not in run.artifact()
    # The cache was bypassed: nothing was stored under the injected root.
    assert list(tmp_path.rglob("*.json")) == []


def test_campaign_without_telemetry_attaches_none(tmp_path):
    campaign = run_campaign(
        [ExperimentSpec("table1", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-a"),
    )
    assert campaign.ok and not campaign.telemetry_enabled
    assert campaign.runs[0].telemetry is None


@needs_fork
@pytest.mark.parametrize(
    "experiment_id",
    [
        "fig6",  # pingpong sweep, sharded per curve
        "fig11",  # NPB figure, sharded per benchmark point
        "faults_pingpong",  # fault sweep, sharded per curve
    ],
)
def test_parallel_telemetry_exports_are_byte_identical_to_serial(
    tmp_path, experiment_id
):
    def exports(jobs):
        campaign = run_campaign(
            [ExperimentSpec(experiment_id, fast=True)],
            jobs=jobs,
            cache=ResultCache(root=tmp_path / f"jobs{jobs}", digest="digest-a"),
            telemetry=TelemetryConfig(),
        )
        assert campaign.ok
        run = campaign.runs[0]
        return (
            run.text,
            render_chrome_trace(run.telemetry, label=experiment_id),
            render_metrics_json(run.telemetry, label=experiment_id),
            render_metrics_csv(run.telemetry),
        )

    serial = exports(1)
    parallel = exports(4)
    assert serial[0] == parallel[0]  # the report itself
    assert serial[1] == parallel[1]  # the Chrome trace
    assert serial[2] == parallel[2]  # the metrics JSON
    assert serial[3] == parallel[3]  # the metrics CSV


def test_telemetry_leaves_the_report_text_unchanged(tmp_path):
    with_telemetry = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-a"),
        telemetry=TelemetryConfig(),
    )
    without = run_campaign(
        [ExperimentSpec("fig6", fast=True)],
        cache=ResultCache(root=tmp_path, digest="digest-b"),
    )
    assert with_telemetry.runs[0].text == without.runs[0].text
    assert with_telemetry.runs[0].trace_hash == without.runs[0].trace_hash


# --- CLI + reports -----------------------------------------------------------------
def test_cli_trace_and_metrics_flags_write_valid_exports(tmp_path, capsys):
    from repro.cli import main

    trace_dir = tmp_path / "traces"
    metrics_dir = tmp_path / "metrics"
    assert (
        main(
            [
                "run", "fig7", "--fast",
                "--trace", str(trace_dir),
                "--metrics-out", str(metrics_dir),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    assert "telemetry on" in err
    document = json.loads((trace_dir / "fig7.trace.json").read_text())
    assert validate_chrome_trace(document) == []
    names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
    assert "rndv.handshake" in names
    metrics = json.loads((metrics_dir / "fig7.metrics.json").read_text())
    assert metrics["totals"]["counters"]
    assert (metrics_dir / "fig7.metrics.csv").read_text().startswith("track,kind")


def test_explain_fig7_is_deterministic_and_tells_the_threshold_story():
    from repro.obs.report import explain

    first = explain("fig7", fast=True)
    assert explain("fig7", fast=True) == first
    assert "rndv" in first and "OpenMPI" in first
    assert "128k" in first


def test_explain_fig9_is_deterministic_and_reports_slow_start():
    from repro.obs.report import explain

    first = explain("fig9", fast=True)
    assert explain("fig9", fast=True) == first
    assert "GridMPI" in first and "cwnd" in first


def test_explain_rejects_unknown_figures():
    from repro.errors import ReproError
    from repro.obs.report import explain

    with pytest.raises(ReproError):
        explain("fig3")


def test_profile_renders_a_hotspot_table():
    from repro.obs.profile import profile_experiment

    text = profile_experiment("table1", fast=True, top=5)
    assert "table1" in text
    assert "cumulative" in text
