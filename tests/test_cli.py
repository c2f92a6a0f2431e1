"""CLI smoke tests."""

import json

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table4" in out
    assert "fig7" in out


def test_run_static_table(capsys):
    assert main(["run", "table1"]) == 0
    out = capsys.readouterr().out
    assert "GridMPI" in out
    assert "[table1:" in out


def test_run_table3(capsys):
    assert main(["run", "table3", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "Opteron" in out


def test_run_unknown_experiment():
    from repro.errors import ExperimentError

    with pytest.raises(ExperimentError):
        main(["run", "fig42"])


def test_jobs_must_be_positive(capsys):
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "table1", "--jobs", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "worker count must be >= 1" in err
        assert "--jobs 1 for a serial in-process run" in err


def test_jobs_must_be_an_int(capsys):
    with pytest.raises(SystemExit):
        main(["run", "table1", "--jobs", "many"])
    assert "invalid" in capsys.readouterr().err


def test_faults_list(capsys):
    assert main(["faults", "list"]) == 0
    out = capsys.readouterr().out
    assert "none" in out and "lossy-wan" in out and "degraded-grid" in out
    assert "seed=" in out  # the describe() line makes seeding visible


def test_run_with_fault_scenario(capsys):
    assert main(["run", "table1", "--faults", "degraded-grid", "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert "[table1:" in captured.out
    assert "faults: degraded-grid" in captured.err


def test_run_with_unknown_fault_scenario():
    from repro.errors import FaultConfigError

    with pytest.raises(FaultConfigError):
        main(["run", "table1", "--faults", "wobbly-wan"])


def test_run_with_none_scenario_matches_clean_run(capsys):
    assert main(["run", "table1", "--no-cache"]) == 0
    clean = capsys.readouterr()
    assert main(["run", "table1", "--faults", "none", "--no-cache"]) == 0
    with_none = capsys.readouterr()
    assert clean.out == with_none.out
    assert "faults:" not in with_none.err  # inactive scenario: no banner


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_lint_rules_catalog_lists_all_families(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("DET001", "UNIT001", "SIM001", "DIM001", "SCHED001", "NOQA001"):
        assert rule in out


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(x):\n    return x + 1\n")
    assert main(["lint", str(clean)]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_dirty_file_exits_one(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    assert main(["lint", str(dirty)]) == 1
    assert "DET001" in capsys.readouterr().out


def test_sanitize_perturb_passes_on_real_experiment(tmp_path, capsys):
    out = tmp_path / "fig3.txt"
    assert main(
        ["sanitize", "fig3", "--perturb", "--seeds", "2", "--write-result", str(out)]
    ) == 0
    assert "PASS" in capsys.readouterr().out
    assert out.read_text().endswith("\n")
    report = json.loads((tmp_path / "fig3.txt.perturb.json").read_text())
    assert report["passed"] is True
    assert [run["seed"] for run in report["runs"]] == [1, 2]


def test_cache_prune_cli(tmp_path, capsys):
    root = tmp_path / "cache"
    root.mkdir()
    (root / "entry.json").write_text("x" * 64)
    assert main(["cache", "prune", "--root", str(root), "--max-size", "0"]) == 0
    assert "removed 1 entry" in capsys.readouterr().out
    assert not (root / "entry.json").exists()


def test_cache_prune_bad_size_exits_two(capsys):
    assert main(["cache", "prune", "--max-size", "banana"]) == 2
    assert "size" in capsys.readouterr().err.lower()


def test_cli_cache_stats(tmp_path, capsys):
    from repro.runner.cache import ResultCache

    cache = ResultCache(root=tmp_path, digest="digest-a")
    cache.store("table4", True, {"kind": "shard", "payload": {}})
    cache.store("npb/grid16/ft", True, {"kind": "shard", "payload": {}})
    cache.hits, cache.misses, cache.stores = 3, 1, 1
    cache.write_stats()
    assert main(["cache", "stats", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 entries" in out
    assert "3 hits, 1 misses, 1 stored" in out


def test_run_writes_a_manifest_only_with_bench(tmp_path, monkeypatch):
    from repro.experiments import EXPERIMENTS

    # "all" over a two-experiment registry: a multi-experiment campaign.
    for experiment_id in list(EXPERIMENTS):
        if experiment_id not in ("table1", "table3"):
            monkeypatch.delitem(EXPERIMENTS, experiment_id)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "all", "--fast", "--no-cache", "--out", "o"]) == 0
    assert (tmp_path / "o" / "table3.txt").exists()
    assert not (tmp_path / "BENCH_experiments.json").exists()
    assert main(["run", "all", "--fast", "--no-cache", "--out", "o", "--bench", "b.json"]) == 0
    assert not (tmp_path / "BENCH_experiments.json").exists()
    runs = json.loads((tmp_path / "b.json").read_text())["runs"]
    assert sorted(runs[-1]["experiments"]) == ["table1", "table3"]
