"""Import-graph analysis and the dependency-aware cache invalidation matrix.

The first half exercises :mod:`repro.analysis.imports` on a synthetic
package tree (resolution rules, closures, overlays); the second half pins
the *real* tree's invalidation behaviour: touching one module must chill
exactly the experiments that can reach it, and nothing else.
"""

import pathlib

import pytest

from repro.analysis.imports import DependencyDigests, ImportGraph

REPO = pathlib.Path(__file__).resolve().parent.parent


# --- synthetic-tree resolution rules ----------------------------------------------
@pytest.fixture()
def pkg(tmp_path):
    """A small package exercising every import form the resolver handles."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "leaf.py").write_text("X = 1\n")
    (root / "mid.py").write_text("from pkg.leaf import X\n")
    (root / "top.py").write_text("import pkg.mid\nimport json\n")
    sub = root / "sub"
    sub.mkdir()
    (sub / "__init__.py").write_text("")
    (sub / "attr.py").write_text("Y = 2\n")
    # ``from pkg.sub import attr`` names the submodule; ``from pkg import sub``
    # names the package itself (its __init__).
    (root / "uses_sub.py").write_text(
        "from pkg.sub import attr\nfrom pkg import sub\n"
    )
    (sub / "relative.py").write_text("from .attr import Y\nfrom ..leaf import X\n")
    return root


def test_absolute_and_from_imports_resolve(pkg):
    graph = ImportGraph(pkg, package="pkg")
    assert graph.imports_of("pkg.top") == {"pkg.mid"}  # stdlib json ignored
    assert graph.imports_of("pkg.mid") == {"pkg.leaf"}


def test_from_package_import_prefers_the_submodule(pkg):
    graph = ImportGraph(pkg, package="pkg")
    assert graph.imports_of("pkg.uses_sub") == {"pkg.sub.attr", "pkg.sub"}


def test_relative_imports_resolve_against_the_package(pkg):
    graph = ImportGraph(pkg, package="pkg")
    assert graph.imports_of("pkg.sub.relative") == {"pkg.sub.attr", "pkg.leaf"}


def test_closure_is_reflexive_and_transitive(pkg):
    graph = ImportGraph(pkg, package="pkg")
    assert graph.closure("pkg.top") == {"pkg.top", "pkg.mid", "pkg.leaf"}
    assert graph.closure("pkg.leaf") == {"pkg.leaf"}


def test_unparsable_module_has_no_edges_but_still_digests(pkg):
    (pkg / "broken.py").write_text("def (\n")
    graph = ImportGraph(pkg, package="pkg")
    assert graph.imports_of("pkg.broken") == frozenset()
    assert graph.file_digest("pkg.broken")  # bytes still fold into the key


def test_overlay_changes_digest_without_touching_disk(pkg):
    deps = DependencyDigests(pkg, package="pkg")
    before = deps.closure_digest("pkg.top")
    overlaid = DependencyDigests(
        pkg, package="pkg", overlay={"pkg.leaf": b"X = 99\n"}
    )
    assert overlaid.closure_digest("pkg.top") != before
    # The on-disk file is untouched, so a fresh analyser agrees with `before`.
    assert DependencyDigests(pkg, package="pkg").closure_digest("pkg.top") == before


def test_unknown_module_returns_none(pkg):
    deps = DependencyDigests(pkg, package="pkg")
    assert deps.closure_digest("pkg.missing") is None
    assert deps.closure_digest("other.top") is None


def test_engine_modules_salt_every_digest(pkg):
    deps = DependencyDigests(pkg, package="pkg", engine_modules=("pkg.leaf",))
    top = deps.closure_digest("pkg.top")
    # pkg.sub.attr does not import pkg.leaf, yet the engine salt reaches it.
    attr = deps.closure_digest("pkg.sub.attr")
    changed = DependencyDigests(
        pkg,
        package="pkg",
        overlay={"pkg.leaf": b"X = 99\n"},
        engine_modules=("pkg.leaf",),
    )
    assert changed.closure_digest("pkg.top") != top
    assert changed.closure_digest("pkg.sub.attr") != attr


# --- the real tree's invalidation matrix ------------------------------------------
#: shard-runner roots the cache actually keys by
ROOTS = (
    "repro.experiments.npb_runs",       # NPB figures' shard runner
    "repro.experiments.table6",         # ray2mesh shard runner (tables 6/7)
    "repro.experiments.pingpong_common",  # pingpong sweeps' shard runner
    "repro.experiments.table4",         # a one-shard experiment's runner
)


def _touch(module: str) -> DependencyDigests:
    base = ImportGraph()
    return DependencyDigests(
        overlay={module: base.source(module) + b"\n# invalidation probe\n"}
    )


@pytest.fixture(scope="module")
def baseline():
    deps = DependencyDigests()
    return {root: deps.closure_digest(root) for root in ROOTS}


@pytest.mark.parametrize(
    ("touched", "cold"),
    [
        # An NPB kernel chills only the NPB runner.
        ("repro.npb.cg", {"repro.experiments.npb_runs"}),
        # The ray2mesh app chills only tables 6/7.
        ("repro.apps.ray2mesh", {"repro.experiments.table6"}),
        # A pure reporting module chills nothing: the whole point.
        ("repro.obs.report", set()),
        # Every simulated byte flows through TCP congestion control, so
        # touching it correctly chills every simulation root.
        ("repro.tcp.congestion", set(ROOTS)),
    ],
)
def test_invalidation_matrix(baseline, touched, cold):
    deps = _touch(touched)
    changed = {
        root for root in ROOTS if deps.closure_digest(root) != baseline[root]
    }
    assert changed == cold


def test_every_root_is_known_to_the_graph(baseline):
    assert all(digest is not None for digest in baseline.values())


def test_shard_runner_modules_are_resolvable():
    """Every registry shard plan's runner module must be in the graph —
    otherwise its shards silently fall back to whole-tree keys."""
    from repro.experiments import EXPERIMENTS
    from repro.experiments.registry import get_shard_plan

    graph = ImportGraph()
    for experiment_id in sorted(EXPERIMENTS):
        for shard in get_shard_plan(experiment_id, fast=True).shards:
            assert shard.module in graph, shard.runner
