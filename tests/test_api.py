"""Tests for the high-level API (repro.api): sessions and the pipeline."""

import pytest

from repro import (
    BruteForceIndex,
    DiscSession,
    GridIndex,
    MTreeIndex,
    build_index,
    disc_select,
    uniform_dataset,
)
from repro.core import verify_disc
from repro.distance import EUCLIDEAN
from repro.distance.metrics import MinkowskiMetric


@pytest.fixture
def dataset():
    return uniform_dataset(n=200, seed=5)


class TestBuildIndex:
    def test_engines(self, dataset):
        assert isinstance(build_index(dataset), MTreeIndex)
        assert isinstance(build_index(dataset, engine="mtree"), MTreeIndex)
        assert isinstance(build_index(dataset, engine="brute"), BruteForceIndex)
        assert isinstance(build_index(dataset, engine="grid"), GridIndex)

    def test_engine_options_forwarded(self, dataset):
        index = build_index(dataset, engine="mtree", capacity=10)
        assert index.tree.capacity == 10

    def test_auto_constrained_by_options(self, dataset):
        """Options restrict the auto policy to engines accepting them."""
        index = build_index(dataset, engine="auto", capacity=10)
        assert isinstance(index, MTreeIndex)
        index = build_index(dataset, engine="auto", leafsize=8)
        assert type(index).__name__ == "KDTreeIndex"

    def test_raw_points_need_metric(self, dataset):
        with pytest.raises(ValueError, match="metric"):
            build_index(dataset.points)
        index = build_index(dataset.points, "euclidean", engine="brute")
        assert index.metric is EUCLIDEAN

    def test_unknown_engine(self, dataset):
        with pytest.raises(ValueError, match="engine"):
            build_index(dataset, engine="btree")


class TestDiscSelect:
    @pytest.mark.parametrize("method", ["basic", "greedy", "greedy-c", "fast-c"])
    def test_methods_run_and_cover(self, dataset, method):
        result = disc_select(dataset, 0.15, method=method)
        report = verify_disc(dataset.points, dataset.metric, result.selected, 0.15)
        assert report.is_covering

    def test_unknown_method(self, dataset):
        with pytest.raises(ValueError, match="method"):
            disc_select(dataset, 0.1, method="quantum")

    def test_method_options_forwarded(self, dataset):
        result = disc_select(dataset, 0.15, method="greedy", lazy=True)
        assert "Lazy" in result.algorithm


class TestSession:
    def test_select_and_verify(self, dataset):
        session = DiscSession(dataset)
        result = session.select(0.2)
        assert session.verify().is_disc_diverse
        assert session.last_result is result

    def test_zoom_flow(self, dataset):
        session = DiscSession(dataset)
        coarse = session.select(0.2)
        fine = session.zoom_in(0.1)
        assert set(coarse.selected) <= set(fine.selected)
        assert session.verify().is_disc_diverse
        back_out = session.zoom_out(0.3)
        assert back_out.size < fine.size
        assert session.verify().is_disc_diverse

    def test_local_zoom_flow(self, dataset):
        session = DiscSession(dataset)
        result = session.select(0.2)
        local = session.local_zoom(result.selected[0], 0.08)
        assert local.meta["center"] == result.selected[0]

    def test_zoom_before_select_fails(self, dataset):
        session = DiscSession(dataset)
        with pytest.raises(RuntimeError, match="select"):
            session.zoom_in(0.05)

    def test_select_many_matches_single_selects(self, dataset):
        session = DiscSession(dataset, engine="grid")
        batch = session.select_many([0.2, 0.1, 0.2])
        fresh = DiscSession(dataset, engine="grid")
        singles = [fresh.select(r) for r in (0.2, 0.1, 0.2)]
        assert [r.selected for r in batch] == [r.selected for r in singles]
        assert session.last_result is batch[-1]

    def test_auto_resolves_to_mtree_at_paper_scale(self, dataset):
        session = DiscSession(dataset)
        assert session.engine == "mtree"
        assert isinstance(session.index, MTreeIndex)

    def test_compare_methods_shapes(self, dataset):
        session = DiscSession(dataset)
        table = session.compare_methods(0.25)
        assert set(table) == {"DisC", "r-C", "MaxMin", "MaxSum", "k-medoids"}
        disc_row = table["DisC"]
        # DisC covers everything by construction.
        assert disc_row["coverage"] == pytest.approx(1.0)
        sizes = {row["size"] for name, row in table.items() if name != "r-C"}
        assert len(sizes) == 1  # matched k

    def test_compare_methods_reuses_last_greedy_result(self, dataset, monkeypatch):
        """compare_methods must go through the session path: no fresh
        greedy run when last_result already holds one at this radius."""
        from repro import requests as requests_module

        calls = []
        real = requests_module.METHODS["greedy"]

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setitem(requests_module.METHODS, "greedy", counting)
        session = DiscSession(dataset)
        view = session.select(0.25)
        assert len(calls) == 1
        session.compare_methods(0.25)
        assert len(calls) == 1  # reused, not recomputed
        session.compare_methods(0.3)
        assert len(calls) == 2  # different radius -> session select
        # The session default applies on the compare path too.
        assert calls[-1]["track_closest_black"] is True
        # Comparison is read-only for the zoom state: the interactive
        # view survives a compare at another radius.
        assert session.last_result is view

    def test_compare_methods_does_not_reuse_white_variant(self, dataset):
        """A white-update solution is a different algorithm; the DisC
        row must come from a fresh grey Greedy-DisC run."""
        session = DiscSession(dataset)
        white = session.select(0.25, update_variant="white")
        assert "White" in white.algorithm
        table = session.compare_methods(0.25)
        fresh = DiscSession(dataset).compare_methods(0.25)
        assert table["DisC"]["size"] == fresh["DisC"]["size"]
        assert session.last_result is white  # still the user's view

    def test_raw_points_constructor(self, dataset):
        session = DiscSession(dataset.points, "euclidean", engine="brute")
        result = session.select(0.3, method="basic")
        assert result.size >= 1


class TestMetricResolution:
    """Regression: layered entry points resolve the metric exactly once
    (a Metric instance passes through `_resolve`/`get_metric` unchanged,
    so no double-resolution of already-resolved callables)."""

    def test_metric_instance_preserved_by_identity(self, dataset):
        metric = MinkowskiMetric(3)
        session = DiscSession(dataset.points, metric, engine="brute")
        assert session.metric is metric
        assert session.index.metric is metric

    def test_dataset_metric_preserved(self, dataset):
        session = DiscSession(dataset)
        assert session.metric is dataset.metric
        assert session.index.metric is dataset.metric

    def test_resolve_is_idempotent(self, dataset):
        from repro.api import resolve_data

        points, metric = resolve_data(dataset, None)
        again_points, again_metric = resolve_data(points, metric)
        assert again_metric is metric
        assert again_points is points
        from repro.distance import get_metric

        assert get_metric(metric) is metric


class TestDiversifierShim:
    """The deprecated `DiscDiversifier` shim is gone; its replacements
    must stay usable under DeprecationWarning-as-error."""

    def test_session_and_free_functions_do_not_warn(self, dataset):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            DiscSession(dataset, engine="brute").select(0.2)
            build_index(dataset, engine="brute")
            disc_select(dataset, 0.2, engine="brute")
