"""Analysis sweeps (repro.sweeps): spec validation, pure scoring and
ranking, the jobs-of-jobs manager end to end, durable analysis stores,
and the byte-identity guarantees the subsystem is built around.

Property tests (hypothesis): the ranking/recommendation is invariant
under the order cells are presented in, and the Pareto frontier matches
an independent brute-force dominance check on small random grids.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.datasets import DatasetRegistry, UnknownDatasetError
from repro.service.jobs import JobManager
from repro.service.store import (
    AnalysisRecord,
    InMemoryAnalysisStore,
    UnknownAnalysisError,
    open_stores,
)
from repro.sweeps import (
    MAX_CELLS,
    SWEEPABLE_SOLVERS,
    AnalysisNotReady,
    SweepManager,
    SweepSpec,
    build_report,
    pareto_frontier,
    quality_ratio,
    rank_cells,
    recommend,
)


def _stack(state_dir=None, workers=2):
    """(datasets, manager, sweeps) on a fresh store bundle."""
    stores = open_stores(state_dir)
    datasets = DatasetRegistry(stores.datasets)
    manager = JobManager(datasets, stores=stores, workers=workers).start()
    return datasets, manager, SweepManager(manager)


def _teardown(manager, sweeps):
    sweeps.stop()
    manager.stop()


@pytest.fixture
def points():
    return np.random.default_rng(11).normal(scale=2.0, size=(64, 2))


class TestSweepSpec:
    def test_scalar_axes_are_promoted(self):
        spec = SweepSpec(datasets="ds-a", solvers="kcenter", ks=4)
        assert spec.datasets == ["ds-a"]
        assert spec.solvers == ["kcenter"]
        assert spec.ks == [4]
        assert spec.cell_count == 1

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            SweepSpec(datasets=["ds-a"], solvers=["nope"], ks=[3])

    def test_ksupplier_not_sweepable(self):
        assert "ksupplier" not in SWEEPABLE_SOLVERS
        with pytest.raises(ValueError, match="not sweepable"):
            SweepSpec(datasets=["ds-a"], solvers=["ksupplier"], ks=[3])

    def test_duplicate_axis_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(datasets=["ds-a"], solvers=["kcenter"], ks=[3, 3])

    def test_cell_cap(self):
        with pytest.raises(ValueError, match=f"{MAX_CELLS}-cell"):
            SweepSpec(
                datasets=["ds-a"],
                solvers=["kcenter"],
                ks=list(range(1, MAX_CELLS + 2)),
            )

    def test_outliers_need_an_outlier_solver(self):
        with pytest.raises(ValueError, match="outlier-capable"):
            SweepSpec(datasets=["ds-a"], solvers=["kcenter"], ks=[3], outliers=2)
        spec = SweepSpec(
            datasets=["ds-a"],
            solvers=["kcenter", "malkomes_outliers"],
            ks=[3],
            outliers=2,
        )
        by_solver = {
            cell["solver"]: spec.cell_job_spec(cell) for cell in spec.grid()
        }
        # the budget rides only on the outlier-capable cells
        assert by_solver["malkomes_outliers"].outliers == 2
        assert by_solver["kcenter"].outliers is None

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ValueError, match="unknown sweep field"):
            SweepSpec.from_dict(
                {"datasets": ["ds-a"], "solvers": ["kcenter"], "ks": [3], "zz": 1}
            )
        with pytest.raises(ValueError, match="at least"):
            SweepSpec.from_dict({"datasets": ["ds-a"], "solvers": ["kcenter"]})

    def test_grid_order_last_axis_fastest(self):
        spec = SweepSpec(
            datasets=["ds-a"], solvers=["kcenter", "gonzalez"], ks=[3], seeds=[0, 1]
        )
        cells = spec.grid()
        assert [c["index"] for c in cells] == [0, 1, 2, 3]
        assert [(c["solver"], c["seed"]) for c in cells] == [
            ("kcenter", 0),
            ("kcenter", 1),
            ("gonzalez", 0),
            ("gonzalez", 1),
        ]
        assert cells[0]["objective"] == "kcenter"

    def test_to_dict_from_dict_roundtrip(self):
        spec = SweepSpec(
            datasets=["ds-a"], solvers=["indyk"], ks=[3, 5], epss=[0.2], name="x"
        )
        assert SweepSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


class TestScoringPure:
    def test_quality_ratio_orientation(self):
        # kcenter: achieved radius over the optimal/bound denominator
        assert quality_ratio(3.0, 2.0, "kcenter") == pytest.approx(1.5)
        # diversity: optimal/bound numerator over the achieved diversity
        assert quality_ratio(2.0, 3.0, "diversity") == pytest.approx(1.5)

    def test_quality_ratio_degenerate(self):
        assert quality_ratio(0.0, 0.0, "kcenter") == 1.0
        assert quality_ratio(1.0, 0.0, "kcenter") is None  # JSON-safe, ranks last

    def test_rank_ties_break_by_index(self):
        cells = [
            _cell(i, ratio=1.0, rounds=5, words=10, oracle=3) for i in (2, 0, 1)
        ]
        assert rank_cells(cells) == [0, 1, 2]

    def test_failed_cells_excluded_from_ranking(self):
        cells = [
            _cell(0, ratio=1.0, rounds=1, words=1, oracle=1),
            _cell(1, ratio=None, rounds=None, words=None, oracle=None,
                  state="failed"),
        ]
        assert rank_cells(cells) == [0]
        assert pareto_frontier(cells) == [0]


def _cell(index, *, ratio, rounds, words, oracle, state="done"):
    return {
        "index": index,
        "dataset": "ds-a",
        "solver": "kcenter",
        "k": 3,
        "eps": 0.1,
        "partition": "random",
        "trim_mode": "random",
        "seed": 0,
        "objective": "kcenter",
        "state": state,
        "value": ratio,
        "ratio": ratio,
        "reference": 1.0,
        "reference_kind": "exact",
        "rounds": rounds,
        "words": words,
        "oracle_calls": oracle,
        "oracle_evaluations": oracle,
    }


_cells_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=2_000),
    ),
    min_size=1,
    max_size=24,
)


class TestRankingProperties:
    """Satellite: hypothesis properties of the ranking and frontier."""

    @settings(max_examples=60, deadline=None)
    @given(_cells_strategy, st.randoms(use_true_random=False))
    def test_ranking_invariant_under_presentation_order(self, rows, rng):
        cells = [
            _cell(i, ratio=r, rounds=rd, words=w, oracle=o)
            for i, (r, rd, w, o) in enumerate(rows)
        ]
        shuffled = list(cells)
        rng.shuffle(shuffled)
        assert rank_cells(shuffled) == rank_cells(cells)
        assert sorted(pareto_frontier(shuffled)) == sorted(pareto_frontier(cells))
        spec = {"name": "prop"}
        ranking = rank_cells(cells)
        frontier = pareto_frontier(cells)
        reco = recommend(spec, cells, ranking, frontier)
        reco_shuffled = recommend(
            spec, shuffled, rank_cells(shuffled), pareto_frontier(shuffled)
        )
        assert reco == reco_shuffled
        assert reco["cell"] == ranking[0]

    @settings(max_examples=60, deadline=None)
    @given(_cells_strategy)
    def test_frontier_matches_bruteforce(self, rows):
        cells = [
            _cell(i, ratio=r, rounds=rd, words=w, oracle=o)
            for i, (r, rd, w, o) in enumerate(rows)
        ]
        expected = []
        for c in cells:
            dominated = False
            for d in cells:
                if d is c:
                    continue
                a = (d["ratio"], d["rounds"], d["words"])
                b = (c["ratio"], c["rounds"], c["words"])
                if all(x <= y for x, y in zip(a, b)) and a != b:
                    dominated = True
                    break
            if not dominated:
                expected.append(c["index"])
        assert pareto_frontier(cells) == expected
        # the ranking's head is always on the frontier
        assert rank_cells(cells)[0] in expected


class TestEndToEnd:
    def test_sweep_completes_and_ranks(self, points):
        datasets, manager, sweeps = _stack()
        try:
            ds = datasets.register_points(points)
            spec = SweepSpec(
                datasets=[ds.id], solvers=["kcenter", "gonzalez"], ks=[3, 5]
            )
            record = sweeps.submit(spec)
            record = sweeps.wait(record.id, timeout=120)
            assert record.state == "done"
            report = sweeps.report(record.id)
            assert report["counts"] == {"done": 4}
            assert sorted(report["ranking"]) == [0, 1, 2, 3]
            assert report["recommendation"]["cell"] == report["ranking"][0]
            assert set(report["frontier"]["cells"]) <= set(report["ranking"])
            assert "ratio (lower = better)" in report["ascii_frontier"]
            assert report["spec"] == spec.to_dict()
            for cell in report["cells"]:
                assert cell["state"] == "done"
                assert cell["ratio"] >= 1.0
                assert cell["reference_kind"] in ("exact", "bound")
        finally:
            _teardown(manager, sweeps)

    def test_report_contains_no_volatile_fields(self, points):
        datasets, manager, sweeps = _stack()
        try:
            ds = datasets.register_points(points)
            record = sweeps.submit(
                SweepSpec(datasets=[ds.id], solvers=["gonzalez"], ks=[3])
            )
            record = sweeps.wait(record.id, timeout=60)
            text = json.dumps(record.report)
            for forbidden in ("job-", "trace", "wall_s", "cached",
                              "created_at", "finished_at"):
                assert forbidden not in text
        finally:
            _teardown(manager, sweeps)

    def test_shared_cells_served_from_cache(self, points):
        datasets, manager, sweeps = _stack()
        try:
            ds = datasets.register_points(points)
            spec = SweepSpec(
                datasets=[ds.id], solvers=["gonzalez", "malkomes"], ks=[3, 4]
            )
            first = sweeps.wait(sweeps.submit(spec).id, timeout=120)
            cache = manager.cache.stats()
            assert cache["misses_total"] == 4  # each distinct cell ran once
            # the identical sweep is pure cache hits and finalizes
            # synchronously inside submit()
            second = sweeps.submit(spec)
            assert second.terminal
            assert manager.cache.stats()["hits_total"] >= 4
            assert json.dumps(second.report, sort_keys=True) == json.dumps(
                first.report, sort_keys=True
            )
        finally:
            _teardown(manager, sweeps)

    def test_report_invariant_under_worker_count(self, points):
        """Completion order must not leak into the report: 1 worker
        (grid order) and 3 workers (arbitrary interleave) agree
        byte-for-byte."""
        reports = []
        for workers in (1, 3):
            datasets, manager, sweeps = _stack(workers=workers)
            try:
                ds = datasets.register_points(points)
                spec = SweepSpec(
                    datasets=[ds.id],
                    solvers=["kcenter", "gonzalez", "malkomes"],
                    ks=[3, 5],
                )
                record = sweeps.wait(sweeps.submit(spec).id, timeout=240)
                reports.append(json.dumps(record.report, sort_keys=True))
            finally:
                _teardown(manager, sweeps)
        assert reports[0] == reports[1]

    def test_unknown_dataset_rejected_before_submission(self):
        datasets, manager, sweeps = _stack()
        try:
            with pytest.raises(UnknownDatasetError):
                sweeps.submit(
                    SweepSpec(datasets=["ds-nope"], solvers=["kcenter"], ks=[3])
                )
            assert sweeps.list_records() == ([], None)
            assert manager.stats()["jobs_by_state"]["queued"] == 0
        finally:
            _teardown(manager, sweeps)

    def test_report_before_done_raises(self, points):
        datasets, manager, sweeps = _stack()
        try:
            # a hand-planted running record: deterministic stand-in for
            # "the grid is still draining"
            record = AnalysisRecord(
                id=sweeps.store.next_analysis_id(),
                spec={},
                state="running",
                created_at=0.0,
                cell_job_ids=["job-000001"],
            )
            sweeps.store.create(record)
            with pytest.raises(AnalysisNotReady):
                sweeps.report(record.id)
        finally:
            _teardown(manager, sweeps)

    def test_unknown_analysis_raises(self):
        datasets, manager, sweeps = _stack()
        try:
            with pytest.raises(UnknownAnalysisError):
                sweeps.get("an-999999")
        finally:
            _teardown(manager, sweeps)

    def test_one_trace_spans_the_fanout(self, points):
        datasets, manager, sweeps = _stack()
        try:
            ds = datasets.register_points(points)
            record = sweeps.submit(
                SweepSpec(datasets=[ds.id], solvers=["gonzalez"], ks=[3, 4])
            )
            assert record.trace_id is not None
            for job_id in record.cell_job_ids:
                job = manager.get(job_id)
                assert job.trace_id == record.trace_id
        finally:
            _teardown(manager, sweeps)

    def test_stats_and_metrics(self, points):
        datasets, manager, sweeps = _stack()
        try:
            ds = datasets.register_points(points)
            record = sweeps.submit(
                SweepSpec(datasets=[ds.id], solvers=["gonzalez"], ks=[3])
            )
            sweeps.wait(record.id, timeout=60)
            stats = sweeps.stats()
            assert stats["analyses_submitted_total"] == 1
            assert stats["analyses_by_state"]["done"] == 1
            assert stats["cells_total"]["submitted"] == 1
            assert stats["cells_total"]["done"] == 1
            text = sweeps.sync_metrics().render_prometheus()
            assert "repro_sweeps_submitted_total" in text
            assert 'repro_sweeps_by_state{state="done"} 1' in text
        finally:
            _teardown(manager, sweeps)


class TestDurability:
    def test_sqlite_report_survives_reopen(self, tmp_path, points):
        state = str(tmp_path / "state")
        datasets, manager, sweeps = _stack(state_dir=state)
        try:
            ds = datasets.register_points(points)
            spec = SweepSpec(datasets=[ds.id], solvers=["gonzalez"], ks=[3, 4])
            record = sweeps.wait(sweeps.submit(spec).id, timeout=120)
            expected = json.dumps(record.report, sort_keys=True)
        finally:
            _teardown(manager, sweeps)
        # a brand-new process over the same directory sees the analysis
        datasets2, manager2, sweeps2 = _stack(state_dir=state)
        try:
            revived = sweeps2.get(record.id)
            assert revived.state == "done"
            assert json.dumps(revived.report, sort_keys=True) == expected
            assert revived.cell_job_ids == record.cell_job_ids
        finally:
            _teardown(manager2, sweeps2)

    def test_sqlite_matches_memory_byte_for_byte(self, tmp_path, points):
        outputs = []
        for state_dir in (None, str(tmp_path / "state")):
            datasets, manager, sweeps = _stack(state_dir=state_dir)
            try:
                ds = datasets.register_points(points)
                spec = SweepSpec(
                    datasets=[ds.id], solvers=["kcenter", "gonzalez"], ks=[4]
                )
                record = sweeps.wait(sweeps.submit(spec).id, timeout=120)
                outputs.append(json.dumps(record.report, sort_keys=True))
            finally:
                _teardown(manager, sweeps)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_analysis_store_protocol(self, tmp_path, backend):
        if backend == "memory":
            store = InMemoryAnalysisStore()
        else:
            store = open_stores(str(tmp_path / "s")).analyses
        ids = [store.next_analysis_id() for _ in range(3)]
        assert ids == ["an-000001", "an-000002", "an-000003"]
        for an_id in ids:
            store.create(
                AnalysisRecord(
                    id=an_id, spec={"name": an_id}, state="running",
                    created_at=1.0, cell_job_ids=["job-000001"],
                )
            )
        assert store.get(ids[1]).spec == {"name": ids[1]}
        with pytest.raises(UnknownAnalysisError):
            store.get("an-999999")
        # pagination walk
        page1, cursor = store.list(limit=2)
        assert [r.id for r in page1] == ids[:2] and cursor == ids[1]
        page2, cursor2 = store.list(limit=2, cursor=cursor)
        assert [r.id for r in page2] == ids[2:] and cursor2 is None
        assert store.count_by_state() == {"running": 3}
        # CAS finalize: exactly one winner per record
        rec = store.get(ids[0])
        rec.state = "done"
        rec.report = {"ranking": []}
        assert store.finalize(rec) is not None
        assert store.finalize(rec) is None
        assert store.get(ids[0]).report == {"ranking": []}
        assert store.count_by_state() == {"running": 2, "done": 1}
        done, _ = store.list(state="done")
        assert [r.id for r in done] == [ids[0]]
        store.delete(ids[2])
        assert store.count_by_state() == {"running": 1, "done": 1}

    def test_describe_shape(self):
        record = AnalysisRecord(
            id="an-000007", spec={"ks": [3]}, state="done", created_at=1.0,
            finished_at=2.0, cell_job_ids=["job-000001", "job-000002"],
            report={"ranking": [0]}, trace_id="t" * 32,
        )
        desc = record.describe()
        assert desc["cells"] == 2
        assert "report" not in desc
        assert record.describe(include_report=True)["report"] == {"ranking": [0]}
        assert record.numeric_id == 7
        assert record.terminal


class TestBuildReportWithFailures:
    def test_failed_cells_counted_and_unranked(self):
        spec = SweepSpec(datasets=["ds-a"], solvers=["gonzalez"], ks=[3, 4])
        grid = spec.grid()
        outcomes = [
            {"state": "done", "result": _payload(1.5), "error": None},
            {"state": "failed", "result": None, "error": "boom"},
        ]
        report = build_report(
            spec.to_dict(), grid, outcomes, lambda ds, obj, k: (1.0, "exact")
        )
        assert report["counts"] == {"done": 1, "failed": 1}
        assert report["ranking"] == [0]
        assert report["cells"][1]["error"] == "boom"
        assert report["cells"][1]["ratio"] is None


def _payload(value):
    return {
        "record": {"radius": value, "diversity": value},
        "mpc_stats": {"rounds": 2, "total_words": 10},
        "oracle": {"calls": 5, "evaluations": 50},
    }
