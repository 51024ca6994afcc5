"""Service-level tests for append chains + warm-start jobs.

Drives the whole streaming pipeline the way a client would: the
``POST /v1/datasets/<id>/append`` and ``GET .../chain`` routes, the
``warm_start`` JobSpec field, the drift report in the result payload,
cache separation between parent/child and warm/cold, the new metrics,
and the cross-backend determinism of the final drift report.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.service import (
    DatasetRegistry,
    JobManager,
    JobSpec,
    ServiceClient,
    ServiceError,
    serve,
)
from repro.service.http import run_in_thread


@pytest.fixture
def server():
    srv = serve(port=0, workers=1, backend="serial")
    run_in_thread(srv)
    yield srv
    srv.shutdown_service()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=60.0)


@pytest.fixture
def batches():
    rng = np.random.default_rng(42)
    return [rng.normal(scale=3.0, size=(60, 2)) for _ in range(3)]


class TestAppendRoutes:
    def test_append_and_chain_over_http(self, client, batches):
        base = client.register_points(batches[0])
        child = client.append_dataset(base["id"], batches[1])
        assert child["kind"] == "append" and child["n"] == 120
        assert child["params"]["parent"] == base["id"]

        grand = client.append_dataset(child["id"], batches[2])
        chain = client.resolve_chain(grand["id"])
        assert [d["id"] for d in chain] == [base["id"], child["id"], grand["id"]]

    def test_append_idempotent_over_http(self, client, batches):
        base = client.register_points(batches[0])
        first = client.append_dataset(base["id"], batches[1])
        second = client.append_dataset(base["id"], batches[1])
        assert first["id"] == second["id"]

    def test_append_unknown_dataset_404(self, client, batches):
        with pytest.raises(ServiceError) as exc:
            client.append_dataset("ds-missing", batches[0])
        assert exc.value.status == 404

    def test_append_metric_mismatch_409(self, client, batches):
        base = client.register_points(batches[0], metric="euclidean")
        with pytest.raises(ServiceError) as exc:
            client.append_dataset(base["id"], batches[1], metric="manhattan")
        assert exc.value.status == 409
        assert exc.value.code == "metric_mismatch"

    def test_append_workload_not_appendable_409(self, client, batches):
        ds = client.register_workload("gaussian", 80, seed=0)
        with pytest.raises(ServiceError) as exc:
            client.append_dataset(ds["id"], batches[0])
        assert exc.value.status == 409
        assert exc.value.code == "not_appendable"

    def test_append_rejects_unknown_fields(self, client, batches):
        base = client.register_points(batches[0])
        with pytest.raises(ServiceError) as exc:
            client._request(
                "POST",
                f"/datasets/{base['id']}/append",
                {"points": [[0.0, 0.0]], "zap": 1},
            )
        assert exc.value.status == 400

    def test_appended_metric_counter(self, server, client, batches):
        base = client.register_points(batches[0])
        client.append_dataset(base["id"], batches[1])
        dump = server.manager.metrics.render_prometheus()
        assert "repro_datasets_appended_total 1" in dump


class TestWarmJobs:
    def test_warm_job_reports_drift(self, client, batches):
        base = client.register_points(batches[0])
        child = client.append_dataset(base["id"], batches[1])
        done = client.wait(
            client.submit(
                algorithm="kcenter", dataset=child["id"], k=5, seed=0,
                machines=4, warm_start=True,
            )["id"]
        )
        assert done["state"] == "done"
        payload = done["result"]
        drift = payload["drift"]
        assert drift["appended"] == 60
        assert 0.0 <= drift["center_overlap"] <= 1.0
        assert drift["objective"] == payload["record"]["radius"]
        assert drift["drift_ratio"] == pytest.approx(
            drift["objective"] / payload["warm_start"]["parent"]["objective"]
        )
        assert payload["warm_start"]["parent"]["dataset"] == base["id"]
        assert payload["warm_start"]["parent"]["n"] == 60

    def test_warm_on_non_chained_dataset_400(self, client, batches):
        base = client.register_points(batches[0])
        with pytest.raises(ServiceError) as exc:
            client.submit(
                algorithm="kcenter", dataset=base["id"], k=4, warm_start=True
            )
        assert exc.value.status == 400

    def test_warm_and_cold_cached_separately(self, client, batches):
        base = client.register_points(batches[0])
        child = client.append_dataset(base["id"], batches[1])
        spec = dict(algorithm="kcenter", dataset=child["id"], k=5, seed=0,
                    machines=4)
        cold = client.wait(client.submit(**spec)["id"])
        warm = client.wait(client.submit(warm_start=True, **spec)["id"])
        # the warm job ran its own solve; it must not be served the
        # cold result (the payloads differ at least in the drift report)
        assert "drift" not in cold["result"]
        assert "drift" in warm["result"]

        # resubmitting each mode hits its own cache entry
        again_cold = client.submit(**spec)
        again_warm = client.submit(warm_start=True, **spec)
        assert again_cold["cached"] is True
        assert again_warm["cached"] is True
        assert again_warm["result"] == warm["result"]
        assert again_cold["result"] == cold["result"]

    def test_cache_never_cross_serves_parent_and_child(self, client, batches):
        base = client.register_points(batches[0])
        child = client.append_dataset(base["id"], batches[1])
        spec = dict(algorithm="kcenter", k=5, seed=0, machines=4)
        on_parent = client.wait(client.submit(dataset=base["id"], **spec)["id"])
        on_child = client.submit(dataset=child["id"], **spec)
        # same spec, different dataset version: must not be a cache hit
        assert on_child["cached"] is False
        on_child = client.wait(on_child["id"])
        assert (
            on_child["result"]["fingerprint"]
            != on_parent["result"]["fingerprint"]
        )

    def test_warm_job_resolves_parent_transitively(self, client, batches):
        """A warm job on a grandchild whose ancestors were never solved
        resolves the whole chain (each link warm on its own parent)."""
        base = client.register_points(batches[0])
        child = client.append_dataset(base["id"], batches[1])
        grand = client.append_dataset(child["id"], batches[2])
        done = client.wait(
            client.submit(
                algorithm="kcenter", dataset=grand["id"], k=5, seed=0,
                machines=4, warm_start=True,
            )["id"],
            timeout=120.0,
        )
        assert done["state"] == "done"
        assert done["result"]["drift"]["appended"] == 60
        assert done["result"]["warm_start"]["parent"]["n"] == 120

    def test_warm_jobs_metric_counter(self, server, client, batches):
        base = client.register_points(batches[0])
        child = client.append_dataset(base["id"], batches[1])
        client.wait(
            client.submit(
                algorithm="diversity", dataset=child["id"], k=5, seed=0,
                machines=4, warm_start=True,
            )["id"]
        )
        dump = server.manager.metrics.render_prometheus()
        assert "repro_warm_start_jobs_total 1" in dump
        assert "repro_warm_start_drift_ratio" in dump


class TestDriftDeterminism:
    @staticmethod
    def _run_chain(batches, backend):
        registry = DatasetRegistry()
        manager = JobManager(registry, workers=1, backend=backend).start()
        try:
            ds = registry.register_points(batches[0])
            reports = []
            for delta in batches[1:]:
                ds = registry.append(ds.id, delta)
                job = manager.submit(
                    JobSpec(
                        algorithm="kcenter", dataset=ds.id, k=5, seed=0,
                        machines=4, warm_start=True,
                    )
                )
                job = manager.wait(job.id)
                assert job.state == "done", job.error
                payload = job.result
                reports.append(
                    {
                        "fingerprint": payload["fingerprint"],
                        "record": {
                            key: payload["record"][key]
                            for key in ("centers", "radius", "tau",
                                        "coreset_value")
                        },
                        "oracle": payload["oracle"],
                        "drift": payload["drift"],
                    }
                )
            return json.dumps(reports, sort_keys=True)
        finally:
            manager.stop()

    def test_drift_reports_byte_identical_across_backends(self, batches, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        serial = self._run_chain(batches, "serial")
        process = self._run_chain(batches, "process")
        assert serial == process
