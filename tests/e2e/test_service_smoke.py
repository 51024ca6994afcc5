"""The job service end to end, over a real ``repro serve`` process.

A service started with ``python -m repro serve --port 0 --workers 1
--backend serial`` must report itself healthy on ``/v1``, answer the
unversioned ``/healthz`` with ``404`` ``no_route``, run a k-center job
submitted over HTTP to exactly the result of the direct
:func:`repro.api.solve_kcenter` call, and keep a non-empty trace of it.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import solve_kcenter
from repro.service import ServiceClient


def test_http_kcenter_job_matches_the_direct_call(launch_service):
    service_url, _log = launch_service("--workers", "1", "--backend", "serial")
    client = ServiceClient(service_url, timeout=10.0)
    health = client.healthz()
    assert health["status"] == "ok" and health["version"], health
    assert health["api_version"] == "v1", health

    # only the versioned API answers
    with pytest.raises(urllib.error.HTTPError) as exc:
        urllib.request.urlopen(f"{service_url}/healthz", timeout=10.0)
    assert exc.value.code == 404
    assert json.loads(exc.value.read())["error"]["code"] == "no_route"

    points = np.random.default_rng(7).normal(scale=3.0, size=(400, 2))
    ds = client.register_points(points)
    job = client.submit(algorithm="kcenter", dataset=ds["id"],
                        k=8, eps=0.2, seed=11, machines=4)
    done = client.wait(job["id"], timeout=120.0)
    assert done["state"] == "done", done

    direct = solve_kcenter(points, k=8, eps=0.2, seed=11, machines=4)
    record = done["result"]["record"]
    assert record["radius"] == direct.radius, (record["radius"], direct.radius)
    assert record["centers"] == [int(c) for c in direct.centers]
    assert record["rounds"] == direct.rounds

    trace = client.trace(job["id"])
    assert trace["traceEvents"], "empty trace for a completed job"
