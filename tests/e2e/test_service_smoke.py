"""The job service end to end, over a real ``repro serve`` process.

A service started with ``python -m repro serve --port 0 --workers 1
--backend serial`` must report itself healthy on ``/v1``, still answer
the legacy unversioned ``/healthz`` with a ``Deprecation`` header, run
a k-center job submitted over HTTP to exactly the result of the direct
:func:`repro.api.solve_kcenter` call, and keep a non-empty trace of it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import solve_kcenter
from repro.service import ServiceClient

_BANNER = re.compile(r"listening on (http://\S+) ")


@pytest.fixture
def service_url():
    """A ``repro serve`` process on an ephemeral port; its URL is read
    from the ``listening on`` banner.  Killed at teardown."""
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
        [str(Path(repro.__file__).parents[1])] + sys.path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--backend", "serial"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    try:
        line: list = []
        reader = threading.Thread(target=lambda: line.append(proc.stdout.readline()),
                                  daemon=True)
        reader.start()
        reader.join(timeout=60)
        match = _BANNER.search(line[0]) if line else None
        if match is None:
            pytest.fail(f"service printed no banner: {line!r}")
        yield match.group(1)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_http_kcenter_job_matches_the_direct_call(service_url):
    client = ServiceClient(service_url, timeout=10.0)
    health = client.healthz()
    assert health["status"] == "ok" and health["version"], health
    assert health["api_version"] == "v1", health

    # the legacy unversioned path still answers, marked deprecated
    with urllib.request.urlopen(f"{service_url}/healthz", timeout=10.0) as resp:
        assert resp.headers.get("Deprecation") == "true", dict(resp.headers)

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
