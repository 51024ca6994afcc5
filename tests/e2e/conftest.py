"""Shared fixtures for the end-to-end tests: real ``repro serve`` processes."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.service import open_stores

_BANNER = re.compile(r"listening on (http://\S+) ")
_WORKER_BANNER = re.compile(r"draining .* \(worker-id=([^,]+),")


@pytest.fixture
def repro_env():
    """The environment for a ``python -m repro`` child: unbuffered, and
    importing this same ``repro`` package."""
    return dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.pathsep.join(
        [str(Path(repro.__file__).parents[1])] + sys.path))


@pytest.fixture
def _spawn_serve(tmp_path, repro_env):
    """Start ``python -m repro serve *args``, wait for its first stdout
    line and match ``banner`` against it; returns ``(proc, match,
    log_path)``.  The server's log (its stderr) goes to a file under
    ``tmp_path``, ``env`` adds environment variables, and every process
    started this way is killed at teardown."""
    started: list = []

    def spawn(args, banner: re.Pattern, env: dict | None = None) -> tuple:
        log_path = tmp_path / f"server-{len(started)}.log"
        log = open(log_path, "w")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdout=subprocess.PIPE, stderr=log, text=True,
            env=dict(repro_env, **(env or {})),
        )
        started.append((proc, log))
        line: list = []
        reader = threading.Thread(target=lambda: line.append(proc.stdout.readline()),
                                  daemon=True)
        reader.start()
        reader.join(timeout=60)
        match = banner.search(line[0]) if line else None
        if match is None:
            pytest.fail(f"server printed no banner: {line!r}\n{log_path.read_text()}")
        return proc, match, log_path

    yield spawn
    for proc, log in started:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        log.close()


@pytest.fixture
def launch_service(_spawn_serve):
    """Start ``repro serve --port 0 *args`` and return ``(url,
    log_path)``: the URL is read from the ``listening on`` banner."""

    def launch(*args: str, env: dict | None = None) -> tuple:
        _, match, log_path = _spawn_serve(["--port", "0", *args], _BANNER, env)
        return match.group(1), log_path

    return launch


@pytest.fixture
def launch_worker(_spawn_serve):
    """Start ``repro serve --role worker *args`` and return ``(proc,
    worker_id)``: the id (the lease owner its jobs carry) is read from
    the ``worker-id=`` banner."""

    def launch(*args: str, env: dict | None = None) -> tuple:
        proc, match, _ = _spawn_serve(["--role", "worker", *args], _WORKER_BANNER, env)
        return proc, match.group(1)

    return launch


@pytest.fixture
def kill_lease_holder():
    """Return ``kill(proc, worker_id, state_dir)``: SIGKILL a worker
    while it holds a job's lease, and return that job's id.

    ``kill`` polls the shared job table until a running job is leased
    by ``worker_id``, then stops the worker (SIGSTOP, waiting until it
    is stopped) and reads the table again: a stopped worker can neither
    finish nor renew, so a job it still holds then is one the kill
    orphans.  If the job finished in between, the worker resumes and
    the wait goes on.
    """

    def kill(proc: subprocess.Popen, worker_id: str, state_dir,
             timeout: float = 120.0) -> str:
        jobs = open_stores(str(state_dir)).jobs

        def held() -> list:
            running, _ = jobs.list(state="running")
            return [rec.id for rec in running if rec.worker == worker_id]

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if held():
                proc.send_signal(signal.SIGSTOP)
                os.waitpid(proc.pid, os.WUNTRACED)
                holding = held()
                if holding:
                    proc.kill()
                    proc.wait()
                    return holding[0]
                proc.send_signal(signal.SIGCONT)
            time.sleep(0.005)
        pytest.fail(f"worker {worker_id} held no job lease within {timeout}s")

    return kill
