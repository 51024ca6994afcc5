"""Shared fixtures for the end-to-end tests: real ``repro serve`` processes."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

_BANNER = re.compile(r"listening on (http://\S+) ")


@pytest.fixture
def launch_service(tmp_path):
    """Start ``python -m repro serve --port 0 *args`` and return ``(url,
    log_path)``: the URL is read from the ``listening on`` banner, and
    the server's log (its stderr) goes to a file under ``tmp_path``.
    ``env`` adds environment variables.  Every server started this way
    is killed at teardown."""
    started: list = []

    def launch(*args: str, env: dict | None = None) -> tuple:
        log_path = tmp_path / f"server-{len(started)}.log"
        log = open(log_path, "w")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE, stderr=log, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED="1", **(env or {}),
                     PYTHONPATH=os.pathsep.join(
                         [str(Path(repro.__file__).parents[1])] + sys.path)),
        )
        started.append((proc, log))
        line: list = []
        reader = threading.Thread(target=lambda: line.append(proc.stdout.readline()),
                                  daemon=True)
        reader.start()
        reader.join(timeout=60)
        match = _BANNER.search(line[0]) if line else None
        if match is None:
            pytest.fail(f"service printed no banner: {line!r}\n{log_path.read_text()}")
        return match.group(1), log_path

    yield launch
    for proc, log in started:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        log.close()
