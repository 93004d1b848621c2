"""The shared HTTP server base binds, fails and reports like one program.

A bind failure (port in use) must surface as the ``OSError`` it is on
every tier, so the CLI can turn it into its one-line ``cannot bind``
error instead of a traceback.
"""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cluster import ClusterManifest, Router, start_router
from repro.core import compute_baseline
from repro.service import QueryEngine, start_server

from tests.conftest import make_random_space


@pytest.fixture()
def busy_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        yield sock.getsockname()[1]


class TestBindFailure:
    def test_serve_raises_oserror(self, busy_port):
        engine = QueryEngine(compute_baseline(make_random_space(5, seed=3)))
        with pytest.raises(OSError):
            start_server(engine, port=busy_port, threads=2)

    def test_router_raises_oserror(self, busy_port, tmp_path):
        manifest = ClusterManifest(store=str(tmp_path / "links.rseg"), shards=1)
        with pytest.raises(OSError):
            start_router(Router(manifest), port=busy_port, threads=2)

    def test_cli_reports_one_line_error(self, busy_port, tmp_path):
        from repro.store import save_relationships

        store = tmp_path / "links.json"
        save_relationships(compute_baseline(make_random_space(5, seed=3)), store)
        src = str(Path(repro.__file__).resolve().parents[1])
        argv = ["serve", "--store", str(store), "--port", str(busy_port)]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 3
        assert f"cannot bind 127.0.0.1:{busy_port}" in proc.stderr
        assert "Traceback" not in proc.stderr
