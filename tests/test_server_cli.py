"""``python -m repro serve`` end to end: spawn, query, shut down.

The CLI contract the CI smoke and the benchmark rely on: the bound
address is the first (flushed) stdout line, ``--port 0`` binds an
ephemeral port, ``POST /shutdown`` drains and the process exits 0, and a
misconfigured server (a batch cap below 1) exits 2 before binding
anything.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.timeout(180)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def serve_command(*extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve",
        "--port", "0", "--dataset", "polls", "--backend", "serial", *extra,
    ]


def spawn(*extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.Popen(
        serve_command(*extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO,
    )


def read_port(process: subprocess.Popen, deadline: float = 60.0) -> int:
    started = time.monotonic()
    line = process.stdout.readline()
    assert time.monotonic() - started < deadline
    assert line.startswith("serving on http://"), line
    return int(line.rsplit(":", 1)[1])


def call(port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestServeSmoke:
    def test_start_query_shutdown(self):
        process = spawn()
        try:
            port = read_port(process)
            status, payload = call(
                port, "POST", "/answer",
                {"request": "P(_, _; c1; c2), C(c1, 'D', _, _, e, _), "
                            "C(c2, 'R', _, _, e, _)"},
            )
            assert status == 200
            assert payload["kind"] == "probability"
            assert 0.0 <= payload["value"] <= 1.0

            status, stats = call(port, "GET", "/stats")
            assert status == 200
            assert stats["requests"]["answered"] == 1

            status, payload = call(port, "POST", "/shutdown")
            assert status == 200 and payload == {"draining": True}

            stdout, stderr = process.communicate(timeout=60)
            assert process.returncode == 0, stderr
            assert "server drained and stopped" in stdout
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_a_bad_config_exits_2(self):
        process = spawn("--max-batch", "0")
        try:
            stdout, stderr = process.communicate(timeout=120)
        finally:
            if process.poll() is None:  # it served instead of exiting
                process.kill()
                process.communicate()
        assert process.returncode == 2
        assert "max_batch" in stderr
        assert "serving on" not in stdout

    def test_corrupt_cache_db_exits_2_with_one_line(self, tmp_path):
        junk = tmp_path / "junk.sqlite"
        junk.write_bytes(b"not a database" * 64)
        process = spawn("--cache-db", str(junk))
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 2
        assert stderr.splitlines() == [
            f"cannot open --cache-db {junk}: file is not a database"
        ]
        assert "serving on" not in stdout


class TestConfigFromArgs:
    def test_flags_map_onto_the_config(self):
        import argparse

        from repro.server.cli import add_serve_parser, config_from_args

        parser = argparse.ArgumentParser()
        add_serve_parser(parser.add_subparsers(dest="command"))
        args = parser.parse_args(
            [
                "serve", "--port", "0", "--dataset", "polls",
                "--max-batch", "16",
                "--backend", "serial", "--approx-budget", "1e6",
                "--cache-db", "cache.sqlite",
            ]
        )
        config = config_from_args(args)
        assert config.port == 0
        assert config.dataset == "polls"
        assert config.max_batch == 16
        assert config.backend == "serial"
        assert config.solver_options == {"approx_budget": 1e6}
        assert config.cache_db == "cache.sqlite"

    def test_the_server_keeps_the_thread_backend_default(self):
        # The library defaults to serial; the server stays on threads
        # until its backend span no longer hangs on ThreadBackend.
        import argparse

        from repro.server.cli import add_serve_parser, config_from_args
        from repro.server.config import ServerConfig

        parser = argparse.ArgumentParser()
        add_serve_parser(parser.add_subparsers(dest="command"))
        args = parser.parse_args(["serve"])
        assert ServerConfig().backend == "thread"
        assert config_from_args(args).backend == "thread"
