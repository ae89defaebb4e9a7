"""The ``repro client`` / ``repro serve`` command-line front ends.

The client commands run in-process through :func:`repro.cli.main`
against a daemon hosted by :func:`serve_in_thread`, so stdout/stderr
and exit codes are asserted directly.  The serve command is exercised
as a real subprocess — port announcement on stderr, a live query
against it, and the SIGTERM drain handshake.
"""

import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.alphabet import AB
from repro.core.database import Database
from repro.service import ServiceClient, serve_in_thread

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def daemon():
    db = Database(
        AB,
        {
            "R1": [("a", "ab"), ("b", "ba")],
            "R2": [("a",), ("ab",), ("b",)],
        },
    )
    handle = serve_in_thread(db)
    yield handle
    handle.stop()


def _client_args(daemon, *extra):
    host, port = daemon.address
    return ["client", "--host", host, "--port", str(port), *extra]


class TestClientCommand:
    def test_query_prints_rows_and_count(self, daemon, capsys):
        rc = main(
            _client_args(
                daemon, "--head", "x", "--length", "3", "R2(x)"
            )
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.splitlines() == ["a", "ab", "b"]
        assert "-- 3 tuple(s)" in captured.err

    def test_empty_string_prints_epsilon(self, daemon, capsys):
        rc = main(
            _client_args(
                daemon, "--head", "x", "--length", "2", "[x]l(x = eps)"
            )
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "ε" in captured.out.splitlines()

    def test_health_prints_json(self, daemon, capsys):
        rc = main(_client_args(daemon, "--health"))
        captured = capsys.readouterr()
        assert rc == 0
        document = json.loads(captured.out)
        assert document["status"] == "ok"

    def test_stats_prints_json(self, daemon, capsys):
        rc = main(_client_args(daemon, "--stats"))
        captured = capsys.readouterr()
        assert rc == 0
        document = json.loads(captured.out)
        assert "service" in document
        assert "pool" in document

    def test_explain_prints_plan_text(self, daemon, capsys):
        rc = main(
            _client_args(
                daemon, "--head", "x", "--length", "3", "--explain", "R2(x)"
            )
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.strip()

    def test_missing_formula_is_a_usage_error(self, daemon, capsys):
        rc = main(_client_args(daemon))
        captured = capsys.readouterr()
        assert rc == 2
        assert "formula is required" in captured.err

    def test_unreachable_server_exits_two(self, capsys):
        rc = main(
            ["client", "--host", "127.0.0.1", "--port", "1", "--health"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "cannot reach 127.0.0.1:1" in captured.err

    def test_server_side_error_exits_two(self, daemon, capsys):
        rc = main(
            _client_args(daemon, "--head", "x", "--length", "3", "R2(x")
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err


class TestServeCommand:
    def test_serve_announces_answers_and_drains_on_sigterm(self, tmp_path):
        db_path = tmp_path / "db.json"
        db_path.write_text(
            json.dumps({"R2": [["a"], ["ab"], ["b"]]})
        )
        # The with-block closes the stderr pipe on every exit path.
        with subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--alphabet", "ab", "--db", str(db_path),
                "--host", "127.0.0.1", "--port", "0",
            ],
            env={"PYTHONPATH": REPO_SRC, "PATH": "/usr/bin:/bin"},
            stderr=subprocess.PIPE,
            text=True,
        ) as process:
            try:
                banner = process.stderr.readline()
                match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
                assert match, f"no port announcement in {banner!r}"
                port = int(match.group(1))
                with ServiceClient("127.0.0.1", port) as client:
                    rows = client.query("R2(x)", ["x"], length=3)
                assert rows == [("a",), ("ab",), ("b",)]
                process.send_signal(signal.SIGTERM)
                process.wait(timeout=15.0)
                remainder = process.stderr.read()
                assert process.returncode == 0
                assert "-- draining" in remainder
                assert "-- drained, bye" in remainder
            finally:
                if process.poll() is None:  # pragma: no cover - cleanup
                    process.kill()
                    process.wait()
