"""Run ``repro serve`` under the layer wrappers.

Usage::

    python3 perfbench/daemon.py OUT.json serve ARGS...

The per-layer wrappers are installed for the daemon's whole life;
``SIGUSR1`` sets aside the totals recorded so far (start-up and
warm-up) and starts counting afresh.  Once the daemon has drained and
returned, both sets of layer totals and the session cache totals are
written to ``OUT.json``.  Untraced runs start the daemon as
``python3 -m repro.cli serve ...`` instead.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.layers import Installed, LayerClock  # noqa: E402


def main(argv: list[str]) -> int:
    """Serve with ``argv[1:]``, then write the totals to ``argv[0]``."""
    from repro.cli import main as cli_main
    from repro.engine import QueryEngine

    if len(argv) < 2:
        raise SystemExit("usage: daemon.py OUT.json serve ARGS...")
    out, cli_argv = Path(argv[0]), argv[1:]
    sessions: list = []
    original_init = QueryEngine.__init__

    def remember(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        sessions.append(self)

    QueryEngine.__init__ = remember
    clock = LayerClock()
    startup: dict = {}

    def set_aside(signum, frame) -> None:
        startup.update(clock.seconds())
        clock.reset()

    signal.signal(signal.SIGUSR1, set_aside)
    try:
        with Installed(clock):
            status = cli_main(cli_argv)
    finally:
        QueryEngine.__init__ = original_init
    totals = [harness.cache_totals(session) for session in sessions]
    out.write_text(json.dumps({
        "startup_seconds": startup,
        "seconds": clock.seconds(),
        "candidate_rows": clock.candidate_rows,
        "slp_expanded_chars": clock.slp_expanded_chars,
        "cache": [sum(column) for column in zip(*totals)] or [0, 0, 0],
    }))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
