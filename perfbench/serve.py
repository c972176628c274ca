"""Run ``repro-audit serve --workers 2`` for the benchmark.

Usage: ``python3 perfbench/serve.py [--trace-dir DIR] [--max-payload N]``

Without ``--trace-dir`` this is exactly the CLI's ``serve`` command.
With it, the layer functions are wrapped first, so the fleet workers the
router forks inherit the wrappers, and every process opens and closes its
recording window on ``SIGUSR1`` / ``SIGUSR2`` (see
:mod:`perfbench.tracer`).  The listening address is announced on the
first line of standard output.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Fleet size of every service workload (matches a 2-core machine).
FLEET_WORKERS = 2


def _exit_with_parent(parent: int) -> None:
    """Stop the fleet if the benchmark that started it disappears."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--max-payload", type=int, default=None)
    args = parser.parse_args()
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), name="parent-watch", daemon=True
    ).start()
    if args.trace_dir:
        from perfbench.layers import install
        from perfbench.tracer import Tracer

        tracer = Tracer()
        install(tracer)
        tracer.control_by_signals(args.trace_dir)
    from repro.cli import main as cli_main

    command = ["serve", "--workers", str(FLEET_WORKERS), "--port", "0"]
    if args.max_payload is not None:
        command += ["--max-payload", str(args.max_payload)]
    return cli_main(command)


if __name__ == "__main__":
    sys.exit(main())
