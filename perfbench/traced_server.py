"""Run the image server with the layer wrappers installed.

Usage::

    python3 perfbench/traced_server.py SPANS_FILE -- <expelliarmus args>

e.g. ``... spans.json -- --workspace ws serve --port-file port.txt``.
The wrappers go in before ``repro.cli.main`` starts the daemon.  Each
SIGUSR1 writes the spans and counters recorded since the previous one
to SPANS_FILE (whole, via a rename) and starts recording afresh, so the
benchmark can discard set-up and collect its timed phase before it
kills the server.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path = Path(argv[0])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.tracer import Tracer, install
    from repro import cli

    tracer = install(Tracer())

    def dump(_signum, _frame) -> None:
        tmp = spans_path.with_name(spans_path.name + ".tmp")
        tmp.write_text(json.dumps(tracer.snapshot()))
        tracer.reset()
        os.replace(tmp, spans_path)

    signal.signal(signal.SIGUSR1, dump)
    return cli.main(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
