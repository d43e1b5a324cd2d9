"""Run ``repro serve`` with span wrappers installed (the traced service).

Usage: ``python perfbench/serve_launcher.py SPANS_PATH [repro serve args...]``

Installs :func:`layers.install_service` in this process, then runs the
program's own ``serve`` command with the given arguments — the same
configuration path ``python -m repro serve`` takes — and writes the spans
to ``SPANS_PATH`` once the server has drained (SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    require_program()
    from layers import install_service
    from spans import Tracer

    from repro.cli import main as repro_main

    tracer = Tracer()
    install_service(tracer)
    try:
        return repro_main(["serve", *argv[1:]])
    finally:
        tracer.dump(Path(argv[0]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
