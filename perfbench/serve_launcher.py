"""Start the ``repro`` CLI with span recording on (the traced ``serve_http`` server).

Usage::

    python3 perfbench/serve_launcher.py SPANS_DIR serve run --dir ... [repro args]

Installs the span hooks of :mod:`perfbench.spans`, runs the normal
``repro`` command line, and writes the recorded spans to ``SPANS_DIR``
when the command returns (after a graceful SIGTERM shutdown).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: "list[str]") -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.cli as cli
    from perfbench.spans import Recorder, install

    dump_dir, *cli_args = argv
    recorder = Recorder(dump_dir=dump_dir)
    uninstall = install(recorder)
    # The CLI keeps its workload factories in a dict built at import.
    factories = dict(cli.WORKLOADS)
    for name, factory in factories.items():
        cli.WORKLOADS[name] = recorder.wrap("instance.build", factory)
    try:
        return cli.main(cli_args)
    finally:
        cli.WORKLOADS.update(factories)
        uninstall()
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
