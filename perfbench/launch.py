"""Run one entflow command line in this process and time it.

    python3 perfbench/launch.py OUT.json timed|traced ENTFLOW-ARGS...

Imports ``entflow.cli`` and times ``entflow.cli.main(ENTFLOW-ARGS)``, the
command's own work without interpreter start-up and import (those are in
the set-up metric).  ``traced`` first wraps the traced functions
(tracer.py).  OUT.json receives {"wall": seconds} plus, when traced, the
spans.  The exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    out_path, mode, cli_args = argv[0], argv[1], argv[2:]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import entflow.cli

    start = time.perf_counter()
    try:
        return entflow.cli.main(cli_args)
    finally:
        record = {"wall": time.perf_counter() - start}
        if tracer is not None:
            record.update(tracer.record())
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
