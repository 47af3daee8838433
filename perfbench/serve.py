"""Launch ``repro-4cycles serve`` for the service workload.

Usage: ``python3 perfbench/serve.py SRC_DIR [TRACE_OUT]``.  Runs the CLI's
``serve`` command on a kernel-chosen localhost port (it prints the address),
and with ``TRACE_OUT`` installs the benchmark's span wrappers in this server
process first and writes the recorded spans there on shutdown.  Stop it with
SIGINT; its last stdout line is a JSON object with the process's peak RSS and
CPU time.
"""

from __future__ import annotations

import json
import resource
import signal
import sys


def main(argv) -> int:
    src = argv[1]
    trace_out = argv[2] if len(argv) > 2 else None
    sys.path.insert(0, src)
    sys.stdout.reconfigure(line_buffering=True)
    # A process started in the background of a non-interactive shell inherits
    # SIGINT as ignored, and Python keeps it ignored; the benchmark stops the
    # server with SIGINT, so take it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if trace_out is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.cli import main as cli_main

    try:
        code = cli_main(["serve", "--host", "127.0.0.1", "--port", "0"])
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
            with open(trace_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
        print(json.dumps({
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
