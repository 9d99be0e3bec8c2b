"""Run one ``leibnizalg`` CLI command under the tracer.

Usage: cli_child.py MODE SUMMARY_PATH SPAWN_TIME ARGS...

MODE is "spans" or "fields".  SPAWN_TIME is the parent's ``time.time()``
just before it started this process, so ``startup_s`` covers interpreter
start plus the import of the CLI.  The summary is written to SUMMARY_PATH
as JSON; the exit code and stdout are those of ``leibnizalg.cli.main``.
"""

import json
import sys
import time


def main() -> int:
    mode, summary_path, spawn_time, *args = sys.argv[1:]
    import leibnizalg.cli
    startup_s = time.time() - float(spawn_time)
    import tracer

    recorder = tracer.Tracer() if mode == "spans" else tracer.FieldCounter()
    recorder.install()
    try:
        code = leibnizalg.cli.main(args)
    finally:
        recorder.uninstall()
    if mode == "spans":
        summary = recorder.summary()
    else:
        summary = {"counts": dict(recorder.counts)}
    summary["startup_s"] = startup_s
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
