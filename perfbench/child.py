"""Run one nanoramsey CLI command in this fresh interpreter and stamp its stages.

Usage: python3 perfbench/child.py STAMP_FILE TRACE RUN_ID [CLI ARGS...]

Stamps come from ``time.monotonic()``, which is system-wide, so the parent
can set them against its own spawn and reap stamps. With no CLI arguments
the child only imports ``nanoramsey.cli`` (a set-up probe). With TRACE = 1
the layer wrappers of ``tracer.py`` go in after the import, so the import
itself is timed the same way in both modes. The stamps, and the trace when
there is one, are written as JSON to STAMP_FILE.
"""
import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    stamp_path, trace, run_id, *cli_args = sys.argv[1:]
    t_import = time.monotonic()
    import nanoramsey
    import nanoramsey.cli
    t_imported = time.monotonic()
    tracer = None
    if trace == "1":
        from tracer import Tracer, install

        tracer = Tracer(run_id)
        install(tracer)
        tracer.add_span("cli.import", t_import, t_imported)
    rc = 0
    if cli_args:
        try:
            rc = nanoramsey.cli.main(cli_args)
        except SystemExit as exc:       # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:               # report like an uncaught error would
            traceback.print_exc()
            rc = 1
        sys.stdout.flush()
    t_done = time.monotonic()
    record = {"t_start": T_START, "t_import": t_import, "t_imported": t_imported,
              "t_done": t_done, "rc": rc, "module": nanoramsey.__file__}
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
