"""One benchmark pass: run a command list through `arcmaps.cli.main` in this process.

Usage: python3 bench/one_pass.py SPEC.json

SPEC names the commands, whether to trace, and the file the result goes
to.  Each command is timed alone, and the pass time is the sum of the
command times.  The host speed probe samples the whole pass (see
hostspeed.py), so the pass time can also be given at the reference host
speed; time spent in probes is not counted.  Stdout of each command is
captured for the oracle and the determinism check.  Run from the root of a checkout: the
package is imported from its `src` directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hostspeed import Sampler, normalised


def run_command(main, argv: list[str], sampler: Sampler) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    paused, t0 = sampler.paused, time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            error = traceback.format_exc()
    return {
        "argv": argv,
        "rc": rc,
        "error": error,
        "stdout": out.getvalue(),
        "seconds": time.perf_counter() - t0 - (sampler.paused - paused),
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(Path.cwd() / "src"))
    from arcmaps.cli import main as cli_main

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap_command(cli_main)
    with Sampler() as sampler:
        results = [run_command(cli_main, argv, sampler) for argv in spec["commands"]]
    wall_s = sum(r["seconds"] for r in results)
    record = {
        "wall_s": wall_s,
        "norm_wall_s": normalised(wall_s, sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_values()
    Path(spec["out"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
