"""arcmaps benchmark: replay a fixed command workload, check it, report metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed relabels the workload's input groups (see workloads.py); inputs
are built before any timing.  Each pass runs every command of the workload
back to back through `arcmaps.cli.main` in a fresh Python process (a
closed loop with one client), and passes run one at a time, so a cache
cannot carry over from one pass to the next.  With `--trace 0` passes
repeat for about S seconds (at least MIN_PASSES) and the end-to-end
metrics are medians over them; with `--trace 1` two untraced and two
traced passes, alternating, give the per-layer metrics and the tracing
overhead.  Times are given at a reference host speed (see hostspeed.py).
Every output is checked by the oracle, outside the timed region; a command
fails on an exception, a non-zero exit, a wrong output, or stdout that
differs from another pass with the same seed.  The last line of stdout is
one JSON object: correct, attempted, failed and the metrics named in
BENCHMARK.json.  Exits 2, printing no result, outside an arcmaps checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 150
SETUP_CODE = (
    "import sys, time; sys.path[:0] = ['src', {bench!r}]; from hostspeed import probe; "
    "a = [probe() for _ in range(8)]; t = time.perf_counter(); import arcmaps.cli; "
    "d = time.perf_counter() - t; print(d, *a, *(probe() for _ in range(8)))"
)


def pin(cpu: int):
    """Child set-up: run on one CPU, so a command and its speed probes share it."""
    return lambda: os.sched_setaffinity(0, {cpu})


def measure_setup(root: Path, cpu: int) -> float:
    """Median time for a fresh process to import arcmaps.cli, at the reference
    host speed; one warm-up process first writes the bytecode cache, as any
    earlier run would."""
    from hostspeed import normalised

    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE.format(bench=str(BENCH))],
            cwd=root, capture_output=True, text=True, check=True, timeout=60,
            preexec_fn=pin(cpu),
        )
        import_s, *probes = map(float, proc.stdout.split())
        samples.append(normalised(import_s, probes))
    return statistics.median(samples[1:])


def run_pass(root: Path, work: Path, cmds: list, trace: bool, cpu=None) -> dict:
    """One pass in a fresh process, on the given CPU (or any, when None)."""
    k = len(list(work.glob("pass*.spec")))
    spec, out = work / f"pass{k}.spec", work / f"pass{k}.json"
    spec.write_text(json.dumps({"commands": cmds, "trace": trace, "out": str(out)}))
    subprocess.run(
        [sys.executable, str(BENCH / "one_pass.py"), str(spec)],
        cwd=root, check=True, timeout=PASS_TIMEOUT_S,
        preexec_fn=None if cpu is None else pin(cpu),
    )
    return json.loads(out.read_text())


def failures(passes: list, templates: list, inputs: dict) -> list[str]:
    """One message per failed command of every pass."""
    from oracle import check

    verdicts = {}  # (command index, stdout) -> oracle problems
    messages = []
    for k, p in enumerate(passes):
        for i, res in enumerate(p["results"]):
            why = []
            if res["error"] or res["rc"] != 0:
                why.append(f"exit {res['rc']} {res['error'] or ''}".strip())
            elif res["stdout"] != passes[0]["results"][i]["stdout"]:
                why.append("stdout differs from pass 0")
            else:
                key = (i, res["stdout"])
                if key not in verdicts:
                    verdicts[key] = check(templates[i], res["stdout"], inputs)
                why += verdicts[key]
            if why:
                messages.append(f"pass {k} `{' '.join(res['argv'])}`: {'; '.join(why)}")
    return messages


def run(args, root: Path, work: Path) -> tuple[int, list[str], dict]:
    from workloads import WORKLOADS, build_inputs, commands

    inputs = {
        name: os.path.relpath(path, root)
        for name, path in build_inputs(args.workload, args.seed, work).items()
    }
    cmds = commands(args.workload, inputs)
    templates = WORKLOADS[args.workload]["commands"]
    cpu = max(os.sched_getaffinity(0))
    setup_s = measure_setup(root, cpu)
    if args.trace:
        passes = [run_pass(root, work, cmds, t, cpu) for t in (False, True, False, True)]
    else:
        passes, start = [], time.perf_counter()
        while len(passes) < MIN_PASSES or (
            (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds
        ):
            passes.append(run_pass(root, work, cmds, False, cpu))
    messages = failures(passes, templates, inputs)
    attempted = len(cmds) * len(passes)
    check_index = WORKLOADS[args.workload].get("parallel_check")
    if check_index is not None:
        # untimed: the same command with two worker processes prints the same
        argv = commands(args.workload, inputs, workers=2)[check_index]
        got = run_pass(root, work, [argv], False)["results"][0]
        attempted += 1
        if got["rc"] != 0 or got["stdout"] != passes[0]["results"][check_index]["stdout"]:
            messages.append(f"`{' '.join(argv)}` differs from --workers 1")
    if args.trace:
        from tracer import work_counts

        traced, untraced = passes[1::2], passes[0::2]
        values = dict(traced[0]["layers"])
        if work_counts(traced[0]["layers"]) != work_counts(traced[1]["layers"]):
            messages.append("the traced passes disagree on work counts")
        values["trace.overhead_s"] = statistics.median(
            p["norm_wall_s"] for p in traced
        ) - statistics.median(p["norm_wall_s"] for p in untraced)
        values["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    else:
        values = {
            "norm_wall_s": statistics.median(p["norm_wall_s"] for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
    for name in ("wall_s", "norm_wall_s"):
        each = " ".join(f"{p[name]:.3f}" for p in passes)
        print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {name} {each}", file=sys.stderr)
    return attempted, messages, values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "arcmaps" / "cli.py").is_file():
        print("error: run from the root of an arcmaps checkout (no src/arcmaps)", file=sys.stderr)
        return 2
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        attempted, messages, values = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for msg in messages:
        print(f"FAIL {msg}", file=sys.stderr)
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not messages,
        "attempted": attempted,
        "failed": len(messages),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
