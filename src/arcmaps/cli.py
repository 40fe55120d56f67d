"""Command-line surface: family tables, map exports, structural analysis, verification.

Exit codes: 0 success, 1 a verification claim was refuted, 2 usage or input
error.  Output on stdout is byte-deterministic for a fixed invocation;
progress and timing diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .families import (
    FAMILIES,
    FamilyParameterError,
    build_family,
    emit_family_table,
)
from .genfiles import GenFileError, parse_generator_file
from .groups import DEFAULT_CAP, GroupTooLargeError, PermGroup
from .integers import factor
from .maps import MapStructureError, build_map, underlying_graph
from .structure import recognize, satisfies_hypothesis
from .triples import find_any
from .verify import ALIASES, CLAIMS, run_claims

USAGE_ERROR = 2
REFUTED_ERROR = 1


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"range must look like A..B, got {text!r}")
    return int(lo), int(hi)


def _options(sub, cap: bool = True, formats=("text", "records")) -> None:
    """Add the options a subcommand reads.  Every subcommand accepts --workers,
    so one argv suffix fits every command."""
    if cap:
        sub.add_argument("--cap", type=int, default=DEFAULT_CAP, help="element cap for closures")
    sub.add_argument("--workers", type=int, default=1, help="worker processes for independent work items")
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arcmaps",
        description="regular maps of square-free Euler characteristic: "
        "families, analysis, and claim verification",
    )
    p.add_argument("--version", action="version", version=f"arcmaps {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    fam = sub.add_parser("family", help="emit a characteristic table for a map family")
    _options(fam)
    fam.add_argument("family", choices=FAMILIES)
    grp = fam.add_mutually_exclusive_group(required=True)
    grp.add_argument("--odd", metavar="A..B", help="odd n in the range")
    grp.add_argument("--even", metavar="A..B", help="even n in the range")
    grp.add_argument("--primes", metavar="A..B", help="prime n in the range")
    grp.add_argument("--range", dest="whole", metavar="A..B", help="every n in the range")
    fam.add_argument("--only-squarefree", action="store_true", help="emit only square-free rows")

    mp = sub.add_parser("map", help="export one map of a family")
    _options(mp, formats=("text", "records", "dot"))
    mp.add_argument("family", choices=FAMILIES)
    mp.add_argument("n", type=int)
    mp.add_argument("--dot", action="store_true", help="also emit the underlying graph in DOT")

    an = sub.add_parser("analyze", help="structural report for a generator file")
    _options(an)
    an.add_argument("path")

    ver = sub.add_parser("verify", help="run claim verification")
    _options(ver, cap=False)
    ver.add_argument("claim", help="a claim id or 'all'")
    ver.add_argument("--lmax", type=int, default=2, help="parameter bound for families of claims")
    ver.add_argument("--list", action="store_true", help="list claim ids and exit")
    return p


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_family(args) -> int:
    range_text = args.odd or args.even or args.primes or args.whole
    try:
        lo, hi = _parse_range(range_text)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    ns = range(lo, hi + 1)
    if args.odd:
        ns = [n for n in ns if n % 2 == 1]
    elif args.even:
        ns = [n for n in ns if n % 2 == 0]
    elif args.primes:
        ns = [n for n in ns if factor(n).factors == ((n, 1),)]
    else:
        ns = list(ns)
    if not ns:
        print("error: empty parameter range", file=sys.stderr)
        return USAGE_ERROR
    rows = emit_family_table(args.family, ns, workers=args.workers, cap=args.cap)
    if args.only_squarefree:
        rows = [r for r in rows if r.squarefree]
    if args.format == "records":
        text = "".join(json.dumps(r.to_record(), sort_keys=True) + "\n" for r in rows)
    else:
        lines = [f"# family {args.family}: n | chi | factorization | squarefree"]
        for r in rows:
            flag = "squarefree" if r.squarefree else "not-squarefree"
            lines.append(f"{r.n} | {r.chi} | {r.factorization} | {flag}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_map(args) -> int:
    inst = build_family(args.family, args.n, cap=args.cap)
    m = build_map(inst.group, inst.triple)
    record = m.to_record()
    record["family"] = args.family
    record["n"] = args.n
    if args.format == "dot" or args.dot:
        try:
            g = underlying_graph(m)
        except MapStructureError as err:
            print(f"error: {err}", file=sys.stderr)
            return USAGE_ERROR
        dot = g.to_dot(f"{args.family}_n{args.n}")
        if args.format == "dot":
            _emit(dot, args.out)
            return 0
        record["dot"] = dot
    if args.format == "records":
        text = json.dumps(record, sort_keys=True) + "\n"
    else:
        lines = [f"# map {args.family} n={args.n}"]
        for key in (
            "vertices",
            "edges",
            "faces",
            "valency",
            "face_length",
            "chi",
            "factorization",
            "squarefree",
            "graph",
        ):
            lines.append(f"{key}: {record[key]}")
        text = "\n".join(lines) + "\n"
        if args.dot:
            text += record["dot"]
    _emit(text, args.out)
    return 0


def cmd_analyze(args) -> int:
    try:
        with open(args.path) as fh:
            gf = parse_generator_file(fh.read())
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except GenFileError as err:
        print(f"error: {args.path}: {err}", file=sys.stderr)
        return USAGE_ERROR
    G = PermGroup(gf.degree, list(gf.generators), cap=args.cap)
    hyp = satisfies_hypothesis(G)
    sylows = [
        {"prime": w.prime, "order": w.sylow.order, "tag": str(recognize(w.sylow))}
        for w in hyp.witnesses
    ]
    data = {
        "order": G.order,
        "degree": G.degree,
        "sylow": sylows,
        "hypothesis": hyp.to_record(),
        "regular_triple": None,
        "reversing_triple": None,
        "rotary_pair": None,
    }
    for kind, key in (
        ("regular", "regular_triple"),
        ("reversing", "reversing_triple"),
        ("rotary", "rotary_pair"),
    ):
        found = find_any(G, kind)
        data[key] = found.to_record() if found else None
    if args.format == "records":
        text = json.dumps(data, sort_keys=True) + "\n"
    else:
        lines = [f"# analysis of {args.path}"]
        lines.append(f"order: {data['order']}")
        lines.append(f"degree: {data['degree']}")
        for s in sylows:
            lines.append(f"sylow p={s['prime']}: order {s['order']}, {s['tag']}")
        lines.append(f"hypothesis: {'true' if hyp.ok else 'false'}")
        for w in hyp.witnesses:
            if w.ok:
                gens = " ".join(w.witness_gens)
                lines.append(f"  p={w.prime}: witness {w.witness_kind} [{gens}]")
            else:
                lines.append(
                    f"  p={w.prime}: FAILS (all {w.candidates_tried} index-p subgroups exhausted)"
                )
        for kind, key in (
            ("regular triple", "regular_triple"),
            ("reversing triple", "reversing_triple"),
            ("rotary pair", "rotary_pair"),
        ):
            val = data[key]
            if val is None:
                lines.append(f"{kind}: none")
            else:
                lines.append(f"{kind}: {' '.join(val['elements'])}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.lmax < 1:
        print(f"error: --lmax must be at least 1, got {args.lmax}", file=sys.stderr)
        return USAGE_ERROR
    if args.list:
        lines = [f"{cid}: {desc}" for cid, (desc, _) in CLAIMS.items()]
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    if args.claim != "all" and ALIASES.get(args.claim, args.claim) not in CLAIMS:
        known = ", ".join(list(CLAIMS) + ["all"])
        print(f"error: unknown claim {args.claim!r} (known: {known})", file=sys.stderr)
        return USAGE_ERROR
    reports = run_claims(args.claim, args.lmax, workers=args.workers)
    refuted = any(r.status == "refuted" for r in reports)
    if args.format == "records":
        text = "".join(json.dumps(r.to_record(), sort_keys=True) + "\n" for r in reports)
    else:
        lines = []
        for r in reports:
            failed = [c for c in r.checks if not c.ok]
            lines.append(
                f"{r.claim}: {r.status} ({len(r.checks)} checks, {len(failed)} failed)"
            )
            for c in r.checks:
                mark = "ok  " if c.ok else "FAIL"
                detail = f" {c.info}" if (not c.ok and c.info) else ""
                lines.append(f"  {mark} {c.name}{detail}")
        text = "\n".join(lines) + "\n"
    for r in reports:
        print(f"[{r.claim}] {r.status} in {r.elapsed:.2f}s", file=sys.stderr)
    _emit(text, args.out)
    return REFUTED_ERROR if refuted else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "family":
            return cmd_family(args)
        if args.command == "map":
            return cmd_map(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "verify":
            return cmd_verify(args)
    except (FamilyParameterError, GroupTooLargeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
