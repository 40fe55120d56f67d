"""Output oracle: is one command's stdout right?

Family tables and map summaries are rebuilt here from the paper's closed
laws (chi = -n(n-3) for C31/C33, -n(n-2) for C34, with the graphs C_n^(n)
and C_n x C_n) and compared byte for byte.  `analyze` reports are compared
with facts recorded for each input, which do not depend on the seed's
relabelling, and every witness they print (index-p subgroups, triples,
pairs) is checked again with `sympy.combinatorics`, independently of
arcmaps.  `verify` records must be confirmed, with every check ok and every
certificate's examined count equal to its candidate count.
"""

from __future__ import annotations

import json
import re
from math import isqrt

from sympy.combinatorics import Permutation, PermutationGroup

# Per analyze input: order, degree, [(p, Sylow order, tag)], hypothesis,
# and whether a regular triple, a reversing triple and a rotary pair exist.
# "D16xZ2" is the package's name for D8 x Z2, which it tags by group order.
ANALYZE_FACTS = {
    "C31(15)": (900, 30, [(2, 4, "Z2xZ2"), (3, 9, "Z3xZ3"), (5, 25, "Z5xZ5")], True, (True, True, True)),
    "C34(15)": (1800, 30, [(2, 8, "D8"), (3, 9, "Z3xZ3"), (5, 25, "Z5xZ5")], True, (True, True, True)),
    "(Z3xZ3):Z2": (18, 6, [(2, 2, "Z2"), (3, 9, "Z3xZ3")], True, (False, True, False)),
    "(Z9xZ3):Z2": (54, 12, [(2, 2, "Z2"), (3, 27, "Z9xZ3")], True, (False, True, False)),
    "GL(2,3)": (48, 8, [(2, 16, "SD16"), (3, 3, "Z3")], True, (False, True, True)),
    "Z4oGL(2,3)": (96, 52, [(2, 32, "Q16oZ4"), (3, 3, "Z3")], True, (False, True, True)),
    "T1(1.5)l1": (72, 10, [(2, 8, "D8"), (3, 9, "Z3xZ3")], True, (False, True, False)),
    "T1(1.6)l1": (72, 10, [(2, 8, "D8"), (3, 9, "Z3xZ3")], True, (False, True, False)),
    "T1(1.5)l1xZ2": (144, 12, [(2, 16, "D16xZ2"), (3, 9, "Z3xZ3")], True, (False, True, False)),
    "T1(1.6)l2": (216, 16, [(2, 8, "D8"), (3, 27, "Z9xZ3")], True, (False, True, False)),
}

KIND_LINES = (("regular", "regular triple"), ("reversing", "reversing triple"), ("rotary", "rotary pair"))


def check(argv: list[str], stdout: str, inputs: dict[str, str]) -> list[str]:
    """Problems with one command's stdout; argv is the workload's template,
    with `@name` for input files, and inputs maps each name to its path."""
    try:
        return CHECKERS[argv[0]](argv, stdout, inputs)
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return [f"unparseable output: {type(err).__name__}: {err}"]


# -- integers and the closed laws --------------------------------------------------


def dot_string(k: int) -> str:
    if k == 0:
        return "0"
    n, d, parts = abs(k), 2, []
    while d * d <= n:
        while n % d == 0:
            parts.append(str(d))
            n //= d
        d += 1
    if n > 1:
        parts.append(str(n))
    return ("-" if k < 0 else "") + (".".join(parts) or "1")


def squarefree(k: int) -> bool:
    return k != 0 and all(k % (d * d) for d in range(2, isqrt(abs(k)) + 1))


def chi_law(family: str, n: int) -> int:
    return -n * (n - 2) if family == "C34" else -n * (n - 3)


def _family_ns(mode: str, lo: int, hi: int) -> list[int]:
    ns = range(lo, hi + 1)
    if mode == "--odd":
        return [n for n in ns if n % 2]
    if mode == "--even":
        return [n for n in ns if n % 2 == 0]
    if mode == "--primes":
        return [n for n in ns if n > 1 and all(n % d for d in range(2, n))]
    return list(ns)


def check_family(argv, stdout, inputs):
    family, mode, span = argv[1], argv[2], argv[3]
    lo, hi = (int(x) for x in span.split(".."))
    rows = [(n, chi_law(family, n)) for n in _family_ns(mode, lo, hi)]
    if "records" in argv:
        want = "".join(
            json.dumps(
                {"chi": c, "factorization": dot_string(c), "family": family, "n": n, "squarefree": squarefree(c)},
                sort_keys=True,
            )
            + "\n"
            for n, c in rows
        )
    else:
        lines = [f"# family {family}: n | chi | factorization | squarefree"]
        for n, c in rows:
            flag = "squarefree" if squarefree(c) else "not-squarefree"
            lines.append(f"{n} | {c} | {dot_string(c)} | {flag}")
        want = "\n".join(lines) + "\n"
    return [] if stdout == want else ["family table differs from the closed law"]


# -- maps --------------------------------------------------------------------------


def check_map(argv, stdout, inputs):
    family, n = argv[1], int(argv[2])
    chi = chi_law(family, n)
    if family == "C34":
        v, e, f, val, face, graph = n * n, 2 * n * n, 2 * n, 4, 2 * n, f"C{n}xC{n}"
    else:
        v, e, f, val, face, graph = n, n * n, 2 * n, 2 * n, n, f"C{n}^({n})"
    head = [
        f"# map {family} n={n}",
        f"vertices: {v}",
        f"edges: {e}",
        f"faces: {f}",
        f"valency: {val}",
        f"face_length: {face}",
        f"chi: {chi}",
        f"factorization: {dot_string(chi)}",
        f"squarefree: {squarefree(chi)}",
        f"graph: {graph}",
    ]
    problems = []
    if v - e + f != chi:
        problems.append("V - E + F differs from chi")
    lines = stdout.split("\n")
    if lines[: len(head)] != head:
        problems.append("map summary differs from the closed law")
    if "--dot" in argv:
        problems += _check_dot("\n".join(lines[len(head) :]), v, e, val)
    elif stdout != "\n".join(head) + "\n":
        problems.append("unexpected output after the map summary")
    return problems


def _check_dot(text: str, v: int, e: int, valency: int) -> list[str]:
    edges = [tuple(map(int, m)) for m in re.findall(r"^\s*(\d+) -- (\d+);$", text, re.M)]
    if not text.startswith("graph ") or not text.rstrip().endswith("}"):
        return ["DOT output is not one graph"]
    degree = [0] * v
    adj = [[] for _ in range(v)]
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
        adj[a].append(b)
        adj[b].append(a)
    seen, todo = {0}, [0]
    while todo:
        for b in adj[todo.pop()]:
            if b not in seen:
                seen.add(b)
                todo.append(b)
    problems = []
    if len(edges) != e:
        problems.append(f"DOT has {len(edges)} edges, want {e}")
    if any(d != valency for d in degree):
        problems.append("DOT graph is not regular of the map's valency")
    if len(seen) != v:
        problems.append("DOT graph is not connected")
    return problems


# -- analyze -----------------------------------------------------------------------


def _perm(text: str, degree: int) -> Permutation:
    cycles = [list(map(int, c.split())) for c in re.findall(r"\(([^()]*)\)", text)]
    return Permutation([c for c in cycles if c], size=degree)


def _perms(text: str, degree: int) -> list[Permutation]:
    """Space-separated permutations in cycle notation: '(0 1)(2 3) (4 5)'."""
    return [_perm(t, degree) for t in re.split(r"(?<=\)) (?=\()", text.strip())]


def _read_group(path: str) -> PermutationGroup:
    lines = [ln.split("#", 1)[0].strip() for ln in open(path)]
    lines = [ln for ln in lines if ln]
    degree = int(lines[0].split()[1])
    return PermutationGroup([_perm(ln, degree) for ln in lines[1:]])


def _p_part(n: int, p: int) -> int:
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def _data_problems(kind: str, elems: list[Permutation], G: PermutationGroup) -> list[str]:
    """Re-check generating data of a kind with sympy."""
    if any(not G.contains(g) for g in elems):
        return [f"{kind} data has an element outside the group"]
    if kind == "rotary":
        ok = len(elems) == 2 and elems[1].order() == 2
    else:
        ok = len(elems) == 3 and all(g.order() == 2 for g in elems)
        if kind == "regular":
            x, _, z = elems
            ok = ok and x != z and x * z == z * x
    if not ok or PermutationGroup(elems).order() != G.order():
        return [f"{kind} data fails its relations or does not generate"]
    return []


def check_analyze(argv, stdout, inputs):
    name = argv[1][1:]
    order, degree, sylows, hyp, exists = ANALYZE_FACTS[name]
    G = _read_group(inputs[name])
    want = [f"# analysis of {inputs[name]}", f"order: {order}", f"degree: {degree}"]
    want += [f"sylow p={p}: order {q}, {tag}" for p, q, tag in sylows]
    want.append(f"hypothesis: {'true' if hyp else 'false'}")
    lines = stdout.rstrip("\n").split("\n")
    problems = []
    if G.order() != order or any(q != _p_part(order, p) for p, q, _ in sylows):
        problems.append("recorded facts disagree with sympy")
    if lines[: len(want)] != want:
        problems.append("order, Sylow or hypothesis lines differ")
    rest = lines[len(want) :]
    witnesses = [ln for ln in rest if ln.startswith("  p=")]
    if len(witnesses) != len(sylows):
        problems.append("one hypothesis witness line per prime expected")
    for (p, q, _), line in zip(sylows, witnesses):
        m = re.fullmatch(rf"  p={p}: witness (trivial|cyclic|dihedral) \[(.*)\]", line)
        if m is None:
            problems.append(f"p={p}: no witness")
            continue
        if m.group(1) == "trivial":
            if q != p:
                problems.append(f"p={p}: trivial witness for a Sylow subgroup of order {q}")
            continue
        gens = _perms(m.group(2), degree)
        H = PermutationGroup(gens)
        shape = H.is_cyclic if m.group(1) == "cyclic" else H.is_dihedral
        if any(not G.contains(g) for g in gens) or H.order() * p != q or not shape:
            problems.append(f"p={p}: witness is not a {m.group(1)} subgroup of index p")
    tail = rest[len(witnesses) :]
    if len(tail) != 3:
        return problems + ["expected three generating-data lines"]
    for (kind, label), line, exist in zip(KIND_LINES, tail, exists):
        head, _, value = line.partition(": ")
        if head != label or (value != "none") != exist:
            problems.append(f"{label}: existence differs")
        elif exist:
            problems += _data_problems(kind, _perms(value, degree), G)
    return problems


# -- verify ------------------------------------------------------------------------


def _walk(obj):
    yield obj
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _walk(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk(v)


def check_verify(argv, stdout, inputs):
    records = [json.loads(line) for line in stdout.splitlines()]
    problems = []
    if [r["claim"] for r in records] != [argv[1]]:
        problems.append("one record for the named claim expected")
    for r in records:
        if r["status"] != "confirmed" or not all(c["ok"] for c in r["checks"]):
            problems.append(f"{r['claim']}: not confirmed")
        for node in _walk(r):
            if not isinstance(node, dict):
                continue
            if "candidates" in node and node.get("examined") != node["candidates"]:
                problems.append(f"{r['claim']}: certificate examined != candidates")
            if {"kind", "elements", "group_order"} <= node.keys():
                elems = node["elements"]
                degree = 1 + max((int(x) for e in elems for x in re.findall(r"\d+", e)), default=0)
                perms = [_perm(e, degree) for e in elems]
                H = PermutationGroup(perms)
                if _data_problems(node["kind"], perms, H) or H.order() != node["group_order"]:
                    problems.append(f"{r['claim']}: witness fails its relations")
    return problems


CHECKERS = {
    "family": check_family,
    "map": check_map,
    "analyze": check_analyze,
    "verify": check_verify,
}
