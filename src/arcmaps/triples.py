"""Arc-transitive generating data: regular triples, reversing triples, rotary pairs.

A regular triple (x, y, z) is three involutions generating G with x, z a
commuting distinct pair (so <x, z> is the Klein group); a reversing triple
drops the commuting condition; a rotary pair (alpha, z) is a generating pair
whose second entry is an involution.  Existence searches are exhaustive and
deterministic: candidates are scanned in element-enumeration order, symmetric
candidates are pruned, and the generation test exits early once a closure
passes half the group order (a proper subgroup has index at least 2).

The defining conditions are invariant under conjugation in G, so every
scan runs in blocks of the candidates that share a first element (rotary
pairs) or a first pair (triples; unordered in the pruned regular and
reversing scans).  When a block ends with no hit, its whole G-orbit is
marked, found by a breadth-first search over the conjugation tables, and
a later block whose key is marked is skipped: each of its candidates is
conjugate to one already rejected.  A rejected alpha also marks the
orbits of its powers, since <alpha^k, z> lies in <alpha, z>.  The first
hit is therefore the one the same scan without skipping would find, and
`exhaustive_search_count` adds a skipped block's raw size, so its count
still covers the whole candidate space.

The generation test runs on element indices.  Each product it needs is read
from the group's right-multiplication column of the generator, an array of
|G| indices (4|G| bytes) that is allocated the first time that element
enters a test and filled one entry at a time as the closures reach it.  The
candidate loops reuse the same few elements over and over, so later tests
mostly read entries earlier tests computed; the commute test of regular
triples compares two such entries instead of multiplying.  This is the one
closure over element indices; every closure over image tuples is
`groups._close`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import NotASubgroupError, NotNormalError, PermGroup
from .perms import Permutation
from .structure import is_cyclic, is_dihedral

KINDS = ("regular", "reversing", "rotary")


class LemmaViolationError(AssertionError):
    """A quotient of a triple landed outside every branch allowed by theory."""


@dataclass(frozen=True)
class GeneratingTriple:
    """Generating data of one of the three kinds, tied to its group."""

    kind: str  # "regular" | "reversing" | "rotary"
    elements: tuple[Permutation, ...]
    group: PermGroup

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        want = 2 if self.kind == "rotary" else 3
        if len(self.elements) != want:
            raise ValueError(f"{self.kind} data needs {want} elements")

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "elements": [g.cycle_string() for g in self.elements],
            "group_order": self.group.order,
        }


def generates(G: PermGroup, elems: Sequence[Permutation]) -> bool:
    """Closure test <elems> == G with early exit above |G| / 2.

    Every input must be a member of G.  The closure runs on element indices,
    reading products from G's right-multiplication columns.
    """
    index = G._index
    try:
        gens = [index[e.images] for e in elems]
    except KeyError:
        raise NotASubgroupError("element outside the ambient group") from None
    steps = [(i, G._column(i)) for i in gens]
    half = G.order // 2
    seen = bytearray(G.order)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        new_frontier = []
        for a in frontier:
            for i, col in steps:
                b = col[a]
                if b < 0:
                    b = G._mul_index(a, i)
                if not seen[b]:
                    seen[b] = 1
                    new_frontier.append(b)
                    count += 1
                    if count > half:
                        return True
        frontier = new_frontier
    return count == G.order


def check_triple(G: PermGroup, candidate: Sequence[Permutation], kind: str) -> bool:
    """Do the elements satisfy the kind's defining conditions in G?"""
    for g in candidate:
        if g not in G:
            raise NotASubgroupError(f"{g.cycle_string()} is not a member")
    if kind == "rotary":
        alpha, z = candidate
        return z.order() == 2 and generates(G, [alpha, z])
    x, y, z = candidate
    if not (x.order() == y.order() == z.order() == 2):
        return False
    if kind == "regular" and (x == z or x * z != z * x):
        return False
    return generates(G, [x, y, z])


def count_involutions(G: PermGroup) -> int:
    return len(G.involution_indices())


def find_any(G: PermGroup, kind: str) -> Optional[GeneratingTriple]:
    """First valid data of the kind in the deterministic scan order, if any."""
    if kind == "regular":
        got = _find_regular(G)
    elif kind == "reversing":
        got = _find_reversing(G)
    elif kind == "rotary":
        got = _find_rotary(G)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if got is None:
        return None
    return GeneratingTriple(kind, got, G)


def exists(G: PermGroup, kind: str) -> bool:
    return find_any(G, kind) is not None


def search_space_size(G: PermGroup, kind: str) -> int:
    """Cardinality of the raw candidate space the exhaustive scan covers."""
    inv = len(G.involution_indices())
    if kind == "rotary":
        return G.order * inv
    return inv**3


def exhaustive_search_count(G: PermGroup, kind: str) -> tuple[Optional[tuple], int]:
    """Scan over the whole raw candidate space, counting every candidate.

    No multiset or (x, z) symmetry pruning and no early stop, so it is
    slower than find_any, but the count of examined candidates equals
    search_space_size exactly, which is the certificate a non-existence
    claim wants.  The count is the tested candidates plus the raw size of
    every skipped block (a first element for rotary pairs, an ordered first
    pair for triples): one conjugate to a rejected block, or, for rotary
    pairs, to a power of a rejected alpha, and every block after the
    witness.  Returns (first witness, count).
    """
    elems = G.elements
    inv = G.involution_indices()
    examined = 0
    witness = None
    done: set[tuple] = set()
    if kind == "rotary":
        for a, alpha in enumerate(elems):
            if witness is not None or (a,) in done:
                examined += len(inv)
                continue
            for k in inv:
                examined += 1
                if witness is None and generates(G, [alpha, elems[k]]):
                    witness = (alpha, elems[k])
            if witness is None:
                _mark_orbits(G, done, [(b,) for b in G._powers(a)])
        return witness, examined
    for i in inv:
        x = elems[i]
        for j in inv:
            if witness is not None or (i, j) in done:
                examined += len(inv)
                continue
            y = elems[j]
            for k in inv:
                z = elems[k]
                examined += 1
                if witness is not None:
                    continue
                if kind == "regular" and (i == k or G._mul_index(i, k) != G._mul_index(k, i)):
                    continue
                if generates(G, [x, y, z]):
                    witness = (x, y, z)
            if witness is None:
                _mark_orbits(G, done, [(i, j)])
    return witness, examined


def _mark_orbits(G: PermGroup, done: set, blocks) -> None:
    """Add the G-orbit of each block, a tuple of element indices, to done.

    G acts on a block by conjugating every entry through G's conjugation
    tables.  Closing under the generators gives the orbit under G, so done
    stays a union of orbits and a block already in it needs no search.  An
    unordered pair is marked as both of its orders.
    """
    conj = G._conj_index
    stack = [b for b in blocks if b not in done]
    done.update(stack)
    while stack:
        block = stack.pop()
        for j in range(len(G.generators)):
            img = tuple([conj(a, j) for a in block])
            if img not in done:
                done.add(img)
                stack.append(img)


def _find_regular(G) -> Optional[tuple]:
    elems = G.elements
    inv = G.involution_indices()
    done: set[tuple] = set()
    # (x, z) and (z, x) give equivalent triples; scan i < k only, so a
    # block is an unordered pair
    for ii, i in enumerate(inv):
        x = elems[i]
        for k in inv[ii + 1 :]:
            if (i, k) in done or G._mul_index(i, k) != G._mul_index(k, i):
                continue
            z = elems[k]
            for j in inv:
                y = elems[j]
                if generates(G, [x, y, z]):
                    return (x, y, z)
            _mark_orbits(G, done, [(i, k), (k, i)])
    return None


def _find_reversing(G) -> Optional[tuple]:
    elems = G.elements
    inv = G.involution_indices()
    done: set[tuple] = set()
    # fully symmetric conditions: scan multisets i <= j <= k.  When the
    # block of (i, j) ends, every multiset holding both has been rejected
    # (the others sort into earlier blocks), so the block is unordered.
    for a, i in enumerate(inv):
        x = elems[i]
        for b in range(a, len(inv)):
            j = inv[b]
            if (i, j) in done:
                continue
            y = elems[j]
            for c in range(b, len(inv)):
                z = elems[inv[c]]
                if generates(G, [x, y, z]):
                    return (x, y, z)
            _mark_orbits(G, done, [(i, j), (j, i)])
    return None


def _find_rotary(G) -> Optional[tuple]:
    elems = G.elements
    inv = G.involution_indices()
    # <alpha^k, z> lies in <alpha, z>: a rejected alpha also marks the
    # orbits of its powers
    done: set[tuple] = set()
    for a, alpha in enumerate(elems):
        if (a,) in done:
            continue
        for k in inv:
            z = elems[k]
            if generates(G, [alpha, z]):
                return (alpha, z)
        _mark_orbits(G, done, [(b,) for b in G._powers(a)])
    return None


@dataclass(frozen=True)
class QuotientBehavior:
    """How generating data projects to a proper quotient.

    branch is "same-kind" when the projected elements are pairwise distinct
    and still valid data of the same kind, else "collapsed" with the
    degenerate shape recorded (Z2 / dihedral for triples, cyclic for rotary
    pairs).  Any other outcome would contradict the quotient lemma and raises
    LemmaViolationError instead.
    """

    branch: str
    collapsed_shape: Optional[str]
    quotient_order: int
    projected: tuple[str, ...]

    def to_record(self) -> dict:
        return {
            "branch": self.branch,
            "collapsed_shape": self.collapsed_shape,
            "quotient_order": self.quotient_order,
            "projected": list(self.projected),
        }


def quotient_behavior(G: PermGroup, triple: GeneratingTriple, N: PermGroup) -> QuotientBehavior:
    """Project the data to G/N and classify the branch taken."""
    if N.order == G.order:
        raise NotNormalError("quotient behavior needs a proper normal subgroup")
    quot = G.quotient(N)
    Q = quot.group
    imgs = tuple(quot.project(g) for g in triple.elements)
    strs = tuple(g.cycle_string() for g in imgs)

    if triple.kind == "rotary":
        if imgs[1].order() == 2 and check_triple(Q, imgs, "rotary"):
            return QuotientBehavior("same-kind", None, Q.order, strs)
        if is_cyclic(Q):
            return QuotientBehavior("collapsed", "cyclic", Q.order, strs)
        raise LemmaViolationError(
            "rotary pair projected to a non-cyclic quotient without a rotary pair"
        )

    distinct = len({g.images for g in imgs}) == 3
    if distinct and check_triple(Q, imgs, triple.kind):
        return QuotientBehavior("same-kind", None, Q.order, strs)
    if Q.order == 2:
        return QuotientBehavior("collapsed", "Z2", Q.order, strs)
    if is_dihedral(Q):
        return QuotientBehavior("collapsed", "dihedral", Q.order, strs)
    raise LemmaViolationError(
        f"{triple.kind} triple collapsed onto a quotient that is neither Z2 nor dihedral"
    )
