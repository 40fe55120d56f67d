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
reversing scans).  One loop, `_scan`, runs every scan: when a block ends
with no hit, its whole G-orbit is marked, found by a breadth-first search
over the conjugation tables, and a later block whose key is marked is
skipped, since each of its candidates is conjugate to one already
rejected.  A rejected alpha also marks the orbits of its powers.
`find_any` stops at the first hit, which is the one the same scan without
skipping would find; `exhaustive_search_count` counts on to the end,
adding every block's raw size, so its count covers the whole candidate
space.

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
    got, _ = _scan(G, kind, exhaust=False)
    return None if got is None else GeneratingTriple(kind, got, G)


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
    claim wants.  Returns (first witness, count).
    """
    return _scan(G, kind, exhaust=True)


def _scan(G: PermGroup, kind: str, exhaust: bool) -> tuple[Optional[tuple], int]:
    """The one block loop: (first witness, candidates examined).

    Every block adds its raw size, |Inv|, to the count.  find_any stops at
    the first hit; with exhaust, the scan counts on to the end.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    keys, open_block = _blocks(G, kind, exhaust)
    elems = G.elements
    raw = len(G.involution_indices())
    done: set[tuple] = set()
    witness = None
    examined = 0
    for key in keys:
        examined += raw
        if witness is not None or key in done:
            continue
        candidates, marks = open_block(key)
        hit = next((c for c in candidates if generates(G, [elems[i] for i in c])), None)
        if hit is None:
            _mark_orbits(G, done, marks)
        else:
            witness = tuple(elems[i] for i in hit)
            if not exhaust:
                break
    return witness, examined


def _blocks(G: PermGroup, kind: str, exhaust: bool):
    """The block keys of one scan in scan order, and open(key).

    open(key) gives the block's candidates, as tuples of element indices in
    scan order, and the keys whose orbits the block marks when it has no hit.
    """
    inv = G.involution_indices()
    if kind == "rotary":
        # a first element alpha; <alpha^k, z> lies in <alpha, z>, so a
        # rejected alpha also marks the orbits of its powers
        def open_block(key):
            (a,) = key
            return ((a, k) for k in inv), [(b,) for b in G._powers(a)]

        return ((a,) for a in range(G.order)), open_block
    if exhaust:
        # an ordered first pair (x, y); a regular z commutes with x
        def open_block(key):
            i, j = key
            return ((i, j, k) for k in inv if kind == "reversing" or _commute(G, i, k)), [key]

        return ((i, j) for i in inv for j in inv), open_block
    if kind == "regular":
        # (x, z) and (z, x) give equivalent triples: scan i < k only, so a
        # block is an unordered pair (x, z).  A pair that does not commute
        # holds no candidate and marks nothing.
        def open_block(key):
            i, k = key
            if not _commute(G, i, k):
                return (), ()
            return ((i, j, k) for j in inv), [key, (k, i)]

        return ((i, k) for a, i in enumerate(inv) for k in inv[a + 1 :]), open_block
    # fully symmetric conditions: scan multisets i <= j <= k (inv ascends).
    # When the block of (i, j) ends, every multiset holding both has been
    # rejected (the others sort into earlier blocks), so it is unordered.
    def open_block(key):
        i, j = key
        return ((i, j, k) for k in inv if k >= j), [key, (j, i)]

    return ((i, j) for a, i in enumerate(inv) for j in inv[a:]), open_block


def _commute(G: PermGroup, i: int, k: int) -> bool:
    """Are elements i and k distinct and commuting?"""
    return i != k and G._mul_index(i, k) == G._mul_index(k, i)


def _mark_orbits(G: PermGroup, done: set, blocks) -> None:
    """Add the G-orbit of each block, a tuple of element indices, to done.

    G acts on a block by conjugating every entry through G's conjugation
    tables.  Closing under the generators gives the orbit under G, so done
    stays a union of orbits and a block already in it needs no search.
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
