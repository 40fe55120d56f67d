"""Finitely generated permutation groups by full element enumeration.

Groups at desk scale (order up to a configurable cap, default 200 000) are
materialized as explicit element lists via breadth-first closure of the
generators.  Membership, centralizers, normality, cosets and quotients are
then direct scans.  `_close` is the one closure over image tuples: group
construction, the greedy choice of generators (`greedy_generators`, whose
last closure `group_from_elements` keeps as the element list) and
homomorphism extension (`extend_hom`, which closes the graph of the map)
all run on it.

Two kinds of lazily filled `array('i')` tables of element indices sit
beside the element list, each 4 * order bytes and -1 until an entry is
first read: right-multiplication columns (`_column`/`_mul_index`), one per
element that enters a generation test, and conjugation tables
(`_conj_index`), one per generator g, mapping the index of e to that of
g^-1 * e * g.  `core_within`, `is_normal`, `normal_closure` and `center`
read the conjugation tables and build no Permutation products, and the
triple searches read them to find the G-orbits of the candidate blocks
they skip.  A normal closure grows one conjugate at a time, closing again
only when a conjugate falls outside.  A normalizer contains the subgroup, so it is a
union of right cosets and one representative decides each coset.

All objects are immutable after construction apart from caches whose
writes are idempotent, so any operation may run concurrently with any
other.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .integers import factor
from .perms import Permutation

DEFAULT_CAP = 200_000


class GroupTooLargeError(RuntimeError):
    """Raised when a closure exceeds the element cap."""


class NotASubgroupError(ValueError):
    pass


class NotNormalError(ValueError):
    pass


def _close(degree: int, gen_images: Sequence[tuple], cap: int) -> list[tuple]:
    """BFS closure of image tuples under right multiplication by generators.

    Deterministic: elements appear in discovery order starting from the
    identity.  Inverses are reached automatically since every generator has
    finite order.
    """
    ident = tuple(range(degree))
    seen = {ident: 0}
    elems = [ident]
    frontier = [ident]
    while frontier:
        new_frontier = []
        for a in frontier:
            for g in gen_images:
                prod = tuple(g[x] for x in a)
                if prod not in seen:
                    seen[prod] = len(elems)
                    elems.append(prod)
                    new_frontier.append(prod)
                    if len(elems) > cap:
                        raise GroupTooLargeError(
                            "group too large for desk-scale enumeration "
                            f"(cap {cap})"
                        )
        frontier = new_frontier
    return elems


class PermGroup:
    """A finite permutation group with its full element list materialized."""

    __slots__ = (
        "degree",
        "generators",
        "elements",
        "_index",
        "_orders",
        "_involutions",
        "_columns",
        "_conj",
        "_abelian",
        "_solvable",
    )

    def __init__(
        self,
        degree: int,
        generators: Sequence[Permutation],
        cap: int = DEFAULT_CAP,
        _elements: Optional[list[Permutation]] = None,
    ):
        if not generators:
            raise ValueError("generator list must be nonempty")
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators = tuple(generators)
        if _elements is None:
            images = _close(degree, [g.images for g in generators], cap)
            _elements = [Permutation._make(t) for t in images]
        self.elements = tuple(_elements)
        self._index = {g.images: i for i, g in enumerate(self.elements)}
        self._orders: Optional[tuple[int, ...]] = None
        self._involutions: Optional[tuple[int, ...]] = None
        self._columns: dict[int, array] = {}
        self._conj: dict[int, array] = {}
        self._abelian: Optional[bool] = None
        self._solvable: Optional[bool] = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def __contains__(self, g: Permutation) -> bool:
        return g.images in self._index

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, g: Permutation) -> int:
        return self._index[g.images]

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} order={self.order}>"

    # -- right-multiplication columns ------------------------------------------------

    def _column(self, i: int) -> array:
        """Right-multiplication column of element i: entry a is the index of
        elements[a] * elements[i], or -1 until _mul_index first computes it.
        A column costs 4 * order bytes, so only the generation test asks for one."""
        col = self._columns.get(i)
        if col is None:
            col = self._columns.setdefault(i, array("i", [-1]) * len(self.elements))
        return col

    def _mul_index(self, a: int, i: int) -> int:
        """Index of elements[a] * elements[i], kept in column i if it exists."""
        col = self._columns.get(i)
        if col is not None and col[a] >= 0:
            return col[a]
        gi = self.elements[i].images
        b = self._index[tuple(gi[x] for x in self.elements[a].images)]
        if col is not None:
            col[a] = b
        return b

    def _powers(self, i: int) -> list[int]:
        """Indices of elements[i], its square, ..., the identity; the length
        is the element's order."""
        chain = [i]
        while chain[-1] != 0:
            chain.append(self._mul_index(chain[-1], i))
        return chain

    # -- conjugation tables ----------------------------------------------------------

    def _conj_index(self, a: int, j: int) -> int:
        """Index of g^-1 * elements[a] * g for g = generators[j].  The table of
        generator j holds 4 * order bytes, each entry -1 until first computed."""
        table = self._conj.get(j)
        if table is None:
            table = self._conj.setdefault(j, array("i", [-1]) * len(self.elements))
        c = table[a]
        if c < 0:
            g = self.generators[j].images
            img = list(g)
            for gp, q in zip(g, self.elements[a].images):  # img[g[p]] = g[e[p]]
                img[gp] = g[q]
            c = table[a] = self._index[tuple(img)]
        return c

    # -- cached element statistics -------------------------------------------------

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            self._orders = tuple(g.order() for g in self.elements)
        return self._orders

    def order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for k in self.element_orders():
            hist[k] = hist.get(k, 0) + 1
        return hist

    def involution_indices(self) -> tuple[int, ...]:
        if self._involutions is None:
            self._involutions = tuple(
                i for i, k in enumerate(self.element_orders()) if k == 2
            )
        return self._involutions

    def prime_divisors(self) -> list[int]:
        return [p for p, _ in factor(self.order).factors]

    def is_abelian(self) -> bool:
        if self._abelian is None:
            gens = self.generators
            self._abelian = all(
                a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :]
            )
        return self._abelian

    # -- subgroups -----------------------------------------------------------------

    def subgroup(self, gens: Sequence[Permutation]) -> "PermGroup":
        """Closure of member elements inside this group (shares the degree)."""
        for g in gens:
            if g not in self:
                raise NotASubgroupError(f"element {g.cycle_string()} is not a member")
        if not gens:
            gens = [self.identity]
        return PermGroup(self.degree, list(gens), cap=self.order)

    def trivial_subgroup(self) -> "PermGroup":
        return PermGroup(self.degree, [self.identity])

    def is_subgroup(self, H: "PermGroup") -> bool:
        return H.degree == self.degree and all(h in self for h in H.elements)

    def conjugate_subgroup(self, H: "PermGroup", g: Permutation) -> "PermGroup":
        gi = g.inverse()
        return self.subgroup([gi * h * g for h in H.generators])

    # -- cosets --------------------------------------------------------------------

    def coset_labels(self, H: "PermGroup") -> tuple[list[int], list[int]]:
        """Label every element with its right-coset Hg.

        Returns (labels, reps): labels[i] is the coset id of elements[i], and
        reps[c] is the element index of the first element found in coset c.
        Each new representative r labels its whole coset {h * r : h in H}.
        """
        if not self.is_subgroup(H):
            raise NotASubgroupError("coset space requires a subgroup")
        labels = [-1] * self.order
        reps: list[int] = []
        index = self._index
        for i, g in enumerate(self.elements):
            if labels[i] != -1:
                continue
            cid = len(reps)
            reps.append(i)
            gi = g.images
            for h in H.elements:
                labels[index[tuple([gi[x] for x in h.images])]] = cid
        return labels, reps

    # -- standard subgroup constructions ---------------------------------------------

    def center(self) -> "PermGroup":
        """The elements that every conjugation table maps to themselves."""
        js = range(len(self.generators))
        central = [
            e
            for a, e in enumerate(self.elements)
            if all(self._conj_index(a, j) == a for j in js)
        ]
        return group_from_elements(self.degree, central)

    def centralizer(self, elems: Iterable[Permutation]) -> "PermGroup":
        elems = list(elems)
        for s in elems:
            if s not in self:
                raise NotASubgroupError("centralizer input must be members")
        found = [g for g in self.elements if all(g * s == s * g for s in elems)]
        return group_from_elements(self.degree, found)

    def normalizer(self, H: "PermGroup") -> "PermGroup":
        if not self.is_subgroup(H):
            raise NotASubgroupError("normalizer input must be a subgroup")
        # H <= N_G(H), so N_G(H) is a union of right cosets Hg and one
        # representative decides its whole coset
        labels, reps = self.coset_labels(H)
        inside = []
        for r in reps:
            g = self.elements[r]
            gi = g.inverse()
            inside.append(all((gi * h * g) in H for h in H.generators))
        found = [e for e, c in zip(self.elements, labels) if inside[c]]
        return group_from_elements(self.degree, found)

    def normal_closure(self, seed: Sequence[Permutation]) -> "PermGroup":
        """Smallest normal subgroup containing seed, grown one conjugate at a
        time: each generator is conjugated once by each generator of self,
        and a conjugate outside the running closure joins it as a generator."""
        gens = list(dict.fromkeys(seed))
        if not gens:
            return self.trivial_subgroup()
        N = self.subgroup(gens)
        js = range(len(self.generators))
        for h in gens:  # gens grows while it is scanned
            a = self.index_of(h)
            for j in js:
                c = self.elements[self._conj_index(a, j)]
                if c not in N:
                    gens.append(c)
                    N = self.subgroup(gens)
        return N

    def commutator_subgroup(self) -> "PermGroup":
        gens = self.generators
        comms = [a.commutator(b) for i, a in enumerate(gens) for b in gens[i + 1 :]]
        comms = [c for c in comms if not c.is_identity()]
        return self.normal_closure(comms)

    def is_normal(self, H: "PermGroup") -> bool:
        if not self.is_subgroup(H):
            raise NotASubgroupError("normality test requires a subgroup")
        js = range(len(self.generators))
        return all(
            self.elements[self._conj_index(a, j)] in H
            for a in map(self.index_of, H.generators)
            for j in js
        )

    def derived_series(self) -> list["PermGroup"]:
        """G, G', G'', ... while the order falls strictly: ends at 1 or a perfect term."""
        series = [self]
        while series[-1].order > 1:
            nxt = series[-1].commutator_subgroup()
            if nxt.order == series[-1].order:
                break
            series.append(nxt)
        return series

    def is_solvable(self) -> bool:
        if self._solvable is None:
            self._solvable = self.derived_series()[-1].order == 1
        return self._solvable

    # -- quotients -----------------------------------------------------------------

    def quotient(self, N: "PermGroup") -> "QuotientGroup":
        if not self.is_normal(N):
            raise NotNormalError("quotient requires a normal subgroup")
        labels, reps = self.coset_labels(N)
        n_cosets = len(reps)
        qgens = [
            Permutation._make(coset_images(self, labels, reps, g))
            for g in self.generators
        ]
        qgroup = PermGroup(n_cosets, qgens, cap=n_cosets + 1)
        if qgroup.order * N.order != self.order:
            raise AssertionError("quotient order law violated")
        return QuotientGroup(self, N, qgroup, tuple(labels), tuple(reps))


@dataclass(frozen=True)
class QuotientGroup:
    """A parent group acting on the right cosets of a normal subgroup."""

    parent: PermGroup
    normal: PermGroup
    group: PermGroup
    labels: tuple[int, ...]
    reps: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.group.order

    def project(self, g: Permutation) -> Permutation:
        """Image of a parent element in the coset action."""
        if g not in self.parent:
            raise NotASubgroupError("cannot project a non-member")
        return Permutation._make(coset_images(self.parent, self.labels, self.reps, g))


def coset_images(
    G: PermGroup, labels: Sequence[int], reps: Sequence[int], g: Permutation
) -> tuple[int, ...]:
    """g acting on the right cosets that `coset_labels` returned as (labels,
    reps): entry c is the label of the coset holding elements[reps[c]] * g."""
    index, elems = G._index, G.elements
    return tuple(labels[index[(elems[r] * g).images]] for r in reps)


def generate(degree: int, gens: Sequence[Permutation], cap: int = DEFAULT_CAP) -> PermGroup:
    """Materialize the group generated by the given permutations."""
    return PermGroup(degree, gens, cap=cap)


def greedy_generators(
    degree: int, pool: Iterable[Permutation], order: int
) -> tuple[list[Permutation], list[tuple]]:
    """Scan pool in its given order, keeping each element outside the span of
    those kept so far; the identity alone if none is kept.  Returns the kept
    generators and their span as `_close` lists it.

    order bounds the span: a closure above order + 1 elements raises
    GroupTooLargeError.
    """
    gens: list[Permutation] = []
    span = [tuple(range(degree))]
    seen = set(span)
    for e in pool:
        if e.images not in seen:
            gens.append(e)
            span = _close(degree, [g.images for g in gens], cap=order + 1)
            seen = set(span)
    return gens or [Permutation.identity(degree)], span


def group_from_elements(degree: int, elems: Iterable[Permutation]) -> PermGroup:
    """Build a PermGroup from a closed element set, picking a small generating set.

    Deterministic: candidate generators are scanned in sorted image order.
    """
    elems = list(elems)
    if not elems:
        raise ValueError("element set must contain at least the identity")
    try:
        gens, span = greedy_generators(degree, sorted(elems), len(elems))
    except GroupTooLargeError:
        span = ()
    if len(span) != len(elems):
        raise ValueError("input element set is not closed under multiplication")
    return PermGroup(degree, gens, _elements=[Permutation._make(t) for t in span])


def extend_hom(
    A: PermGroup, gens: Sequence[Permutation], imgs: Sequence[Permutation]
) -> Optional[dict[Permutation, Permutation]]:
    """The homomorphism from A sending gens[i] to imgs[i], or None if there is none.

    gens must generate A.  The graph {(a, phi(a))} is closed as a group on
    deg A + deg imgs points; it projects onto A, so the map is well defined
    exactly when the closure stops at |A| elements.
    """
    da = A.degree
    pairs = [g.images + tuple(x + da for x in h.images) for g, h in zip(gens, imgs)]
    try:
        graph = _close(da + imgs[0].degree, pairs, cap=A.order)
    except GroupTooLargeError:
        return None
    return {
        Permutation._make(t[:da]): Permutation._make(tuple(x - da for x in t[da:]))
        for t in graph
    }


def intersection(A: PermGroup, B: PermGroup) -> PermGroup:
    if A.degree != B.degree:
        raise ValueError("degree mismatch")
    common = [g for g in A.elements if g in B]
    return group_from_elements(A.degree, common)


def core_within(G: PermGroup, H: PermGroup) -> PermGroup:
    """Largest subgroup of H normal in G, H itself when H is normal.

    The group is built once, from the indices `core_indices` leaves.
    """
    ks = core_indices(G, [G.index_of(h) for h in H.elements])
    if len(ks) == H.order:
        return H
    return group_from_elements(G.degree, [G.elements[a] for a in ks])


def core_indices(G: PermGroup, ks: list[int]) -> list[int]:
    """Element indices of the core in G of the subgroup whose indices are ks.

    The list is cut down by K := K ∩ K^(g^-1) over the generators g of G,
    read from the conjugation tables, until no generator removes an element;
    the indices left keep their order in ks.
    """
    mask = bytearray(G.order)
    for a in ks:
        mask[a] = 1
    changed = True
    while changed:
        changed = False
        for j in range(len(G.generators)):
            kept = [a for a in ks if mask[G._conj_index(a, j)]]
            if len(kept) < len(ks):
                mask = bytearray(G.order)
                for a in kept:
                    mask[a] = 1
                ks, changed = kept, True
    return ks
