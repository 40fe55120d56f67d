"""Product constructors: direct, semidirect, central, wreath-by-S2.

Direct and wreath products act on disjoint unions of the factors' point
sets.  A semidirect product A:B re-realizes A by its right-regular action on
its own elements; an automorphism of A is then itself a permutation of those
points, so B acts on A-points through its automorphism images and on its own
points natively.  This keeps degrees at |A| + deg(B) with no quotient step.
An action table is extended to automorphisms by `groups.extend_hom`, the
closure of the map's graph, so this module holds no closure loop of its own.

Central products are formed as (A x B)/C for the diagonal central subgroup C
and come back as the coset action (the regular action of the quotient),
optionally recompressed to a smaller faithful action found by a greedy
multi-coset-space search.  That search runs on the quotient's element
indices: cyclic subgroups are power chains, their cores come from
`groups.core_indices` and the running kernel is a mask, so a subgroup is
closed only for each coset space chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Callable, Optional, Sequence

from .groups import DEFAULT_CAP, PermGroup, core_indices, coset_images, extend_hom
from .perms import Permutation

COMPRESS_DEGREE_THRESHOLD = 64


@dataclass(frozen=True)
class ProductModel:
    """A product group together with embeddings of the factors' generators.

    left_gens[i] is the image in `group` of the i-th generator of the left
    factor, and likewise right_gens for the right factor.  The embeddings are
    group homomorphisms, so images of arbitrary factor elements are products
    of these.
    """

    group: PermGroup
    left_gens: tuple[Permutation, ...]
    right_gens: tuple[Permutation, ...]


def _pad(p: Permutation, before: int, after: int) -> Permutation:
    images = (
        tuple(range(before))
        + tuple(x + before for x in p.images)
        + tuple(range(before + p.degree, before + p.degree + after))
    )
    return Permutation._make(images)


def direct_product(A: PermGroup, B: PermGroup) -> ProductModel:
    """A x B acting on the disjoint union of the two point sets."""
    da, db = A.degree, B.degree
    left = [_pad(g, 0, db) for g in A.generators]
    right = [_pad(g, da, 0) for g in B.generators]
    G = PermGroup(da + db, left + right)
    if G.order != A.order * B.order:
        raise AssertionError("direct product order mismatch")
    return ProductModel(G, tuple(left), tuple(right))


def extend_automorphism(A: PermGroup, gen_images: Sequence[Permutation]) -> dict:
    """Extend a generator-image table to a full automorphism map of A.

    The table lists one image per generator of A.  `extend_hom` decides
    whether it extends to a homomorphism; a bijectivity check completes the
    automorphism test.  Returns a dict mapping each element of A to its image.
    """
    if len(gen_images) != len(A.generators):
        raise ValueError("need exactly one image per generator")
    for img in gen_images:
        if img not in A:
            raise ValueError("automorphism image must lie in the group")
    phi = extend_hom(A, A.generators, gen_images)
    if phi is None:
        raise ValueError("generator-image table is not a homomorphism")
    if len(set(phi.values())) != A.order:
        raise ValueError("generator-image table is not a bijection")
    return phi


def _regular_perm(A: PermGroup, a: Permutation) -> Permutation:
    """Right multiplication by a as a permutation of A's element indices."""
    return Permutation._make(tuple(A.index_of(x * a) for x in A.elements))


def _aut_perm(A: PermGroup, phi: dict) -> Permutation:
    """An automorphism of A as a permutation of A's element indices."""
    return Permutation._make(tuple(A.index_of(phi[x]) for x in A.elements))


def semidirect_product(
    A: PermGroup,
    B: PermGroup,
    action: Sequence[Sequence[Permutation]],
) -> ProductModel:
    """A:B where action[j] lists the images of A's generators under B's j-th generator.

    The automorphism attached to a B-generator means conjugation by it, i.e.
    a ** b = action(b)(a) in the product.
    """
    if len(action) != len(B.generators):
        raise ValueError("need one automorphism per generator of the acting group")
    phis = [extend_automorphism(A, images) for images in action]
    da = A.order  # regular action on A's elements
    db = B.degree
    left = [_pad(_regular_perm(A, a), 0, db) for a in A.generators]
    right = []
    for j, b in enumerate(B.generators):
        aut = _aut_perm(A, phis[j])
        images = aut.images + tuple(x + da for x in b.images)
        right.append(Permutation._make(images))
    G = PermGroup(da + db, left + right)
    if G.order != A.order * B.order:
        raise AssertionError(
            f"semidirect order mismatch: {G.order} != {A.order * B.order}"
        )
    return ProductModel(G, tuple(left), tuple(right))


def central_product(
    A: PermGroup,
    B: PermGroup,
    identify: Sequence[tuple[Permutation, Permutation]],
    compress_result: bool = True,
) -> ProductModel:
    """(A x B)/C for C the graph of an isomorphism between central subgroups.

    identify lists generator pairs (c, phi(c)) with c central in A and phi(c)
    central in B; the diagonal subgroup C = {(c, phi(c))} is factored out.
    """
    D = direct_product(A, B)

    def embed_left(a: Permutation) -> Permutation:
        return _pad(a, 0, B.degree)

    def embed_right(b: Permutation) -> Permutation:
        return _pad(b, A.degree, 0)

    za, zb = A.center(), B.center()
    for c, fc in identify:
        if c not in za or fc not in zb:
            raise ValueError("identified subgroups must be central")
    diag = [embed_left(c) * embed_right(fc) for c, fc in identify]
    C = D.group.subgroup(diag)
    # C must project isomorphically onto both identified subgroups
    left_size = PermGroup(A.degree, [A.identity] + [c for c, _ in identify]).order
    right_size = PermGroup(B.degree, [B.identity] + [fc for _, fc in identify]).order
    if not (C.order == left_size == right_size):
        raise ValueError("identification is not an isomorphism of central subgroups")
    Q = D.group.quotient(C)
    left = tuple(Q.project(embed_left(g)) for g in A.generators)
    right = tuple(Q.project(embed_right(g)) for g in B.generators)
    model = ProductModel(Q.group, left, right)
    if compress_result and Q.group.degree > COMPRESS_DEGREE_THRESHOLD:
        model = compress_model(model)
    return model


def wreath_by_s2(A: PermGroup, cap: int = DEFAULT_CAP) -> "WreathModel":
    """A wr S2: two disjoint copies of A swapped by an outer involution.

    The named generators come back at once; the group, of order 2 |A|^2, is
    closed (under `cap`) only when `group` is first read.
    """
    d = A.degree
    first = tuple(_pad(g, 0, d) for g in A.generators)
    second = tuple(_pad(g, d, 0) for g in A.generators)
    swap = Permutation._make(tuple((x + d) % (2 * d) for x in range(2 * d)))
    return WreathModel(first, second, swap, A.order, cap)


@dataclass(frozen=True)
class WreathModel:
    first_gens: tuple[Permutation, ...]
    second_gens: tuple[Permutation, ...]
    swap: Permutation
    base_order: int
    cap: int

    @cached_property
    def group(self) -> PermGroup:
        gens = [*self.first_gens, *self.second_gens, self.swap]
        G = PermGroup(self.swap.degree, gens, cap=self.cap)
        if G.order != 2 * self.base_order**2:
            raise AssertionError("wreath product order mismatch")
        return G


def faithful_coset_actions(G: PermGroup) -> Optional[Callable[[Permutation], Permutation]]:
    """Greedy search for a faithful action on a union of coset spaces.

    Candidate point stabilizers are the distinct cyclic subgroups, largest
    first, each the power chain of its first element in enumeration order;
    spaces are added while their cores shrink the running kernel, an index
    mask.  Returns a map old-element -> new permutation, or None if no
    strictly smaller faithful union was found.
    """
    covered = bytearray(G.order)
    candidates: list[list[int]] = []  # power chains g, g^2, ..., identity
    for i in range(1, G.order):
        if covered[i]:
            continue
        chain = G._powers(i)
        for e, a in enumerate(chain, 1):  # a = g^e generates <g> when gcd(e, |g|) = 1
            if gcd(e, len(chain)) == 1:
                covered[a] = 1
        candidates.append(chain)
    candidates.sort(key=lambda c: (-len(c), G.elements[c[0]].images))

    kernel = bytearray(b"\x01") * G.order
    size = G.order
    chosen: list[PermGroup] = []
    total_degree = 0
    for chain in candidates:
        common = [a for a in core_indices(G, chain) if kernel[a]]
        if len(common) < size:
            chosen.append(G.subgroup([G.elements[chain[0]]]))
            kernel = bytearray(G.order)
            for a in common:
                kernel[a] = 1
            size = len(common)
            total_degree += G.order // len(chain)
            if size == 1:
                break
    if size != 1 or total_degree >= G.degree:
        return None

    tables = [G.coset_labels(H) for H in chosen]

    def act(g: Permutation) -> Permutation:
        images: list[int] = []
        for labels, reps in tables:
            offset = len(images)
            images.extend(offset + c for c in coset_images(G, labels, reps, g))
        return Permutation._make(tuple(images))

    return act


def compress_model(model: ProductModel) -> ProductModel:
    """Replace a product model by a smaller-degree faithful copy when possible."""
    act = faithful_coset_actions(model.group)
    if act is None:
        return model
    G = model.group
    new_gens = [act(g) for g in G.generators]
    new_group = PermGroup(new_gens[0].degree, new_gens, cap=G.order + 1)
    if new_group.order != G.order:
        raise AssertionError("compression changed the group order")
    return ProductModel(
        new_group,
        tuple(act(g) for g in model.left_gens),
        tuple(act(g) for g in model.right_gens),
    )
