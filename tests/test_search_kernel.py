"""Differential checks of the closure kernels and the searches on them.

`generates` is compared with sympy's group order, and every search result
with a reference scan that uses a tuple closure and Permutation products
only, in the same candidate order as the package's scans.  `extend_hom`
and `coset_labels` are compared with the breadth-first extension and the
stack orbit under H's generators that they replace.
"""

import random

import pytest

sympy_pg = pytest.importorskip("sympy.combinatorics")

from test_properties import random_groups

from arcmaps.families import build_table_group
from arcmaps.groups import extend_hom
from arcmaps.perms import Permutation
from arcmaps.standard import cyclic_group, dihedral_group, gl2_3, quaternion_group, symmetric_group
from arcmaps.triples import KINDS, exhaustive_search_count, find_any, generates
from arcmaps.verify import z4_circ_gl23


def _named_groups():
    return [gl2_3(), z4_circ_gl23(), build_table_group(1, "1.5", "Z2^2", 1)]


def ref_generates(G, elems):
    """Tuple-BFS closure of the elements, early exit above |G| / 2."""
    half = G.order // 2
    ident = G.identity.images
    seen = {ident}
    frontier = [ident]
    gen_images = [e.images for e in elems]
    while frontier:
        new_frontier = []
        for a in frontier:
            for g in gen_images:
                prod = tuple(g[x] for x in a)
                if prod not in seen:
                    assert prod in G._index
                    seen.add(prod)
                    new_frontier.append(prod)
                    if len(seen) > half:
                        return True
        frontier = new_frontier
    return len(seen) == G.order


def ref_find_any(G, kind):
    """First hit in the package's scan order: regular over x < z then y,
    reversing over multisets x <= y <= z, rotary over alpha then z with
    alpha's repeated cyclic subgroups skipped."""
    elems = G.elements
    inv = [elems[i] for i in G.involution_indices()]
    if kind == "regular":
        for a, x in enumerate(inv):
            for z in inv[a + 1 :]:
                if x * z != z * x:
                    continue
                for y in inv:
                    if ref_generates(G, [x, y, z]):
                        return (x, y, z)
    elif kind == "reversing":
        for a, x in enumerate(inv):
            for b in range(a, len(inv)):
                for c in range(b, len(inv)):
                    if ref_generates(G, [x, inv[b], inv[c]]):
                        return (x, inv[b], inv[c])
    else:
        seen_cyclic = set()
        for alpha in elems:
            key = frozenset((alpha**k).images for k in range(alpha.order()))
            if key in seen_cyclic:
                continue
            seen_cyclic.add(key)
            for z in inv:
                if ref_generates(G, [alpha, z]):
                    return (alpha, z)
    return None


def ref_exhaustive(G, kind):
    """Raw scan over the whole candidate space: (first witness, examined)."""
    elems = G.elements
    inv = [elems[i] for i in G.involution_indices()]
    if kind == "rotary":
        cands = [(alpha, z) for alpha in elems for z in inv]
    else:
        cands = [(x, y, z) for x in inv for y in inv for z in inv]
    witness = None
    for cand in cands:
        if kind == "regular":
            x, _, z = cand
            if x == z or x * z != z * x:
                continue
        if ref_generates(G, cand):
            witness = cand
            break
    return witness, len(cands)


def test_generates_agrees_with_sympy_order():
    rng = random.Random(20251)
    outcomes = set()
    for G in random_groups(12) + _named_groups():
        subsets = [list(G.generators)]
        subsets += [rng.sample(G.elements, rng.randint(1, min(3, G.order))) for _ in range(25)]
        for S in subsets:
            want = sympy_pg.PermutationGroup(
                [sympy_pg.Permutation(list(g.images)) for g in S]
            ).order() == G.order
            assert generates(G, S) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_find_any_matches_reference_scan():
    for G in [H for H in random_groups(12) if H.order <= 120] + _named_groups():
        for kind in KINDS:
            got = find_any(G, kind)
            want = ref_find_any(G, kind)
            assert (got.elements if got else None) == want, (G, kind)


def test_exhaustive_count_matches_reference_scan():
    for G in [H for H in random_groups(12) if H.order <= 120] + _named_groups():
        for kind in KINDS:
            assert exhaustive_search_count(G, kind) == ref_exhaustive(G, kind), (G, kind)


def test_filled_columns_hold_right_products():
    for G in _named_groups():
        find_any(G, "regular")
        exhaustive_search_count(G, "rotary")
        assert G._columns
        elems = G.elements
        for i, col in G._columns.items():
            assert len(col) == G.order
            for a, b in enumerate(col):
                assert b == -1 or elems[b] == elems[a] * elems[i]


def ref_extend_hom(A, gens, imgs):
    """Breadth-first extension of gens[i] -> imgs[i] along A's Cayley graph:
    the map, or None at the first edge whose two images disagree."""
    phi = {A.identity: Permutation.identity(imgs[0].degree)}
    frontier = [A.identity]
    while frontier:
        new_frontier = []
        for a in frontier:
            for g, h in zip(gens, imgs):
                prod, img = a * g, phi[a] * h
                known = phi.get(prod)
                if known is None:
                    phi[prod] = img
                    new_frontier.append(prod)
                elif known != img:
                    return None
        frontier = new_frontier
    return phi


def ref_coset_labels(G, H):
    """Right-coset labels by orbiting each unlabelled element under left
    multiplication by H's generators, with a stack."""
    labels = [-1] * G.order
    reps = []
    for i, g in enumerate(G.elements):
        if labels[i] != -1:
            continue
        reps.append(i)
        labels[i] = len(reps) - 1
        stack = [g]
        while stack:
            x = stack.pop()
            for h in H.generators:
                k = G.index_of(h * x)
                if labels[k] == -1:
                    labels[k] = len(reps) - 1
                    stack.append(G.elements[k])
    return labels, reps


def _kernel_corpus():
    return [
        symmetric_group(4),
        dihedral_group(6),
        quaternion_group(8),
        gl2_3(),
    ] + random_groups(12)


def test_extend_hom_matches_breadth_first_extension():
    rng = random.Random(20252)
    outcomes = set()
    for A in _kernel_corpus():
        gens = list(A.generators)
        targets = [A, cyclic_group(2), symmetric_group(3)]
        for _ in range(30):
            B = rng.choice(targets)
            if B is A and rng.random() < 0.5:
                t = rng.choice(A.elements)
                imgs = [g**t for g in gens]  # an inner automorphism
            else:
                imgs = [rng.choice(B.elements) for _ in gens]
            want = ref_extend_hom(A, gens, imgs)
            assert extend_hom(A, gens, imgs) == want, (A, imgs)
            outcomes.add(want is None)
    assert outcomes == {True, False}


def test_coset_labels_match_stack_orbit():
    rng = random.Random(20253)
    for G in _kernel_corpus():
        subgroups = [G, G.trivial_subgroup()]
        subgroups += [G.subgroup(rng.sample(G.elements, min(G.order, rng.randint(1, 2)))) for _ in range(4)]
        for H in subgroups:
            assert G.coset_labels(H) == ref_coset_labels(G, H), (G, H)
