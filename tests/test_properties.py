"""Seeded randomized consistency checks across random small groups.

Random generator sets on few points give a varied corpus; every algebraic
law the package relies on is then checked exhaustively on each sample.
"""

import random

from arcmaps.groups import GroupTooLargeError, PermGroup, generate
from arcmaps.maps import build_map, euler_characteristic_closed, euler_characteristic_counted
from arcmaps.perms import Permutation
from arcmaps.standard import dihedral_group, symmetric_group
from arcmaps.structure import satisfies_hypothesis, sylow
from arcmaps.triples import find_any

SEED = 987123


def random_groups(count, max_degree=7, cap=5000):
    rng = random.Random(SEED)
    out = []
    while len(out) < count:
        degree = rng.randint(3, max_degree)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Permutation(images))
        try:
            G = generate(degree, gens, cap=cap)
        except GroupTooLargeError:
            continue
        out.append(G)
    return out


def test_closure_inverses_and_identity():
    rng = random.Random(SEED + 1)
    for G in random_groups(12):
        assert G.identity.is_identity()
        for _ in range(30):
            a, b = rng.choice(G.elements), rng.choice(G.elements)
            assert a * b in G
            assert a.inverse() in G
        assert all((g * g.inverse()).is_identity() for g in G.generators)


def test_conjugation_composes():
    rng = random.Random(SEED + 2)
    for G in random_groups(8):
        for _ in range(20):
            a, b, c = (rng.choice(G.elements) for _ in range(3))
            assert (a**b) ** c == a ** (b * c)


def test_lagrange_and_coset_partition():
    rng = random.Random(SEED + 3)
    for G in random_groups(10):
        gens = [rng.choice(G.elements) for _ in range(2)]
        H = G.subgroup(gens)
        assert G.order % H.order == 0
        labels, reps = G.coset_labels(H)
        assert len(reps) == G.order // H.order
        sizes = {}
        for lab in labels:
            sizes[lab] = sizes.get(lab, 0) + 1
        assert set(sizes.values()) == {H.order}


def test_quotient_law_over_scanned_normals():
    rng = random.Random(SEED + 4)
    for G in random_groups(8, max_degree=6):
        for _ in range(4):
            g = rng.choice(G.elements)
            if g.is_identity():
                continue
            N = G.normal_closure([g])
            if N.order == G.order:
                continue
            q = G.quotient(N)
            assert q.order * N.order == G.order
            a, b = rng.choice(G.elements), rng.choice(G.elements)
            assert q.project(a * b) == q.project(a) * q.project(b)


def test_sylow_orders_multiply_out():
    for G in random_groups(10):
        total = 1
        for p in G.prime_divisors():
            S = sylow(G, p)
            assert S.order == _p_part(G.order, p)
            total *= S.order
        assert total == G.order


def _p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def test_heredity_on_random_groups_that_pass():
    rng = random.Random(SEED + 5)
    passing = [G for G in random_groups(14) if satisfies_hypothesis(G).ok]
    assert passing, "expected at least one passing sample"
    for G in passing:
        for _ in range(3):
            H = G.subgroup([rng.choice(G.elements), rng.choice(G.elements)])
            assert satisfies_hypothesis(H).ok


def test_maps_from_searched_triples():
    # regular triples found by search (not family-built) still give coherent
    # maps; a first hit with z inside <x, y> collapses to the one-vertex
    # all-loops case, which the graph extraction must reject
    import pytest

    from arcmaps.maps import MapStructureError, underlying_graph

    # odd dihedral groups have no commuting distinct involutions at all, so
    # only even ones can appear here
    assert find_any(dihedral_group(9), "regular") is None
    for G in (symmetric_group(4), dihedral_group(6), dihedral_group(4)):
        triple = find_any(G, "regular")
        assert triple is not None
        m = build_map(G, triple)
        closed = euler_characteristic_closed(G, triple).value
        assert closed == euler_characteristic_counted(m)
        if m.n_vertices == 1:
            with pytest.raises(MapStructureError):
                underlying_graph(m)
            continue
        assert m.valency * m.n_vertices == 2 * m.n_edges
        for ends in m.edge_vertices():
            assert len(ends) == 2
