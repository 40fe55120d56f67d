"""Differential checks of the closure kernels and the searches on them.

`generates` is compared with sympy's group order, and every search result
with a reference scan that uses a tuple closure and Permutation products
only, in the same candidate order as the package's scans but with no
conjugacy pruning, on random groups, on the K-groups at ell = 1 and, as a
hypothesis property, on small random permutation groups.  The pruning's
work is bounded by the number of G-orbits of its blocks, and on a fixed
corpus the scans' witnesses, counts and generation tests are pinned.
`extend_hom` and `coset_labels` are compared with the breadth-first
extension and the stack orbit under H's generators that they replace.
`o_pi` is compared with the join of normal closures of pi-elements, with
the capped-closure scan it replaces and with the core of a Sylow
subgroup, `hall_subgroup` with the pi-part of |G| and sympy's order, and
`normal_closure` with the round-based closure it replaces and with
sympy's normal closure.  `core_within` and `normalizer` are compared with
the Permutation-product loops they replace, `is_normal` and `center` with
sympy, and the conjugation tables with `**`.  The compression search of
`faithful_coset_actions` is compared with the subgroup search it replaces
on the uncompressed central products of Tables 1-2 and on the corpus.
"""

import itertools
import random

import pytest
import sympy.combinatorics as sympy_pg
from hypothesis import given, settings, strategies as st

from test_properties import random_groups

from arcmaps.families import (
    TABLE1_CASES,
    TABLE1_COLUMNS,
    TABLE2_CASES,
    TABLE2_COLUMNS,
    build_family,
    build_table_group,
    table_min_ell,
)
from arcmaps import families, groups, products, triples
from arcmaps.groups import GroupTooLargeError, PermGroup, core_within, extend_hom, group_from_elements
from arcmaps.perms import Permutation
from arcmaps.standard import (
    cyclic_group,
    dihedral_group,
    gl2_3,
    inverted_cyclic_pair,
    quaternion_group,
    symmetric_group,
)
from arcmaps.structure import hall_subgroup, o_p, o_pi, sylow
from arcmaps.triples import KINDS, exhaustive_search_count, find_any, generates
from arcmaps.verify import _k_groups_regular, _k_groups_rotary, z4_circ_gl23


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


def _k_groups():
    """The K-groups at ell = 1: orders up to 144, four of them (orders 72
    and 144) without a regular triple."""
    return [G for _, G in _k_groups_regular(1) + _k_groups_rotary(1)]


def test_find_any_matches_reference_scan():
    groups = [H for H in random_groups(12) if H.order <= 120] + _named_groups() + _k_groups()
    missing = set()
    for G in groups:
        for kind in KINDS:
            got = find_any(G, kind)
            want = ref_find_any(G, kind)
            assert (got.elements if got else None) == want, (G, kind)
            if want is None:
                missing.add((kind, G.order))
    assert {("regular", 72), ("regular", 144)} <= missing


def test_exhaustive_count_matches_reference_scan():
    order_72 = [G for G in _k_groups() if G.order == 72]
    for G in [H for H in random_groups(12) if H.order <= 120] + _named_groups() + order_72:
        for kind in KINDS:
            assert exhaustive_search_count(G, kind) == ref_exhaustive(G, kind), (G, kind)


def _pair_orbits(G, pairs):
    """Number of G-orbits on a set of unordered pairs, by conjugating with
    every element of G."""
    left, orbits = set(pairs), 0
    while left:
        x, z = next(iter(left))
        left -= {frozenset({x**g, z**g}) for g in G.elements}
        orbits += 1
    return orbits


def test_regular_scan_tests_one_block_per_orbit(monkeypatch):
    G = build_table_group(1, "1.6", "Z2^2", 2)
    inv = [G.elements[i] for i in G.involution_indices()]
    pairs = {frozenset({x, z}) for a, x in enumerate(inv) for z in inv[a + 1 :] if x * z == z * x}
    calls = []
    test = triples.generates
    monkeypatch.setattr(triples, "generates", lambda H, elems: calls.append(1) or test(H, elems))
    assert find_any(G, "regular") is None
    assert (G.order, len(inv), len(pairs)) == (216, 57, 84)  # 4 788 tests unpruned
    assert len(calls) <= _pair_orbits(G, pairs) * len(inv) == 171


# For each group and kind: find_any's witness and generates calls, then
# exhaustive_search_count's witness, examined count and generates calls.
# Witnesses are element indices in G.elements.  Recorded from the scans as
# they stood before their blocks moved into one loop.
SCAN_WORK = {
    "GL(2,3)": {
        "regular": (None, 26, None, 2197, 40),
        "reversing": ((3, 6, 9), 15, (3, 6, 9), 2197, 16),
        "rotary": ((1, 9), 16, (1, 9), 624, 16),
    },
    "Z4oGL(2,3)": {
        "regular": (None, 76, None, 6859, 90),
        "reversing": ((4, 11, 22), 43, (4, 11, 22), 6859, 46),
        "rotary": ((6, 14), 80, (6, 14), 1824, 80),
    },
    "S4": {
        "regular": ((1, 16, 20), 4, (1, 16, 20), 729, 5),
        "reversing": ((1, 5, 16), 12, (1, 5, 16), 729, 13),
        "rotary": ((2, 1), 19, (2, 1), 216, 19),
    },
    "T1(1.5)l1": {
        "regular": (None, 63, None, 9261, 50),
        "reversing": ((5, 18, 48), 123, (5, 18, 48), 9261, 184),
        "rotary": (None, 189, None, 1512, 189),
    },
    "T1(1.6)l2": {
        "regular": (None, 171, None, 185193, 122),
        "reversing": ((5, 16, 52), 290, (5, 16, 52), 185193, 417),
        "rotary": (None, 798, None, 12312, 798),
    },
    "(Z9xZ3):Z2": {
        "regular": (None, 0, None, 19683, 0),
        "reversing": ((3, 6, 8), 29, (3, 6, 8), 19683, 30),
        "rotary": (None, 216, None, 1458, 216),
    },
    "D18": {
        "regular": (None, 0, None, 729, 0),
        "reversing": ((2, 2, 4), 2, (2, 2, 4), 729, 2),
        "rotary": ((1, 2), 10, (1, 2), 162, 10),
    },
    "C31(5)": {
        "regular": ((2, 43, 4), 17, (2, 20, 13), 42875, 53),
        "reversing": ((2, 4, 43), 51, (2, 4, 43), 42875, 52),
        "rotary": ((8, 29), 222, (8, 29), 3500, 222),
    },
}
SCAN_BUILDERS = {
    "GL(2,3)": gl2_3,
    "Z4oGL(2,3)": z4_circ_gl23,
    "S4": lambda: symmetric_group(4),
    "T1(1.5)l1": lambda: build_table_group(1, "1.5", "Z2^2", 1),
    "T1(1.6)l2": lambda: build_table_group(1, "1.6", "Z2^2", 2),
    "(Z9xZ3):Z2": lambda: inverted_cyclic_pair(9, 3),
    "D18": lambda: dihedral_group(9),
    "C31(5)": lambda: build_family("C31", 5).group,
}


def test_scans_keep_their_witnesses_counts_and_work(monkeypatch):
    calls = []
    test = triples.generates
    monkeypatch.setattr(triples, "generates", lambda H, elems: calls.append(1) or test(H, elems))

    def indices(G, elems):
        return None if elems is None else tuple(G._index[g.images] for g in elems)

    total = 0
    for name, build in SCAN_BUILDERS.items():
        for kind in KINDS:
            G = build()
            calls.clear()
            got = find_any(G, kind)
            found = (indices(G, got and got.elements), len(calls))
            G = build()
            calls.clear()
            witness, examined = exhaustive_search_count(G, kind)
            assert found + (indices(G, witness), examined, len(calls)) == SCAN_WORK[name][kind], (
                name,
                kind,
            )
            total += found[1] + len(calls)
    assert total == 5142


@st.composite
def small_groups(draw):
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return PermGroup(degree, [Permutation(g) for g in gens])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_groups())
def test_searches_match_reference_scans_on_small_groups(G):
    for kind in KINDS:
        got = find_any(G, kind)
        assert (got.elements if got else None) == ref_find_any(G, kind), kind
        assert exhaustive_search_count(G, kind) == ref_exhaustive(G, kind), kind


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


def ref_normal_closure(G, seed):
    """Round-based normal closure: each round conjugates every generator
    collected so far by every generator of G, and closes from scratch."""
    gens = list(seed)
    if not gens:
        return G.trivial_subgroup()
    current = G.subgroup(gens)
    while True:
        extra = []
        for h in current.generators:
            for g in G.generators:
                c = g.inverse() * h * g
                if c not in current:
                    extra.append(c)
        if not extra:
            return current
        current = G.subgroup(list(current.generators) + extra)


def ref_class_closures(G):
    """images -> normal closure of that single element (non-identity only);
    a conjugacy class shares one closure."""
    closure_of = {}
    for g in G.elements[1:]:
        if g.images not in closure_of:
            N = ref_normal_closure(G, [g])
            closure_of[g.images] = N
            orbit = [g]
            for h in orbit:
                for x in G.generators:
                    c = h**x
                    if c.images not in closure_of:
                        closure_of[c.images] = N
                        orbit.append(c)
    return closure_of


def ref_o_pi(G, primes, closure_of):
    """Largest normal pi-subgroup as the join of the normal closures of the
    pi-elements whose closure is a pi-group (each such closure lies in it, and
    every element of it qualifies), generated by the distinct closures."""

    def is_pi(n):
        for p in primes:
            while n % p == 0:
                n //= p
        return n == 1

    H = G.trivial_subgroup()
    for g in G.elements[1:]:
        N = closure_of[g.images]
        if is_pi(g.order()) and is_pi(N.order) and g not in H:
            H = G.subgroup(list(H.generators) + list(N.generators))
    assert is_pi(H.order)
    return H


def ref_core_within(G, H):
    """Iterated K := K ∩ K^(g^-1) over the generators of G by Permutation
    products, re-building K after every generator that removes an element."""
    K = H
    changed = True
    while changed:
        changed = False
        for g in G.generators:
            gi = g.inverse()
            kept = [k for k in K.elements if (gi * k * g) in K]
            if len(kept) < K.order:
                K = group_from_elements(G.degree, kept)
                changed = True
    return K


def ref_normalizer(G, H):
    """Every element of G tested on its own by conjugating H's generators."""
    found = []
    for g in G.elements:
        gi = g.inverse()
        if all((gi * h * g) in H for h in H.generators):
            found.append(g)
    return group_from_elements(G.degree, found)


def ref_o_pi_capped(G, primes):
    """Maximal pi-subgroup grown by closures capped at the pi-part of |G|,
    a join kept when its order is a pi-number; its core by `ref_core_within`."""

    def pi_free(n):
        for p in primes:
            while n % p == 0:
                n //= p
        return n

    cap = G.order // pi_free(G.order)
    M, gens = G.trivial_subgroup(), []
    for g, k in zip(G.elements, G.element_orders()):
        if g in M or pi_free(k) != 1:
            continue
        try:
            J = PermGroup(G.degree, gens + [g], cap=cap)
        except GroupTooLargeError:
            continue
        if pi_free(J.order) == 1:
            M, gens = J, gens + [g]
    return ref_core_within(G, M)


@pytest.fixture(scope="module")
def pi_corpus():
    tables = [
        build_table_group(table, case, col, 1)
        for table, cases, cols in ((1, TABLE1_CASES, TABLE1_COLUMNS), (2, TABLE2_CASES, TABLE2_COLUMNS))
        for case in cases
        if table_min_ell(table, case) == 1
        for col in cols
    ]
    return random_groups(12) + [gl2_3(), z4_circ_gl23()] + tables


def _elements(H):
    return {h.images for h in H.elements}


def test_o_pi_matches_join_of_normal_closures(pi_corpus):
    sizes = set()
    for G in pi_corpus:
        closure_of = ref_class_closures(G)
        primes = G.prime_divisors()
        for r in range(len(primes) + 1):
            for pi in itertools.combinations(primes, r):
                got = o_pi(G, pi)
                assert _elements(got) == _elements(ref_o_pi(G, pi, closure_of)), (G, pi)
                sizes.add(1 < got.order < G.order)
        for p in primes:
            want = ref_core_within(G, sylow(G, p))  # a Sylow subgroup's core
            assert _elements(o_p(G, p)) == _elements(want), (G, p)
    assert sizes == {True, False}


def test_normal_closure_matches_rounds_and_sympy(pi_corpus, monkeypatch):
    closed_from = []
    subgroup = PermGroup.subgroup

    def spy(self, gens):
        closed_from.append(list(gens))
        return subgroup(self, gens)

    monkeypatch.setattr(PermGroup, "subgroup", spy)
    rng = random.Random(20254)
    for G in pi_corpus:
        sym = sympy_pg.PermutationGroup([sympy_pg.Permutation(list(g.images)) for g in G.generators])
        seeds = [[g] for g in rng.sample(G.elements, min(G.order, 4))]
        seeds += [rng.sample(G.elements, min(G.order, 2)) for _ in range(3)]
        seeds.append(seeds[0] * 2)  # a repeated seed element
        for seed in seeds:
            closed_from.clear()
            got = G.normal_closure(seed)
            assert all(len(set(gens)) == len(gens) for gens in closed_from), seed
            assert _elements(got) == _elements(ref_normal_closure(G, seed)), (G, seed)
            want = sym.normal_closure([sympy_pg.Permutation(list(g.images)) for g in seed])
            assert got.order == want.order(), (G, seed)


def _same(got, want):
    return got.generators == want.generators and got.elements == want.elements


def _sym(G):
    return sympy_pg.PermutationGroup([sympy_pg.Permutation(list(g.images)) for g in G.generators])


def _test_subgroups(G, rng):
    """Every Sylow subgroup and three seeded cyclic subgroups."""
    subs = [sylow(G, p) for p in G.prime_divisors()]
    subs += [G.subgroup([g]) for g in rng.sample(G.elements, min(G.order, 3))]
    return subs


def test_o_pi_matches_capped_closure_scan(pi_corpus):
    for G in pi_corpus:
        primes = G.prime_divisors()
        for r in range(len(primes) + 1):
            for pi in itertools.combinations(primes, r):
                assert _same(o_pi(G, pi), ref_o_pi_capped(G, pi)), (G, pi)


def _pi_part(n, pi):
    part = 1
    for p in pi:
        while n % p == 0:
            n //= p
            part *= p
    return part


def test_hall_subgroups_have_the_pi_part_and_agree_with_sympy(pi_corpus):
    subsets = non_solvable = 0
    for G in pi_corpus:
        primes = G.prime_divisors()
        if not G.is_solvable():
            non_solvable += 1
            with pytest.raises(ValueError):
                hall_subgroup(G, primes[:1])
            continue
        for r in range(len(primes) + 1):
            for pi in itertools.combinations(primes, r):
                got = hall_subgroup(G, pi)
                assert got.order == _pi_part(G.order, pi) == _sym(got).order(), (G, pi)
                subsets += 1
    assert (subsets, non_solvable) == (166, 4)


def test_core_and_normalizer_match_product_loops(pi_corpus, monkeypatch):
    built = []
    build = groups.group_from_elements

    def spy(degree, elems):
        built.append(degree)
        return build(degree, elems)

    monkeypatch.setattr(groups, "group_from_elements", spy)
    rng = random.Random(20255)
    outcomes = set()
    for G in pi_corpus:
        for H in _test_subgroups(G, rng):
            want_core = ref_core_within(G, H)
            want_norm = ref_normalizer(G, H)
            built.clear()
            core = core_within(G, H)
            assert len(built) <= 1
            assert _same(core, want_core), (G, H)
            assert (core is H) == (want_core is H)
            assert _same(G.normalizer(H), want_norm), (G, H)
            outcomes.add((core is H, H.order < want_norm.order < G.order))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_is_normal_and_center_agree_with_sympy(pi_corpus):
    rng = random.Random(20256)
    outcomes = set()
    for G in pi_corpus:
        sym = _sym(G)
        assert G.center().order == sym.center().order(), G
        for H in _test_subgroups(G, rng):
            want = _sym(H).is_normal(sym)
            assert G.is_normal(H) == want, (G, H)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_conjugation_tables_hold_conjugates():
    for G in _kernel_corpus() + _named_groups():
        for j, g in enumerate(G.generators):
            for a, e in enumerate(G.elements):
                assert G._conj_index(a, j) == G.index_of(e**g), (G, a, j)
        assert sorted(G._conj) == list(range(len(G.generators)))
        assert all(min(t) >= 0 for t in G._conj.values())


def ref_faithful_coset_actions(G):
    """The greedy compression search on subgroups: one closure per element,
    deduplicated by element set, and the kernel intersected as a group."""
    seen = set()
    candidates = []
    for g in G.elements:
        if g.is_identity():
            continue
        H = G.subgroup([g])
        key = frozenset(h.images for h in H.elements)
        if key in seen:
            continue
        seen.add(key)
        candidates.append(H)
    candidates.sort(key=lambda H: (-H.order, H.generators[0].images))
    kernel, chosen, total_degree = G, [], 0
    for H in candidates:
        new_kernel = groups.intersection(kernel, ref_core_within(G, H))
        if new_kernel.order < kernel.order:
            chosen.append(H)
            kernel = new_kernel
            total_degree += G.order // H.order
            if kernel.order == 1:
                break
    if kernel.order != 1 or total_degree >= G.degree:
        return None
    tables = [ref_coset_labels(G, H) for H in chosen]

    def act(g):
        images, offset = [], 0
        for labels, reps in tables:
            images += [offset + labels[G.index_of(G.elements[r] * g)] for r in reps]
            offset += len(reps)
        return Permutation._make(tuple(images))

    return act


@pytest.fixture(scope="module")
def central_quotients():
    """The uncompressed quotient of every central product that the Table 1-2
    builders at ell = 1 and `z4_circ_gl23` form, Z4 o GL(2,3)'s first."""
    quotients = []

    def record(*args, **kwargs):
        quotients.append(products.central_product(*args, **kwargs, compress_result=False).group)
        return products.central_product(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "central_product", record)
        z4_circ_gl23()
        for table, cases, cols in ((1, TABLE1_CASES, TABLE1_COLUMNS), (2, TABLE2_CASES, TABLE2_COLUMNS)):
            for case in cases:
                if table_min_ell(table, case) == 1:
                    for col in cols:
                        build_table_group(table, case, col, 1)
    return quotients


def test_compression_search_matches_subgroup_search(central_quotients, pi_corpus):
    outcomes = []
    for G in central_quotients + pi_corpus:
        got, want = products.faithful_coset_actions(G), ref_faithful_coset_actions(G)
        assert (got is None) == (want is None), G
        if got is not None:
            assert [got(g) for g in G.generators] == [want(g) for g in G.generators], G
        outcomes.append(got is None)
    assert len(central_quotients) == 11
    assert not any(outcomes[: len(central_quotients)]) and any(outcomes)


def test_compression_builds_one_group_per_chosen_space(central_quotients, monkeypatch):
    built, labelled = [], []
    init, coset_labels = PermGroup.__init__, PermGroup.coset_labels

    def spy_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spy_labels(self, H):
        labelled.append(H)
        return coset_labels(self, H)

    monkeypatch.setattr(PermGroup, "__init__", spy_init)
    monkeypatch.setattr(PermGroup, "coset_labels", spy_labels)
    Q = central_quotients[0]  # Z4 o GL(2,3) as the regular action of order 96
    act = products.faithful_coset_actions(Q)
    assert Q.order == Q.degree == 96 and act(Q.identity).degree == 52
    assert built == labelled and len(built) == 3
