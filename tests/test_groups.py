import random

import pytest

from arcmaps.groups import (
    GroupTooLargeError,
    NotASubgroupError,
    NotNormalError,
    PermGroup,
    generate,
    group_from_elements,
    intersection,
)
from arcmaps.perms import Permutation
from arcmaps.products import central_product, direct_product, semidirect_product, wreath_by_s2
from arcmaps.standard import (
    cyclic_group,
    dihedral_group,
    elementary_abelian,
    gl2_3,
    quaternion_group,
    symmetric_group,
)
from arcmaps.families import build_family, wreath_square


def P(text, degree):
    return Permutation.parse(text, degree)


def dihedral_elements_by_hand(n):
    """Independent model of D_2n: the affine maps x -> +-x + c mod n."""
    out = set()
    for c in range(n):
        out.add(tuple((i + c) % n for i in range(n)))
        out.add(tuple((c - i) % n for i in range(n)))
    return out


def test_generate_d10_matches_affine_model():
    G = generate(5, [P("(0 1 2 3 4)", 5), P("(1 4)(2 3)", 5)])
    assert G.order == 10
    assert {g.images for g in G.elements} == dihedral_elements_by_hand(5)


def test_generate_trivial():
    G = generate(3, [Permutation.identity(3)])
    assert G.order == 1


def test_generate_cap():
    with pytest.raises(GroupTooLargeError):
        generate(6, [P("(0 1)", 6), P("(0 1 2 3 4 5)", 6)], cap=100)


def test_construction_group_order_100():
    inst = build_family("C31", 5)
    assert inst.group.order == 100


def test_subgroup_examples():
    inst = build_family("C31", 5)
    G = inst.group
    x, y, z = inst.triple.elements
    edge = G.subgroup([x, z])
    assert edge.order == 4
    assert all(g.order() in (1, 2) for g in edge.elements)  # Klein group
    vertex = G.subgroup([x, y])
    assert vertex.order == 20
    g = inst.names["a"]
    assert G.subgroup([g]).order == g.order() == 5


def test_subgroup_rejects_non_member():
    G = generate(4, [P("(0 1 2)", 4), P("(1 2 3)", 4)])  # A4
    with pytest.raises(NotASubgroupError):
        G.subgroup([P("(0 1)", 4)])


def test_cosets():
    G = symmetric_group(4)
    assert len(G.coset_labels(G)[1]) == 1
    assert len(G.coset_labels(G.trivial_subgroup())[1]) == G.order
    inst = build_family("C31", 5)
    H = inst.group.subgroup([inst.triple.elements[0], inst.triple.elements[1]])
    assert len(inst.group.coset_labels(H)[1]) == 5


def test_lagrange_on_random_subgroups():
    rng = random.Random(7)
    G = symmetric_group(4)
    for _ in range(25):
        a, b = rng.sample(G.elements, 2)
        H = G.subgroup([a, b])
        assert G.order % H.order == 0
        assert len(G.coset_labels(H)[1]) == G.order // H.order


def test_closure_property():
    rng = random.Random(11)
    G = gl2_3()
    for _ in range(200):
        a, b = rng.choice(G.elements), rng.choice(G.elements)
        assert a * b in G


def test_center_of_gl23_against_all_pairs_oracle():
    G = gl2_3()
    brute = [g for g in G.elements if all(g * h == h * g for h in G.elements)]
    Z = G.center()
    assert Z.order == len(brute) == 2
    assert all(g in Z for g in brute)


def test_center_of_abelian_group_is_whole():
    G = cyclic_group(12)
    assert G.center().order == 12


def test_centralizer_and_normalizer():
    G = symmetric_group(4)
    t = P("(0 1)", 4)
    C = G.centralizer([t])
    assert all(g * t == t * g for g in C.elements)
    assert C.order == 4
    V = G.subgroup([P("(0 1)(2 3)", 4), P("(0 2)(1 3)", 4)])
    assert G.normalizer(V).order == 24  # the Klein subgroup is normal


def test_commutator_subgroup_contains_twisted_cyclic_part():
    # Z5 : <x> with x inverting; the commutators generate the Z5
    A = cyclic_group(5)
    X = semidirect_product(A, cyclic_group(2), [[A.generators[0].inverse()]]).group
    D = X.commutator_subgroup()
    assert D.order == 5


def test_is_solvable_is_computed_once(monkeypatch):
    calls = []
    commutator_subgroup = PermGroup.commutator_subgroup

    def spy(self):
        calls.append(self)
        return commutator_subgroup(self)

    monkeypatch.setattr(PermGroup, "commutator_subgroup", spy)
    for G, solvable in ((symmetric_group(4), True), (symmetric_group(5), False)):
        calls.clear()
        assert G.is_solvable() is solvable and calls
        calls.clear()
        assert G.is_solvable() is solvable and not calls


def test_commutator_subgroup_s4():
    G = symmetric_group(4)
    D = G.commutator_subgroup()
    assert D.order == 12


def test_is_normal():
    G = symmetric_group(4)
    A4 = G.subgroup([P("(0 1 2)", 4), P("(1 2 3)", 4)])
    assert G.is_normal(A4)
    S3 = G.subgroup([P("(0 1)", 4), P("(0 1 2)", 4)])
    assert not G.is_normal(S3)


def test_quotients():
    G = symmetric_group(4)
    q = G.quotient(G)
    assert q.order == 1
    gl = gl2_3()
    z = gl.center()
    q = gl.quotient(z)
    assert q.order == 24
    from arcmaps.structure import isomorphic

    assert isomorphic(q.group, symmetric_group(4))  # Z2^2 : S3
    d = dihedral_group(6)
    rot = d.subgroup([d.generators[0]])
    assert d.quotient(rot).order == 2
    with pytest.raises(NotNormalError):
        G.quotient(G.subgroup([P("(0 1)", 4)]))


def test_quotient_order_law_over_scanned_normals():
    G = symmetric_group(4)
    for g in G.elements:
        if g.is_identity():
            continue
        N = G.normal_closure([g])
        if N.order < G.order:
            assert G.quotient(N).order * N.order == G.order


def test_quotient_projection_is_homomorphism():
    G = symmetric_group(4)
    V = G.subgroup([P("(0 1)(2 3)", 4), P("(0 2)(1 3)", 4)])
    q = G.quotient(V)
    rng = random.Random(3)
    for _ in range(30):
        a, b = rng.choice(G.elements), rng.choice(G.elements)
        assert q.project(a * b) == q.project(a) * q.project(b)


def test_direct_product_klein():
    G = direct_product(cyclic_group(2), cyclic_group(2)).group
    assert G.order == 4
    assert all(g.order() in (1, 2) for g in G.elements)


def test_wreath_square_order():
    w = wreath_by_s2(dihedral_group(5))
    assert w.group.order == 200
    X, names = wreath_square(5)
    assert X.order == 200
    a, s, sigma = names["a"], names["s"], names["sigma"]
    assert a**sigma == names["b"]
    assert s**sigma == names["t"]
    assert (a**s) == a.inverse()


def test_central_product_q8_z4():
    Q = quaternion_group(8)
    u = Q.generators[0]
    Z4 = cyclic_group(4)
    model = central_product(Q, Z4, [(u * u, Z4.generators[0] ** 2)])
    assert model.group.order == 16


def test_central_product_rejects_non_central():
    Q = quaternion_group(8)
    Z4 = cyclic_group(4)
    with pytest.raises(ValueError):
        central_product(Q, Z4, [(Q.generators[0], Z4.generators[0])])


def test_semidirect_rejects_non_automorphism():
    A = cyclic_group(4)
    a = A.generators[0]
    with pytest.raises(ValueError):
        # a -> a^2 is not injective
        semidirect_product(A, cyclic_group(2), [[a * a]])
    D6 = dihedral_group(3)
    rot, _ = D6.generators
    with pytest.raises(ValueError, match="not a homomorphism"):
        # the reflection has order 2, the rotation order 3
        semidirect_product(D6, cyclic_group(2), [[rot, rot]])
    V = elementary_abelian(2, 2)
    e1, _ = V.generators
    with pytest.raises(ValueError, match="not a bijection"):
        # a homomorphism onto <e1>, with kernel <e1 e2>
        semidirect_product(V, cyclic_group(2), [[e1, e1]])


def test_group_from_elements_roundtrip():
    G = symmetric_group(4)
    H = group_from_elements(4, list(G.elements))
    assert H.order == 24
    with pytest.raises(ValueError):
        group_from_elements(4, [Permutation.identity(4), P("(0 1 2)", 4)])


def test_group_from_elements_rejects_set_whose_closure_is_larger():
    # (0 1) and (1 2) generate S3, which overshoots the closure cap of 3 + 1
    elems = [Permutation.identity(3), P("(0 1)", 3), P("(1 2)", 3)]
    with pytest.raises(ValueError, match="not closed"):
        group_from_elements(3, elems)


def test_group_from_elements_lists_elements_as_its_generators_close():
    G = gl2_3()
    for H in (G, G.center(), G.subgroup([G.generators[0]])):
        built = group_from_elements(G.degree, reversed(H.elements))
        assert built.elements == PermGroup(G.degree, built.generators).elements
        assert set(built.elements) == set(H.elements)


def test_intersection():
    G = symmetric_group(4)
    A = G.subgroup([P("(0 1)", 4), P("(0 1 2)", 4)])
    B = G.subgroup([P("(1 2)", 4), P("(1 2 3)", 4)])
    assert intersection(A, B).order == 2  # <(1 2)>
