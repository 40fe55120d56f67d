import random

import pytest

from arcmaps.families import build_family, build_odd_p_group, build_two_group
from arcmaps.groups import generate, group_from_elements, intersection
from arcmaps.perms import Permutation
from arcmaps.products import central_product, direct_product, semidirect_product
from arcmaps.standard import (
    cyclic_group,
    dihedral_group,
    dihedral_times_z2,
    elementary_abelian,
    gl2_3,
    quaternion_central_z4,
    quaternion_group,
    symmetric_group,
)
from arcmaps.structure import (
    IsoClassTag,
    fitting,
    is_cyclic,
    is_dihedral,
    is_generalized_quaternion,
    is_nilpotent,
    isomorphic,
    maximal_subgroups_p_group,
    o_p,
    recognize,
    relabeled,
    satisfies_hypothesis,
    sylow,
)


def P(text, degree):
    return Permutation.parse(text, degree)


def all_subgroups_from_pairs(G):
    """Oracle: subgroups generated by all single elements and pairs."""
    seen = {}
    singles = list(G.elements)
    for a in singles:
        H = G.subgroup([a])
        seen.setdefault(frozenset(h.images for h in H.elements), H)
    for i, a in enumerate(singles):
        for b in singles[i + 1 :]:
            H = G.subgroup([a, b])
            seen.setdefault(frozenset(h.images for h in H.elements), H)
    return list(seen.values())


def test_sylow_s4_against_subgroup_oracle():
    G = symmetric_group(4)
    S = sylow(G, 2)
    assert S.order == 8
    # oracle: the largest 2-subgroup among all 1/2-generated subgroups is order 8
    best = max(
        (H.order for H in all_subgroups_from_pairs(G) if set(H.prime_divisors()) <= {2}),
        default=1,
    )
    assert best == 8
    assert sylow(G, 3).order == 3


def test_sylow_trivial_when_p_absent():
    G = cyclic_group(6)
    assert sylow(G, 5).order == 1
    assert sylow(G, 3).order == 3


def test_sylow_of_wreath_family_group():
    G = build_family("C31", 5).group
    S = sylow(G, 5)
    assert S.order == 25
    assert recognize(S) == IsoClassTag("cyclic_x_prime", (5, 1))


def test_sylow_conjugacy_by_exhaustive_conjugator_search():
    G = symmetric_group(4)
    S = sylow(G, 2)
    g = P("(0 1 2)", 4)
    T = G.conjugate_subgroup(S, g)
    # exhaustive search finds a conjugator sending S onto T
    found = None
    for h in G.elements:
        if all((h.inverse() * s * h) in T for s in S.generators):
            found = h
            break
    assert found is not None


def test_predicates():
    assert is_dihedral(dihedral_group(2))  # Klein counts as dihedral
    assert not is_dihedral(cyclic_group(2))  # Z2 does not
    assert is_dihedral(dihedral_group(4))
    assert not is_dihedral(quaternion_group(8))
    assert is_generalized_quaternion(quaternion_group(8))
    assert is_generalized_quaternion(quaternion_group(16))
    assert not is_generalized_quaternion(dihedral_group(4))
    assert is_cyclic(cyclic_group(12))
    assert is_nilpotent(cyclic_group(12))
    assert not is_nilpotent(symmetric_group(3))
    assert is_nilpotent(quaternion_central_z4(16))


def test_q8_has_unique_involution_d8_five():
    assert len(quaternion_group(8).involution_indices()) == 1
    assert len(dihedral_group(4).involution_indices()) == 5


def test_hypothesis_s4():
    rep = satisfies_hypothesis(symmetric_group(4))
    assert rep.ok
    kinds = {w.prime: w.witness_kind for w in rep.witnesses}
    assert kinds[2] == "cyclic"  # Z4 inside D8
    assert kinds[3] == "trivial"


def test_hypothesis_z4xz4_fails_with_oracle():
    G = direct_product(cyclic_group(4), cyclic_group(4)).group
    rep = satisfies_hypothesis(G)
    assert not rep.ok
    # oracle: every order-8 subgroup (pairs suffice in an abelian group of
    # rank 2) is Z4 x Z2, neither cyclic nor dihedral
    for H in all_subgroups_from_pairs(G):
        if H.order == 8:
            assert not is_cyclic(H) and not is_dihedral(H)


def test_hypothesis_of_family_group():
    assert satisfies_hypothesis(build_family("C31", 5).group).ok


def test_hypothesis_trivial_group():
    G = generate(1, [Permutation.identity(1)])
    assert satisfies_hypothesis(G).ok


def test_maximal_subgroups_of_p_group():
    D8 = dihedral_group(4)
    maximals = maximal_subgroups_p_group(D8, 2)
    assert len(maximals) == 3
    assert sorted(H.order for H in maximals) == [4, 4, 4]
    assert any(is_cyclic(H) for H in maximals)
    E = elementary_abelian(2, 3)
    assert len(maximal_subgroups_p_group(E, 2)) == 7


def test_o2_s4_is_klein_with_oracle():
    G = symmetric_group(4)
    K = o_p(G, 2)
    assert K.order == 4
    # oracle: intersect all conjugates of one Sylow 2-subgroup
    S = sylow(G, 2)
    meet = set(g.images for g in S.elements)
    for g in G.elements:
        conj = set((g.inverse() * s * g).images for s in S.elements)
        meet &= conj
    assert meet == set(k.images for k in K.elements)


def test_fitting():
    assert fitting(cyclic_group(12)).order == 12
    F = fitting(gl2_3())
    assert F.order == 8
    assert is_generalized_quaternion(F)
    assert fitting(symmetric_group(4)).order == 4


def test_recognize_basics():
    assert recognize(cyclic_group(9)) == IsoClassTag("cyclic", (9,))
    assert recognize(elementary_abelian(3, 3)) == IsoClassTag("elem_abelian", (3, 3))
    assert recognize(build_odd_p_group("3", 3, 2)) == IsoClassTag("modular", (3, 2))
    assert recognize(dihedral_group(7)) == IsoClassTag("dihedral", (14,))


def test_recognize_distinguishes_central_product_from_dihedral_x2():
    # frozen from exhaustive involution counts: 7 versus 11
    qz = quaternion_central_z4(16)
    dz = dihedral_times_z2(4)  # D8 x Z2
    assert len(qz.involution_indices()) == 7
    assert len(dz.involution_indices()) == 11
    assert recognize(qz) == IsoClassTag("quaternion_o_z4", (16,))
    assert recognize(dz) == IsoClassTag("dihedral_x_2", (16,))
    assert recognize(dihedral_times_z2(2)).kind == "elem_abelian"  # Klein x Z2


def test_recognize_is_relabeling_invariant():
    rng = random.Random(5)
    for G in (quaternion_central_z4(16), build_two_group("1.3-", 1), dihedral_group(6)):
        images = list(range(G.degree))
        rng.shuffle(images)
        sigma = Permutation(images)
        assert recognize(relabeled(G, sigma)) == recognize(G)


def test_odd_sylow_trichotomy():
    """Sylow subgroups at odd primes of passing groups recognize as one of
    the three catalog shapes."""
    corpus = [
        symmetric_group(4),
        gl2_3(),
        build_family("C31", 5).group,
        build_family("C34", 3).group,
        direct_product(cyclic_group(9), dihedral_group(5)).group,
        semidirect_product(
            cyclic_group(9), cyclic_group(3), [[cyclic_group(9).generators[0] ** 4]]
        ).group,
    ]
    for G in corpus:
        rep = satisfies_hypothesis(G)
        assert rep.ok
        for p in G.prime_divisors():
            if p == 2:
                continue
            tag = recognize(sylow(G, p))
            assert tag.kind in ("cyclic", "cyclic_x_prime", "modular"), (p, tag)


def test_isomorphic():
    assert isomorphic(symmetric_group(3), dihedral_group(3))
    assert not isomorphic(quaternion_group(8), dihedral_group(4))
    assert not isomorphic(cyclic_group(6), symmetric_group(3))
    a4 = generate(4, [P("(0 1 2)", 4), P("(1 2 3)", 4)])
    v4_z3 = semidirect_product(
        elementary_abelian(2, 2),
        cyclic_group(3),
        [[elementary_abelian(2, 2).generators[1],
          elementary_abelian(2, 2).generators[0] * elementary_abelian(2, 2).generators[1]]],
    ).group
    assert isomorphic(a4, v4_z3)
