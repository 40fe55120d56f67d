import random

import pytest

from arcmaps.families import build_family
from arcmaps.groups import NotASubgroupError, generate
from arcmaps.perms import Permutation
from arcmaps.products import direct_product
from arcmaps.standard import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    elementary_abelian,
    frobenius_group,
    gl2_3,
    quaternion_group,
    symmetric_group,
)
from arcmaps.structure import relabeled
from arcmaps.triples import (
    GeneratingTriple,
    check_triple,
    count_involutions,
    exhaustive_search_count,
    exists,
    find_any,
    generates,
    quotient_behavior,
)


def P(text, degree):
    return Permutation.parse(text, degree)


def test_check_triple_families():
    for family, n in (("C31", 3), ("C31", 7), ("C33", 4), ("C34", 3), ("C34", 5)):
        inst = build_family(family, n)
        assert check_triple(inst.group, inst.triple.elements, "regular")


def test_degenerate_x_equals_z_is_rejected():
    inst = build_family("C31", 5)
    x, y, z = inst.triple.elements
    assert not check_triple(inst.group, (x, y, x), "regular")


def test_reversing_allows_repeats():
    D = dihedral_group(5)
    t = D.generators[1]
    at = D.generators[0] * t
    assert check_triple(D, (t, at, t), "reversing")
    assert not check_triple(D, (t, at, t), "regular")  # t, t do not differ


def test_rotary_pair_basics():
    D = dihedral_group(7)
    rot, refl = D.generators
    assert check_triple(D, (rot, refl), "rotary")
    assert not check_triple(D, (rot, rot), "rotary")  # second entry order 7


def test_check_triple_rejects_non_members():
    G = symmetric_group(4)
    with pytest.raises(NotASubgroupError):
        check_triple(G, (P("(0 1)", 5), P("(1 2)", 5), P("(2 3)", 5)), "regular")


@pytest.mark.parametrize(
    "degree, gens, inputs",
    [
        (4, ["(0 1)", "(2 3)"], ["(0 1)", "(2 3)", "(0 2)"]),
        (3, ["(0 1)"], ["(0 1)", "(1 2)"]),
    ],
)
def test_generates_rejects_non_member_past_early_exit(degree, gens, inputs):
    # the closure of the members alone already passes |G| / 2
    G = generate(degree, [P(g, degree) for g in gens])
    with pytest.raises(NotASubgroupError):
        generates(G, [P(g, degree) for g in inputs])


def test_generates_early_exit_matches_full_closure():
    G = symmetric_group(4)
    assert generates(G, [P("(0 1)", 4), P("(0 1 2 3)", 4)])
    assert not generates(G, [P("(0 1)", 4), P("(2 3)", 4)])


def test_exists_gl23_no_regular_but_reversing():
    G = gl2_3()
    assert not exists(G, "regular")
    assert exists(G, "reversing")


def test_exists_dihedral():
    for n in (3, 4, 5, 9):
        assert exists(dihedral_group(n), "reversing")
        assert exists(dihedral_group(n), "rotary")


def test_count_involutions():
    assert count_involutions(quaternion_group(8)) == 1
    for k in (1, 2, 3, 4):
        assert count_involutions(elementary_abelian(2, k)) == 2**k - 1


def test_parity_odd_order_groups_have_nothing():
    for G in (cyclic_group(15), frobenius_group(7, 3)):
        for kind in ("regular", "reversing", "rotary"):
            assert not exists(G, kind)


def test_regular_implies_reversing_over_corpus():
    corpus = [
        symmetric_group(4),
        gl2_3(),
        dihedral_group(4),
        quaternion_group(8),
        build_family("C31", 5).group,
        build_family("C33", 2).group,
        cyclic_group(8),
    ]
    for G in corpus:
        if exists(G, "regular"):
            assert exists(G, "reversing")
        if not exists(G, "reversing"):
            assert not exists(G, "regular")


def test_exists_is_relabeling_invariant():
    rng = random.Random(9)
    G = build_family("C33", 2).group
    images = list(range(G.degree))
    rng.shuffle(images)
    H = relabeled(G, Permutation(images))
    for kind in ("regular", "reversing", "rotary"):
        assert exists(G, kind) == exists(H, kind)


def test_find_any_returns_first_hit_deterministically():
    G = symmetric_group(4)
    t1 = find_any(G, "regular")
    t2 = find_any(G, "regular")
    assert t1.elements == t2.elements
    assert check_triple(G, t1.elements, "regular")


def test_searches_reject_an_unknown_kind():
    G = dihedral_group(3)
    for search in (find_any, exhaustive_search_count):
        with pytest.raises(ValueError, match="unknown kind"):
            search(G, "bogus")

def test_quotient_behavior_collapsed_dihedral():
    inst = build_family("C31", 5)
    G = inst.group
    N = G.subgroup([inst.names["a"], inst.names["b"]])
    rep = quotient_behavior(G, inst.triple, N)
    assert rep.quotient_order == 4
    assert rep.branch == "collapsed"
    assert rep.collapsed_shape == "dihedral"


def test_quotient_behavior_same_kind_for_trivial_normal():
    inst = build_family("C34", 3)
    N = inst.group.trivial_subgroup()
    rep = quotient_behavior(inst.group, inst.triple, N)
    assert rep.branch == "same-kind"


def test_quotient_behavior_rotary_cyclic_branch():
    A4 = alternating_group(4)
    pair = find_any(A4, "rotary")
    assert pair is not None
    V = A4.subgroup([P("(0 1)(2 3)", 4), P("(0 2)(1 3)", 4)])
    rep = quotient_behavior(A4, pair, V)
    assert rep.branch == "collapsed"
    assert rep.collapsed_shape == "cyclic"
    assert rep.quotient_order == 3


def test_quotient_behavior_rejects_improper_normal():
    G = symmetric_group(4)
    triple = find_any(G, "regular")
    with pytest.raises(Exception):
        quotient_behavior(G, triple, G)


def test_triple_serialization():
    G = dihedral_group(5)
    pair = find_any(G, "rotary")
    rec = pair.to_record()
    assert rec["kind"] == "rotary"
    assert len(rec["elements"]) == 2
    assert all(isinstance(s, str) for s in rec["elements"])
