import pytest

from arcmaps.families import (
    FamilyParameterError,
    TABLE1_CASES,
    TABLE1_COLUMNS,
    TABLE2_CASES,
    TABLE2_COLUMNS,
    TWO_GROUP_CASES,
    build_family,
    build_odd_p_group,
    build_table_group,
    build_two_group,
    check_family_parameter,
    emit_family_table,
    expected_table_order,
    expected_two_group_tag,
    family_chi_law,
    family_row,
    table_min_ell,
    wreath_square,
    _klein_auts,
    _quaternion_auts,
    _table1_acting_group,
    _table1_entry,
)
from arcmaps.groups import extend_hom, generate
from arcmaps.perms import Permutation
from arcmaps.products import central_product, direct_product, semidirect_product
from arcmaps.standard import (
    cyclic_group,
    dihedral_gens,
    dihedral_group,
    elementary_abelian,
    frobenius_group,
    gl2_3,
    quaternion_group,
    sl2_3,
    symmetric_group,
)
from arcmaps.structure import isomorphic, recognize, satisfies_hypothesis
from arcmaps.triples import check_triple
from arcmaps.verify import _k_groups_rotary, _z2_cubed_by, z4_circ_gl23

# the published square-free rows for the three families
C31_TABLE = [
    (5, -10, "-2.5"),
    (13, -130, "-2.5.13"),
    (17, -238, "-2.7.17"),
    (29, -754, "-2.13.29"),
    (37, -1258, "-2.17.37"),
    (41, -1558, "-2.19.41"),
]
C33_TABLE = [
    (2, 2, "2"),
    (10, -70, "-2.5.7"),
    (14, -154, "-2.7.11"),
    (22, -418, "-2.11.19"),
    (26, -598, "-2.13.23"),
    (34, -1054, "-2.17.31"),
]
C34_TABLE = [
    (3, -3, "-3"),
    (5, -15, "-3.5"),
    (7, -35, "-5.7"),
    (13, -143, "-11.13"),
    (17, -255, "-3.5.17"),
    (19, -323, "-17.19"),
    (23, -483, "-3.7.23"),
]


def test_wreath_square_orders():
    for n in (2, 3, 5):
        X, _ = wreath_square(n)
        assert X.order == 8 * n * n


def test_wreath_square_contains_family_subgroups():
    X, names = wreath_square(5)
    for fam in ("C31", "C33"):
        inst = build_family(fam, 5)
        assert all(g in X for g in inst.group.generators)


def test_family_orders_and_triples():
    for fam, n, order in (("C31", 5, 100), ("C33", 2, 16), ("C34", 3, 72)):
        inst = build_family(fam, n)
        assert inst.group.order == order
        assert check_triple(inst.group, inst.triple.elements, "regular")


def test_family_parameter_validation():
    assert check_family_parameter("C31", 4) is not None
    assert check_family_parameter("C34", 2) is not None
    assert check_family_parameter("C33", 1) is not None
    assert check_family_parameter("C33", 2) is None
    with pytest.raises(FamilyParameterError):
        build_family("C31", 4)


def test_chi_law():
    assert family_chi_law("C31", 5) == -10
    assert family_chi_law("C33", 2) == 2
    assert family_chi_law("C34", 23) == -483
    assert family_chi_law("C31", 3) == 0


def test_family_row_at_n3_is_zero_and_not_squarefree():
    row = family_row("C31", 3)
    assert row.chi == 0
    assert row.factorization == "0"
    assert not row.squarefree


@pytest.mark.parametrize(
    "family,table",
    [("C31", C31_TABLE), ("C33", C33_TABLE), ("C34", C34_TABLE)],
)
def test_family_tables_match_published_rows(family, table):
    rows = emit_family_table(family, [n for n, _, _ in table])
    got = [(r.n, r.chi, r.factorization, r.squarefree) for r in rows]
    want = [(n, chi, dots, True) for n, chi, dots in table]
    assert got == want


def test_two_group_catalog_tags():
    for ell in (1, 2):
        for case in TWO_GROUP_CASES:
            G = build_two_group(case, ell)
            assert recognize(G) == expected_two_group_tag(case, ell)
            assert satisfies_hypothesis(G).ok


def test_two_group_orders():
    G = build_two_group("1.3+", 1)  # Z8:Z2 with a -> a^5
    assert G.order == 16
    assert not G.is_abelian()
    assert max(G.element_orders()) == 8
    assert build_two_group("2.2", 1).order == 32
    assert build_two_group("2.3", 1).order == 16
    with pytest.raises(FamilyParameterError):
        build_two_group("9.9", 1)


def test_odd_p_catalog():
    assert build_odd_p_group("1", 5, 2).order == 25
    assert build_odd_p_group("2", 3, 2).order == 27
    G = build_odd_p_group("3", 3, 2)
    assert G.order == 27
    assert G.center().order == 3
    with pytest.raises(FamilyParameterError):
        build_odd_p_group("3", 3, 1)
    with pytest.raises(FamilyParameterError):
        build_odd_p_group("1", 4, 1)


def test_table1_known_entries():
    s4 = build_table_group(1, "1.1", "Z2^2", 1)
    assert s4.order == 24
    assert isomorphic(s4, symmetric_group(4))
    gl = build_table_group(1, "1.1", "Q8", 1)
    assert gl.order == 48
    assert isomorphic(gl, gl2_3())
    zgl = build_table_group(1, "1.1", "Z4oQ8", 1)
    assert zgl.order == 96
    assert isomorphic(zgl, z4_circ_gl23())


def test_table2_known_entries():
    from arcmaps.standard import alternating_group, dihedral_group

    d6a4 = build_table_group(2, "2.1", "Z2^2,Z2^3", 1)
    assert d6a4.order == 72
    model = direct_product(dihedral_group(3), alternating_group(4)).group
    assert isomorphic(d6a4, model)


def test_table_orders_match_symbolic_formula():
    for case in TABLE1_CASES:
        for col in TABLE1_COLUMNS:
            ell = table_min_ell(1, case)
            G = build_table_group(1, case, col, ell)
            assert G.order == expected_table_order(1, case, col, ell)
    for case in TABLE2_CASES:
        for col in TABLE2_COLUMNS:
            ell = table_min_ell(2, case)
            G = build_table_group(2, case, col, ell)
            assert G.order == expected_table_order(2, case, col, ell)


def test_table_rejects_bad_coordinates():
    with pytest.raises(FamilyParameterError):
        build_table_group(1, "1.9", "Z2^2", 1)
    with pytest.raises(FamilyParameterError):
        build_table_group(1, "1.1", "Z9", 1)
    with pytest.raises(FamilyParameterError):
        build_table_group(1, "1.7", "Z2^2", 1)  # needs ell >= 2
    with pytest.raises(FamilyParameterError):
        build_table_group(3, "1.1", "Z2^2", 1)


def test_sl23_model_agrees_with_q8_z3():
    from arcmaps.families import _quaternion_auts
    from arcmaps.products import semidirect_product

    Q, s3, _ = _quaternion_auts()
    G = semidirect_product(Q, cyclic_group(3), [s3]).group
    assert G.order == 24
    assert isomorphic(G, sl2_3())


def test_emit_table_rejects_bad_range():
    with pytest.raises(FamilyParameterError):
        emit_family_table("C31", [4, 5])


# -- hand-built references for the groups now made by the shared builders ----------


def _ref_wreath_square(n):
    d, rot, refl = dihedral_gens(n)

    def pad(p, before, after):
        return Permutation._make(
            tuple(range(before))
            + tuple(x + before for x in p.images)
            + tuple(range(before + p.degree, before + p.degree + after))
        )

    a, s, b, t = pad(rot, 0, d), pad(refl, 0, d), pad(rot, d, 0), pad(refl, d, 0)
    sigma = Permutation._make(tuple((x + d) % (2 * d) for x in range(2 * d)))
    X = generate(2 * d, [a, s, b, t, sigma])
    return X, {"a": a, "s": s, "b": b, "t": t, "sigma": sigma}


def _ref_z4_circ(G, minus1):
    Z4 = cyclic_group(4)
    return central_product(Z4, G, [(Z4.generators[0] ** 2, minus1)]).group


def _ref_z4_circ_q8():
    """Z4 o Q8 on its 16 elements with the maps i -> j -> k and i <-> -j on
    its Q8 generators, both fixing its Z4 generator."""
    Z4, Q = cyclic_group(4), quaternion_group(8)
    C = central_product(Z4, Q, [(Z4.generators[0] ** 2, Q.generators[0] ** 2)])
    (z,), (u, v) = C.left_gens, C.right_gens
    minus1 = u * u
    return C.group, [z, v, u * v], [z, minus1 * v, minus1 * u]


def _ref_f_colon_group(column, with_s3):
    acting = dihedral_group(3) if with_s3 else cyclic_group(3)
    roles = ["r3", "inv"] if with_s3 else ["r3"]
    if column in ("Z2^2", "Z2^3"):
        F, s3, tau = _klein_auts(2 if column == "Z2^2" else 3)
    elif column == "Q8":
        F, s3, tau = _quaternion_auts()
    else:
        F, s3, tau = _ref_z4_circ_q8()
    return semidirect_product(F, acting, [s3 if r == "r3" else tau for r in roles]).group


def _ref_z2_cubed(B):
    E = elementary_abelian(2, 3)
    g = list(E.generators)
    m7 = [g[1], g[2], g[0] * g[1]]
    m3 = [g[0], g[2], g[1] * g[2]]
    return semidirect_product(E, B, [m7, m3] if len(B.generators) == 2 else [m7]).group


def _ref_k_groups_rotary(ell):
    F, s3, _ = _klein_auts(2)
    k1 = semidirect_product(F, cyclic_group(3**ell), [s3]).group
    Z4oQ8, sq, _ = _ref_z4_circ_q8()
    return [
        (f"Z2^2:Z{3 ** ell}", k1),
        (f"Z2x(Z2^2:Z{3 ** ell})", direct_product(cyclic_group(2), k1).group),
        (f"Z4o(Q8:Z{3 ** ell})", semidirect_product(Z4oQ8, cyclic_group(3**ell), [sq]).group),
        (f"Z2^3:Z{7 ** ell}", _ref_z2_cubed(cyclic_group(7**ell))),
    ]


def _same_realization(G, H):
    return (G.degree, G.generators, G.elements) == (H.degree, H.generators, H.elements)


def test_shared_builders_match_parent_constructions():
    """Each group made by a shared builder is realized exactly as its former
    hand-built copy: same degree, generators and element order."""
    for n in range(2, 12):
        (X, names), (Y, ref_names) = wreath_square(n), _ref_wreath_square(n)
        assert _same_realization(X, Y) and names == ref_names, n
    for column in TABLE1_COLUMNS:
        z3 = _table1_entry(cyclic_group(3), ["r3"], column)
        s3 = _table1_entry(dihedral_group(3), ["r3", "inv"], column)
        assert _same_realization(z3, _ref_f_colon_group(column, False)), column
        assert _same_realization(s3, _ref_f_colon_group(column, True)), column
        assert _same_realization(s3, build_table_group(1, "1.1", column, 1)), column
    gl = gl2_3()
    minus1 = next(g for g in gl.center().elements if g.order() == 2)
    assert _same_realization(z4_circ_gl23(), _ref_z4_circ(gl, minus1))
    for B in (cyclic_group(7), frobenius_group(7, 3, 2)):
        assert _same_realization(_z2_cubed_by(B), _ref_z2_cubed(B))
    for ell in (1, 2):
        got, want = _k_groups_rotary(ell), _ref_k_groups_rotary(ell)
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, G), (_, H) in zip(got, want):
            assert _same_realization(G, H), (name, ell)


# -- the Z4oQ8 entries against the central products they replace -------------------

CENTRAL_PRODUCT_ENTRIES = [(1, case) for case in ("1.1", "1.2", "1.3", "1.4", "1.5", "1.6")] + [
    (2, case) for case in ("2.1", "2.2", "2.4", "2.5")
]


def ref_central_entry(table, case, **kwargs):
    """A Z4oQ8 entry at ell = 1 as a central product, the construction the
    semidirect builders replace: Z4 o (Q8:B) for Table 1 and (Z3:Z4) o (Q8:K)
    for Table 2, the factors in the order each case took them.  kwargs go to
    `central_product`.  Returns the group and its generators in the order of
    the semidirect entry's: (Z3,) Z4, Q8, then B or K."""
    Q, s3, tau = _quaternion_auts()
    if table == 1:
        B, roles = _table1_acting_group(case, 1)
        action = [{"r3": s3, "inv": tau}.get(r, list(Q.generators)) for r in roles]
        qb = semidirect_product(Q, B, action)
        Z4 = cyclic_group(4)
        pair = [(Z4.generators[0] ** 2, qb.left_gens[0] ** 2)]
        H = central_product(Z4, qb.group, pair, **kwargs).group
        return H, H.generators
    Z3 = cyclic_group(3)
    z3z4 = semidirect_product(Z3, cyclic_group(4), [[Z3.generators[0].inverse()]])
    K = dihedral_group(3) if case in ("2.4", "2.5") else cyclic_group(3)
    qk = semidirect_product(Q, K, [s3, tau][: len(K.generators)])
    z, minus1 = z3z4.right_gens[0] ** 2, qk.left_gens[0] ** 2
    if case in ("2.1", "2.4"):
        H = central_product(z3z4.group, qk.group, [(z, minus1)], **kwargs).group
        return H, H.generators
    H = central_product(qk.group, z3z4.group, [(minus1, z)], **kwargs).group
    return H, H.generators[-2:] + H.generators[:-2]


@pytest.mark.parametrize("table,case", CENTRAL_PRODUCT_ENTRIES)
def test_z4oq8_entries_are_the_central_products_they_replace(table, case):
    """Matching the generators in order is an isomorphism onto the central
    product, so the smaller semidirect model is the same group."""
    G = build_table_group(table, case, "Z4oQ8" if table == 1 else "Q8,Z4oQ8", 1)
    H, images = ref_central_entry(table, case)
    assert G.order == H.order and G.degree < H.degree
    phi = extend_hom(G, G.generators, images)
    assert phi is not None and len(set(phi.values())) == G.order
