"""Acceptance gates, one test per criterion, each printing a PASS/FAIL line.

All checks are exact integer equalities (zero tolerance).  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import random
import time

import pytest

from arcmaps.families import (
    build_family,
    build_table_group,
    build_two_group,
    emit_family_table,
    expected_two_group_flags,
    family_chi_law,
    TWO_GROUP_CASES,
    wreath_square,
)
from arcmaps.groups import PermGroup
from arcmaps.maps import (
    build_map,
    euler_characteristic_closed,
    euler_characteristic_counted,
    is_cartesian_square_of_cycle,
    is_multicycle,
    underlying_graph,
)
from arcmaps.products import direct_product, semidirect_product
from arcmaps.standard import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    elementary_abelian,
    frobenius_group,
    gl2_3,
    inverted_cyclic_pair,
    modular_group,
    quaternion_group,
    symmetric_group,
)
from arcmaps.structure import satisfies_hypothesis
from arcmaps.triples import (
    count_involutions,
    exhaustive_search_count,
    exists,
    find_any,
    search_space_size,
)
from arcmaps.verify import (
    _k_groups_regular,
    _k_groups_rotary,
    _normal_subgroups_small,
    _regular_obstruction,
    verify_k_group_audit,
    z4_circ_gl23,
)

C31_RANGE = range(3, 42, 2)
C33_RANGE = range(2, 35)
C34_RANGE = range(3, 24, 2)

PUBLISHED = {
    "C31": [
        (5, -10, "-2.5"),
        (13, -130, "-2.5.13"),
        (17, -238, "-2.7.17"),
        (29, -754, "-2.13.29"),
        (37, -1258, "-2.17.37"),
        (41, -1558, "-2.19.41"),
    ],
    "C33": [
        (2, 2, "2"),
        (10, -70, "-2.5.7"),
        (14, -154, "-2.7.11"),
        (22, -418, "-2.11.19"),
        (26, -598, "-2.13.23"),
        (34, -1054, "-2.17.31"),
    ],
    "C34": [
        (3, -3, "-3"),
        (5, -15, "-3.5"),
        (7, -35, "-5.7"),
        (13, -143, "-11.13"),
        (17, -255, "-3.5.17"),
        (19, -323, "-17.19"),
        (23, -483, "-3.7.23"),
    ],
}


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE criterion {num} [{status}]: {label}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_1_published_tables():
    failures = []
    t0 = time.time()
    for family, table in PUBLISHED.items():
        rows = emit_family_table(family, [n for n, _, _ in table])
        for row, (n, chi, dots) in zip(rows, table):
            if (row.n, row.chi, row.factorization, row.squarefree) != (n, chi, dots, True):
                failures.append(f"{family} n={n}: got ({row.chi}, {row.factorization!r}, {row.squarefree})")
    elapsed = time.time() - t0
    if elapsed > 30:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(1, "published characteristic tables reproduced exactly", failures)


def _family_maps():
    for family, ns in (("C31", C31_RANGE), ("C33", C33_RANGE), ("C34", C34_RANGE)):
        for n in ns:
            inst = build_family(family, n)
            yield family, n, inst, build_map(inst.group, inst.triple)


def test_criterion_2_two_way_euler_agreement():
    failures = []
    t0 = time.time()
    for family, n, inst, m in _family_maps():
        closed = euler_characteristic_closed(inst.group, inst.triple).value
        counted = euler_characteristic_counted(m)
        law = family_chi_law(family, n)
        if not (closed == counted == law):
            failures.append(f"{family} n={n}: closed={closed} counted={counted} law={law}")
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report(2, "closed-form and counted Euler characteristics agree on every map", failures)


def test_criterion_3_graph_recognition():
    failures = []
    t0 = time.time()
    for family, n, inst, m in _family_maps():
        g = underlying_graph(m)
        if family in ("C31", "C33"):
            got = is_multicycle(g)
            if got != (n, n):
                failures.append(f"{family} n={n}: multicycle -> {got}")
        else:
            got = is_cartesian_square_of_cycle(g)
            if got != n:
                failures.append(f"C34 n={n}: cartesian -> {got}")
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report(3, "underlying graphs recognized as C_n^(n) or C_n box C_n", failures)


def test_criterion_4_gl23_exhaustion():
    failures = []
    t0 = time.time()
    G = gl2_3()
    K = z4_circ_gl23()
    if G.order != 48 or K.order != 96:
        failures.append(f"orders {G.order}, {K.order}")
    if exists(G, "regular"):
        failures.append("GL(2,3) unexpectedly has a regular triple")
    if exists(K, "regular"):
        failures.append("Z4 o GL(2,3) unexpectedly has a regular triple")
    census = count_involutions(K)
    if census != 19:
        failures.append(f"involution census {census} != 19")
    elapsed = time.time() - t0
    if elapsed > 5:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _report(4, "no regular triple on GL(2,3) or Z4 o GL(2,3); census 19", failures)


def test_criterion_5_inverted_abelian_exhaustion():
    failures = []
    t0 = time.time()
    for ell in (1, 2, 3):
        G = inverted_cyclic_pair(3**ell, 3)
        if exists(G, "rotary"):
            failures.append(f"ell={ell}: unexpected rotary pair")
    if not exists(dihedral_group(9), "rotary"):
        failures.append("dihedral control found no rotary pair")
    elapsed = time.time() - t0
    if elapsed > 5:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    _report(5, "no rotary pair on (Z_3^l x Z_3):Z_2, l in 1..3; dihedral control positive", failures)


def test_criterion_6_two_group_audit():
    failures = []
    t0 = time.time()
    for ell in (1, 2):
        for case in TWO_GROUP_CASES:
            G = build_two_group(case, ell)
            got = (exists(G, "reversing"), exists(G, "regular"), exists(G, "rotary"))
            want = expected_two_group_flags(case, ell)
            if got != want:
                failures.append(f"case {case} ell={ell}: got {got}, want {want}")
    elapsed = time.time() - t0
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(6, "2-group reversing/regular/rotary flags match the catalog lists", failures)


def _heredity_corpus() -> list[PermGroup]:
    groups = [
        symmetric_group(4),
        alternating_group(4),
        gl2_3(),
        z4_circ_gl23(),
        dihedral_group(4),
        dihedral_group(9),
        quaternion_group(16),
        cyclic_group(12),
        build_family("C31", 5).group,
        build_family("C33", 2).group,
        build_family("C34", 3).group,
        wreath_square(5)[0],
        build_table_group(1, "1.2", "Z2^2", 1),
        build_table_group(2, "2.1", "Z2^2,Z2^3", 1),
        build_two_group("1.3+", 2),
        build_two_group("2.2", 1),
        modular_group(3, 2),
        inverted_cyclic_pair(9, 3),
        frobenius_group(7, 3),
    ]
    E = elementary_abelian(2, 3)
    g = list(E.generators)
    groups.append(semidirect_product(E, cyclic_group(7), [[g[1], g[2], g[0] * g[1]]]).group)
    return groups


def test_criterion_7_hypothesis_heredity():
    failures = []
    t0 = time.time()
    corpus = _heredity_corpus()
    for G in corpus:
        if not satisfies_hypothesis(G).ok:
            failures.append(f"corpus group of order {G.order} fails the base property")
    rng = random.Random(20250810)
    checked = 0
    idx = 0
    while checked < 200:
        G = corpus[idx % len(corpus)]
        idx += 1
        a, b = rng.choice(G.elements), rng.choice(G.elements)
        H = G.subgroup([a, b])
        if not satisfies_hypothesis(H).ok:
            failures.append(
                f"subgroup of order {H.order} inside order-{G.order} group breaks heredity"
            )
        checked += 1
    quotients = 0
    for G in corpus:
        if G.order > 300:
            continue
        for N in _normal_subgroups_small(G):
            Q = G.quotient(N).group
            if not satisfies_hypothesis(Q).ok:
                failures.append(
                    f"quotient of order {Q.order} of order-{G.order} group breaks heredity"
                )
            quotients += 1
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    print(f"    (checked 200 subgroups and {quotients} quotients)")
    _report(7, "prime-index property inherited by subgroups and quotients", failures)


def _k_regular_split(ell):
    """Case (1) K-groups at level ell: (members with a regular triple, members
    without one).  The list is a necessary condition only: the (1.5)/(1.6)
    entries and their xZ2 doubles have a quotient by O_2 in which no two
    distinct involutions commute, so no regular triple projects down."""
    a = 3**ell
    realized = ["S4", f"Z2^2:D{6 * a}"]
    unrealizable = [f"(Z{a}xA4):Z2", f"(Z3x(Z2^2:Z{a})):Z2"]
    realized += [f"{n} x Z2" for n in realized] + [f"D{2 * a}xS4", f"(Z2^2:D{2 * a})xD6"]
    unrealizable += [f"{n} x Z2" for n in unrealizable]
    return set(realized), set(unrealizable)


def test_criterion_8_k_group_audit():
    failures = []
    t0 = time.time()
    unrealizable = []
    exhausted = 0
    for ell in (1, 2):
        want_realized, want_unrealizable = _k_regular_split(ell)
        got_realized, got_unrealizable = set(), set()
        for name, G in _k_groups_regular(ell):
            member = f"case (1) K {name} (ell={ell})"
            realized = exists(G, "regular")
            obstructed = _regular_obstruction(G) is not None
            if realized == obstructed:
                failures.append(
                    f"{member}: regular triple {'found' if realized else 'not found'}, "
                    f"O_2-quotient obstruction {'found' if obstructed else 'not found'}"
                )
            if realized:
                got_realized.add(name)
                continue
            got_unrealizable.add(name)
            unrealizable.append(f"{name} (ell={ell})")
            witness, examined = exhaustive_search_count(G, "regular")
            want = search_space_size(G, "regular")
            if witness is not None:
                failures.append(f"{member}: exhaustive scan found a regular triple")
            if examined != want:
                failures.append(f"{member}: exhaustive scan examined {examined} of {want}")
            exhausted += examined
        if got_realized != want_realized:
            failures.append(
                f"case (1) ell={ell}: realized {sorted(got_realized)}, "
                f"expected {sorted(want_realized)}"
            )
        if got_unrealizable != want_unrealizable:
            failures.append(
                f"case (1) ell={ell}: unrealizable {sorted(got_unrealizable)}, "
                f"expected {sorted(want_unrealizable)}"
            )
        for name, G in _k_groups_rotary(ell):
            if not exists(G, "rotary"):
                failures.append(f"case (3) K {name} (ell={ell}) has no rotary pair")
        for case in ("1.5", "1.6"):
            if exists(build_table_group(1, case, "Z2^2", ell), "rotary"):
                failures.append(f"excluded case ({case}) at ell={ell} unexpectedly rotary")
    E = elementary_abelian(2, 3)
    g = list(E.generators)
    z7 = semidirect_product(E, cyclic_group(7), [[g[1], g[2], g[0] * g[1]]]).group
    if not exists(z7, "rotary"):
        failures.append("Z2^3:Z7 has no rotary pair")
    audit = verify_k_group_audit(2)
    if audit.status != "confirmed":
        failures.append(f"verify theorem-1.2 reports {audit.status}")
    claimed = [e["member"] for e in audit.certificate["regular_unrealizable"]]
    if claimed != unrealizable:
        failures.append(f"verify theorem-1.2 lists {claimed} as unrealizable, not {unrealizable}")
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    print(f"    ({len(unrealizable)} members unrealizable, {exhausted} candidates exhausted)")
    _report(8, "K-group audit: regular/rotary existence as listed", failures)
