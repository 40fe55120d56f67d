import json
from pathlib import Path

import pytest

from arcmaps import structure, verify
from arcmaps.groups import intersection
from arcmaps.products import direct_product
from arcmaps.standard import (
    alternating_group,
    cyclic_group,
    elementary_abelian,
    frobenius_group,
    symmetric_group,
)
from arcmaps.structure import hall_subgroup, o_pi
from arcmaps.verify import (
    CLAIMS,
    find_decomposition,
    run_claims,
    verify_decomposition_instances,
    verify_gl23_no_regular,
    verify_inverted_abelian_no_rotary,
    verify_k_group_audit,
    verify_two_group_audit,
    z4_circ_gl23,
)

DATA = Path(__file__).parent / "data"


def test_registry_runs_every_claim_at_lmax_1():
    reports = run_claims("all", 1)
    assert len(reports) == len(CLAIMS)
    for rep in reports:
        assert rep.status == "confirmed", (rep.claim, [c for c in rep.checks if not c.ok])
    # the records `arcmaps verify all --lmax 1 --format records` prints
    got = [json.dumps(rep.to_record(), sort_keys=True) for rep in reports]
    assert got == (DATA / "verify_all_lmax1.jsonl").read_text().splitlines()


def test_unknown_claim_raises():
    with pytest.raises(KeyError):
        run_claims("lemma-9.9", 1)


def test_aliases():
    (rep,) = run_claims("decomposition", 1)
    assert rep.claim == "theorem-1.1"


def test_gl23_claim_details():
    rep = verify_gl23_no_regular()
    assert rep.status == "confirmed"
    census = [c for c in rep.checks if "census" in c.name][0]
    assert census.info["count"] == 19
    cert = rep.certificate["search_space"]["GL(2,3)"]
    assert cert["candidates"] == cert["examined"] == 13**3
    cert = rep.certificate["search_space"]["Z4oGL(2,3)"]
    assert cert["candidates"] == cert["examined"] == 19**3


def test_z4_circ_gl23_shape():
    K = z4_circ_gl23()
    assert K.order == 96
    assert K.center().order == 4


def test_inverted_abelian_claim_covers_three_levels():
    rep = verify_inverted_abelian_no_rotary(3)
    names = [c.name for c in rep.checks]
    assert sum("no rotary pair" in n for n in names) == 3
    assert any("control" in n for n in names)
    assert rep.status == "confirmed"


def test_two_group_audit_flags_q8z4():
    rep = verify_two_group_audit(1)
    entry = [c for c in rep.checks if c.name == "case 2.3 ell=1"][0]
    assert entry.info["got"] == [True, False, False]  # reversing yes, regular no, rotary no


def test_sylow_claims_take_sylow_subgroups_from_the_hypothesis(monkeypatch):
    primes = []
    sylow = structure.sylow

    def spy(G, p):
        primes.append(p)
        return sylow(G, p)

    monkeypatch.setattr(structure, "sylow", spy)
    monkeypatch.setattr(verify, "sylow", spy)
    for claim, want in (("lemma-5.1", [7, 3, 13, 3, 5, 3, 7, 5, 3]), ("lemma-5.7", [2, 3, 7])):
        primes.clear()
        assert run_claims(claim, lmax=1)[0].ok
        assert sorted(primes) == sorted(want), claim


def test_odd_core_and_complement():
    G = frobenius_group(7, 3)
    H = o_pi(G, (3, 7))
    assert H.order == 21
    G2 = symmetric_group(4)
    assert o_pi(G2, (3,)).order == 1
    K = hall_subgroup(frobenius_group(7, 3), (3,))
    assert K.order == 3


def test_find_decomposition_frobenius():
    G = frobenius_group(7, 3)
    dec = find_decomposition(G)
    assert dec is not None
    assert (dec.A.order, dec.B.order, dec.K.order) == (7, 3, 1)


def test_find_decomposition_complement_needs_three_involution_generators():
    # K = A4 x Z2^3: no Sylow 3-subgroup plus two elements generates it, since
    # its abelianization Z3 x Z2^3 needs three generators of order 2
    G = direct_product(
        direct_product(cyclic_group(5), alternating_group(4)).group,
        elementary_abelian(2, 3),
    ).group
    assert (G.order, G.degree, G.is_solvable()) == (480, 15, True)
    dec = find_decomposition(G)
    assert dec is not None
    assert (dec.H.order, dec.K.order, dec.A.order, dec.B.order) == (5, 96, 1, 5)
    assert intersection(dec.K, dec.H).order == 1


def test_find_decomposition_coprime_abelian():
    G = cyclic_group(15)
    dec = find_decomposition(G)
    assert dec is not None
    assert dec.H.order == 15
    assert dec.A.order == 1 and dec.B.order == 15


def test_decomposition_instances_confirmed():
    rep = verify_decomposition_instances(1)
    assert rep.status == "confirmed"
    by_name = {c.name: c for c in rep.checks}
    assert by_name["Z7:Z3"].info == {"|H|": 21, "|K|": 1, "|A|": 7, "|B|": 3}
    assert by_name["S4"].info["|K|"] == 24
    assert by_name["C31(5) group"].info == {"|H|": 25, "|K|": 4, "|A|": 1, "|B|": 25}


def test_k_group_audit_records_unrealizable_members():
    rep = verify_k_group_audit(1)
    assert rep.status == "confirmed"
    unreal = rep.certificate["regular_unrealizable"]
    # the two (1.5)/(1.6)-derived members and their xZ2 doubles
    assert len(unreal) == 4
    for entry in unreal:
        assert entry["obstruction"] is not None
        assert entry["obstruction"]["commuting_involution_pairs"] == 0
