import json
from pathlib import Path

import pytest

from arcmaps.cli import build_parser, main
from arcmaps.families import build_table_group
from arcmaps.genfiles import format_generator_file
from arcmaps.perms import Permutation
from arcmaps.standard import cyclic_group, gl2_3
from arcmaps.products import direct_product
from arcmaps.verify import z4_circ_gl23

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_text_output_exact(capsys):
    code, out, _ = run(capsys, "family", "C31", "--odd", "3..7")
    assert code == 0
    assert out == (
        "# family C31: n | chi | factorization | squarefree\n"
        "3 | 0 | 0 | not-squarefree\n"
        "5 | -10 | -2.5 | squarefree\n"
        "7 | -28 | -2.2.7 | not-squarefree\n"
    )


def test_family_only_squarefree_matches_published_table(capsys):
    code, out, _ = run(capsys, "family", "C31", "--odd", "5..17", "--only-squarefree")
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows == [
        "5 | -10 | -2.5 | squarefree",
        "13 | -130 | -2.5.13 | squarefree",
        "17 | -238 | -2.7.17 | squarefree",
    ]


def test_family_records(capsys):
    code, out, _ = run(capsys, "family", "C34", "--primes", "3..7", "--format", "records")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert [r["n"] for r in rows] == [3, 5, 7]
    assert rows[2]["factorization"] == "-5.7"


def test_family_rejects_parity_violation(capsys):
    code, _, err = run(capsys, "family", "C31", "--even", "4..8")
    assert code == 2
    assert err == "error: family C31 needs odd n >= 3, got 4\n"


def test_family_rejects_bad_range(capsys):
    code, _, err = run(capsys, "family", "C31", "--odd", "17")
    assert code == 2


def test_family_determinism(capsys):
    _, out1, _ = run(capsys, "family", "C33", "--even", "2..10")
    _, out2, _ = run(capsys, "family", "C33", "--even", "2..10")
    assert out1 == out2


def test_map_text(capsys):
    code, out, _ = run(capsys, "map", "C31", "5")
    assert code == 0
    assert "vertices: 5" in out
    assert "edges: 25" in out
    assert "faces: 10" in out
    assert "chi: -10" in out
    assert "graph: C5^(5)" in out


def test_map_rejects_even_n(capsys):
    code, _, err = run(capsys, "map", "C31", "4")
    assert code == 2
    assert err == "error: family C31 needs odd n >= 3, got 4\n"


def test_map_dot(capsys):
    code, out, _ = run(capsys, "map", "C34", "3", "--format", "dot")
    assert code == 0
    assert out.startswith('graph "C34_n3"')
    assert out.count("--") == 18


def test_map_c34_n5(capsys):
    code, out, _ = run(capsys, "map", "C34", "5", "--dot")
    assert code == 0
    assert "vertices: 25" in out
    assert "chi: -15" in out
    assert "factorization: -3.5" in out
    # 4-regular on 25 vertices: 50 edge lines in the DOT tail
    assert out.count("--") == 50


def test_map_records_with_dot(capsys):
    code, out, _ = run(capsys, "map", "C34", "3", "--dot", "--format", "records")
    assert code == 0
    rec = json.loads(out)
    assert rec["vertices"] == 9 and rec["graph"] == "C3xC3"
    assert rec["dot"].startswith("graph")


def test_analyze_s4(tmp_path, capsys):
    path = tmp_path / "s4.gens"
    path.write_text("degree 4\n(0 1)\n(0 1 2 3)\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "order: 24" in out
    assert "hypothesis: true" in out
    assert "regular triple:" in out and "regular triple: none" not in out


# the builders of the recorded analyze inputs, `tests/data/<name>.gens`
RECORDED_INPUTS = {
    "gl2_3": gl2_3,
    "z4_circ_gl23": z4_circ_gl23,
    "table1_1.5_ell1": lambda: build_table_group(1, "1.5", "Z2^2", 1),
}


@pytest.mark.parametrize("name", RECORDED_INPUTS)
def test_analyze_text_matches_recorded_output(capsys, name):
    path = DATA / f"{name}.gens"
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert out.replace(str(path), "group.gens") == (DATA / f"analyze_{name}.txt").read_text()


@pytest.mark.parametrize("name", RECORDED_INPUTS)
def test_builders_still_give_the_recorded_inputs(name):
    G = RECORDED_INPUTS[name]()
    assert format_generator_file(G.degree, G.generators) == (DATA / f"{name}.gens").read_text()


def test_analyze_z4xz4(tmp_path, capsys):
    G = direct_product(cyclic_group(4), cyclic_group(4)).group
    path = tmp_path / "z4z4.gens"
    path.write_text(format_generator_file(G.degree, G.generators))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "hypothesis: false" in out
    assert "p=2: FAILS" in out


def test_analyze_trivial_group(tmp_path, capsys):
    path = tmp_path / "triv.gens"
    path.write_text("degree 1\n()\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "hypothesis: true" in out
    assert "regular triple: none" in out
    assert "rotary pair: none" in out


def test_analyze_parse_error_has_line_number(tmp_path, capsys):
    path = tmp_path / "bad.gens"
    path.write_text("degree 4\n(0 1\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "line 2" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/path.gens")
    assert code == 2


def test_verify_single_claim(capsys):
    code, out, err = run(capsys, "verify", "lemma-6.2")
    assert code == 0
    assert out.startswith("lemma-6.2: confirmed")


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "lemma-0.0")
    assert code == 2
    assert "unknown claim" in err


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "all", "--list")
    assert code == 0
    assert "lemma-6.3" in out


def test_verify_records_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "lemma-6.3", "--lmax", "1", "--format", "records")
    assert code == 0
    rec = json.loads(out1.splitlines()[0])
    assert rec["status"] == "confirmed"
    _, out2, _ = run(capsys, "verify", "lemma-6.3", "--lmax", "1", "--format", "records")
    assert out1 == out2


@pytest.mark.parametrize("claim", ["lemma-5.6", "theorem-1.2", "prop-4.2"])
@pytest.mark.parametrize("lmax", ["0", "-1"])
def test_verify_rejects_lmax_below_one(capsys, claim, lmax):
    code, out, err = run(capsys, "verify", claim, "--lmax", lmax)
    assert (code, out) == (2, "")
    assert "--lmax must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma-5.1", "--cap", "3"],
        ["verify", "lemma-5.1", "--format", "dot"],
        ["family", "C31", "--odd", "5..7", "--format", "dot"],
        ["analyze", "s4.gens", "--format", "dot"],
    ],
)
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv", [["family", "C31", "--odd", "5..7"], ["map", "C31", "5"], ["analyze", "s4.gens"], ["verify", "all"]]
)
def test_every_subcommand_takes_workers(argv):
    assert build_parser().parse_args(argv + ["--workers", "2"]).workers == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.txt"
    code, out, _ = run(capsys, "family", "C33", "--even", "2..4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "2 | 2 | 2 | squarefree" in target.read_text()


def test_workers_output_matches_sequential(capsys):
    _, seq, _ = run(capsys, "family", "C31", "--odd", "5..11")
    _, par, _ = run(capsys, "family", "C31", "--odd", "5..11", "--workers", "2")
    assert seq == par


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "C31", "--odd", "5..7", "--cap", "10"],
        ["family", "C31", "--odd", "5..7", "--cap", "10", "--workers", "2"],
        ["map", "C31", "5", "--cap", "10"],
    ],
)
def test_cap_overflow_is_a_usage_error(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: group too large for desk-scale enumeration (cap 10)\n")


@pytest.mark.parametrize(
    "argv,cap",
    [(["map", "C31", "7"], "300"), (["family", "C33", "--range", "6..7"], "200")],
)
def test_cap_bounds_the_family_group_not_the_wreath_square(capsys, argv, cap):
    # C31(7) has order 196 and C33(6), C33(7) 144 and 196, inside W(n) of
    # order 392 at n = 7: only the family's own group is closed.
    code, uncapped, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--cap", cap) == (0, uncapped, "")


def test_cap_still_bounds_c34_which_is_the_wreath_square(capsys):
    assert run(capsys, "map", "C34", "7", "--cap", "300") == (
        2,
        "",
        "error: group too large for desk-scale enumeration (cap 300)\n",
    )


# family tables and a map, recorded byte for byte in `tests/data`
RECORDED_FAMILY_RUNS = {
    "family_C31_odd_5-29.txt": ["family", "C31", "--odd", "5..29"],
    "family_C33_range_2-24.txt": ["family", "C33", "--range", "2..24"],
    "family_C34_odd_3-23_records.jsonl": ["family", "C34", "--odd", "3..23", "--format", "records"],
    "map_C34_23_dot.txt": ["map", "C34", "23", "--dot"],
}


@pytest.mark.parametrize("name", RECORDED_FAMILY_RUNS)
def test_family_runs_match_recorded_output(capsys, name):
    code, out, _ = run(capsys, *RECORDED_FAMILY_RUNS[name])
    assert code == 0
    assert out == (DATA / name).read_text()


def test_analyze_respects_cap(tmp_path, capsys):
    path = tmp_path / "s4.gens"
    path.write_text("degree 4\n(0 1)\n(0 1 2 3)\n")
    code, _, err = run(capsys, "analyze", str(path), "--cap", "10")
    assert code == 2
    assert "too large" in err


def test_verify_all_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "all", "--lmax", "1")
    assert code == 0
    assert "refuted" not in out


def test_analyze_family_group_round_trip(tmp_path, capsys):
    from arcmaps.families import build_family

    inst = build_family("C31", 5)
    path = tmp_path / "c31.gens"
    path.write_text(format_generator_file(inst.group.degree, inst.group.generators))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "records")
    assert code == 0
    rec = json.loads(out)
    assert rec["order"] == 100
    assert rec["hypothesis"]["ok"] is True
    assert rec["regular_triple"] is not None
    # witness generators re-parse as permutations of the right degree
    from arcmaps.perms import Permutation

    for w in rec["hypothesis"]["per_prime"]:
        for text in w["witness_gens"]:
            Permutation.parse(text, rec["degree"])
