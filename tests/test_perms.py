import pytest

from arcmaps.perms import Permutation


def P(text, degree):
    return Permutation.parse(text, degree)


def test_identity_law():
    g = P("(0 2 4)(1 3)", 5)
    e = Permutation.identity(5)
    assert e * g == g
    assert g * e == g


def test_inverse_law():
    g = P("(0 1 2 3)(4 6)", 7)
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


def test_left_to_right_convention():
    # a * b applies a first: point 0 goes 0 -> 1 -> 2
    a, b = P("(0 1)", 3), P("(1 2)", 3)
    ab = a * b
    assert ab(0) == 2
    assert ab == P("(0 2 1)", 3)
    # the classical right-to-left reading of (0 1) after (1 2) is the other product
    assert b * a == P("(0 1 2)", 3)


def test_order_and_cycles():
    assert Permutation.identity(4).order() == 1
    assert P("(0 1)", 2).order() == 2
    assert P("(0 1 2)(3 4)", 5).order() == 6
    assert P("(0 1 2)(3 4)", 5).cycles() == [(0, 1, 2), (3, 4)]


def test_order_lists_cycles_once(monkeypatch):
    calls = []
    cycles = Permutation.cycles

    def spy(self):
        calls.append(self)
        return cycles(self)

    monkeypatch.setattr(Permutation, "cycles", spy)
    for text, want in (("()", 1), ("(0 1)", 2), ("(0 1 2)(3 4)", 6)):
        calls.clear()
        assert P(text, 5).order() == want
        assert len(calls) == 1


def test_degree_mismatch():
    a, b = P("(0 1)", 2), P("(1 2)", 3)
    with pytest.raises(ValueError, match="degree mismatch"):
        a * b
    with pytest.raises(ValueError, match="degree mismatch"):
        b * a


def test_conjugation_matches_exponent_notation():
    a, b = P("(0 1 2)", 4), P("(2 3)", 4)
    assert a**b == b.inverse() * a * b
    c = P("(0 3)", 4)
    assert (a**b) ** c == a ** (b * c)


def test_power():
    g = P("(0 1 2 3 4)", 5)
    assert g**5 == Permutation.identity(5)
    assert g**-1 == g.inverse()
    assert g**7 == g * g


def test_cycle_string_round_trip():
    for text in ["()", "(0 1)", "(0 1 2)(3 4)", "(1 4)(2 3)"]:
        g = P(text, 5)
        assert P(g.cycle_string(), 5) == g


def test_parse_rejects_malformed():
    for bad in ["(0 1", "0 1 2", "(0 0)", "(0 1)(1 2)", "(0 9)"]:
        with pytest.raises(ValueError):
            P(bad, 5)


def test_constructor_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
