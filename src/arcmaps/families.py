"""Parametric builders for the group families behind the map constructions.

The map families grow out of the wreath square W(n) = (D_2n x D_2n) : Z_2,
the `products.wreath_by_s2` of D_2n: two n-gon blocks with the outer
involution swapping them.  The three map families C31, C33, C34 pick
subgroups of W(n) together with a verified regular triple.  W(n) itself is
closed only for C34, which is all of it; C31 and C33 close just their own
index-2 subgroup, and the element completing it to W(n) certifies
|W(n)| = 8 n^2 without a closure.  The 2-group and odd-p catalogs and
the two case tables are assembled from the product constructors.  Each
catalog group is built here once, and `verify` reuses these builders, so a
group's generators, degree and element order are decided in one place.
Builders return named elements so formulas like y = a b s t transcribe
literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .groups import DEFAULT_CAP, PermGroup, generate
from .maps import euler_characteristic_closed
from .perms import Permutation
from .products import (
    ProductModel,
    WreathModel,
    central_product,
    direct_product,
    semidirect_product,
    wreath_by_s2,
)
from .standard import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    dihedral_times_z2,
    dihedral_twist,
    elementary_abelian,
    inverted_cyclic_pair,
    modular_group,
    quaternion_central_z4,
    quaternion_group,
    symmetric_group,
)
from .structure import IsoClassTag
from .triples import GeneratingTriple, check_triple

FAMILIES = ("C31", "C33", "C34")


class FamilyParameterError(ValueError):
    pass


@dataclass(frozen=True)
class FamilyInstance:
    family: str
    n: int
    group: PermGroup
    triple: GeneratingTriple
    names: dict


def _wreath_model(n: int, cap: int) -> tuple[WreathModel, dict]:
    """W(n) as a `WreathModel`, still unclosed, and its named elements."""
    if n < 2:
        raise FamilyParameterError("wreath square needs n >= 2")
    W = wreath_by_s2(dihedral_group(n), cap=cap)
    (a, s), (b, t) = W.first_gens, W.second_gens
    return W, {"a": a, "s": s, "b": b, "t": t, "sigma": W.swap}


def wreath_square(n: int, cap: int = DEFAULT_CAP) -> tuple[PermGroup, dict]:
    """(D_2n x D_2n) : Z_2 of order 8 n^2 with named elements a, s, b, t, sigma.

    The `wreath_by_s2` of D_2n: a, s rotate/reflect the first block, b, t
    the second, and sigma swaps the blocks, so (a, s) ** sigma == (b, t).
    """
    W, names = _wreath_model(n, cap)
    return W.group, names


def _check_index_two(G: PermGroup, c: Permutation, label: str) -> None:
    """Assert |<G, c>| = 2 |G|: c lies outside G, squares into G and
    normalizes G, so <G, c> is the union of G and Gc."""
    if c in G or c * c not in G or any(g ** c not in G for g in G.generators):
        raise AssertionError(f"{label}: G does not have index 2 in <G, {c.cycle_string()}>")


def check_family_parameter(family: str, n: int) -> Optional[str]:
    """Diagnostic message when n violates the family's constraints, else None."""
    if family not in FAMILIES:
        return f"unknown family {family!r}"
    if family in ("C31", "C34"):
        if n < 3 or n % 2 == 0:
            return f"family {family} needs odd n >= 3, got {n}"
    elif n < 2:
        return f"family C33 needs n >= 2, got {n}"
    return None


def build_family(family: str, n: int, cap: int = DEFAULT_CAP) -> FamilyInstance:
    """The family's group and its regular triple, validated at build time."""
    msg = check_family_parameter(family, n)
    if msg:
        raise FamilyParameterError(msg)
    W, nm = _wreath_model(n, cap)
    a, s, b, t, sigma = nm["a"], nm["s"], nm["b"], nm["t"], nm["sigma"]
    # C31 and C33 have index 2 in W(n): each with its completing element
    # generates W(n), so their index-2 check certifies |W(n)| = 8 n^2, and
    # only C34, which is W(n), closes it.
    if family == "C31":
        G = generate(sigma.degree, [a, s, b, t], cap=cap)
        x, y, z = s, a * b * s * t, s * t
        completing = sigma
    elif family == "C33":
        G = generate(sigma.degree, [a, b, s * t, sigma], cap=cap)
        x, y, z = sigma, a * s * t, a * b * s * t
        completing = s
    else:  # C34
        G = W.group
        x, y, z = sigma, s, a * b * s * t
        completing = None
    expected = 8 * n * n if completing is None else 4 * n * n
    if G.order != expected:
        raise AssertionError(f"{family}({n}) order {G.order} != {expected}")
    if completing is not None:
        _check_index_two(G, completing, f"{family}({n})")
    if not check_triple(G, (x, y, z), "regular"):
        raise AssertionError(f"{family}({n}) triple failed validation")
    triple = GeneratingTriple("regular", (x, y, z), G)
    return FamilyInstance(family, n, G, triple, nm)


def family_chi_law(family: str, n: int) -> int:
    """The closed form the computed characteristic must reproduce."""
    if family in ("C31", "C33"):
        return -n * (n - 3)
    return -n * (n - 2)


@dataclass(frozen=True)
class FamilyRow:
    family: str
    n: int
    chi: int
    factorization: str
    squarefree: bool

    def to_record(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "chi": self.chi,
            "factorization": self.factorization,
            "squarefree": self.squarefree,
        }


def family_row(family: str, n: int, cap: int = DEFAULT_CAP) -> FamilyRow:
    inst = build_family(family, n, cap=cap)
    fi = euler_characteristic_closed(inst.group, inst.triple)
    return FamilyRow(family, n, fi.value, fi.dot_string(), fi.squarefree)


def emit_family_table(
    family: str, ns: Sequence[int], workers: int = 1, cap: int = DEFAULT_CAP
) -> list[FamilyRow]:
    """One row per parameter; parallelizable over n, output sorted by n."""
    ns = sorted(set(ns))
    for n in ns:
        msg = check_family_parameter(family, n)
        if msg:
            raise FamilyParameterError(msg)
    if workers > 1 and len(ns) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(family_row, [family] * len(ns), ns, [cap] * len(ns)))
    else:
        rows = [family_row(family, n, cap=cap) for n in ns]
    return sorted(rows, key=lambda r: r.n)


# -- the 2-group catalog -------------------------------------------------------------

TWO_GROUP_CASES = (
    "1.1a",  # Z_{2^(l+1)}
    "1.1b",  # Z_{2^l} x Z_2
    "1.2a",  # D_{2^(l+2)}
    "1.2b",  # Q_{2^(l+2)}
    "1.3+",  # Z_{2^(l+2)} : Z_2, a -> a^(2^(l+1)+1)
    "1.3-",  # Z_{2^(l+2)} : Z_2, a -> a^(2^(l+1)-1)
    "2.1",   # D_{2^(l+1)} x Z_2
    "2.2",   # D_{2^(l+3)} : Z_2 with the half-twist
    "2.3",   # Q_{2^(l+2)} o Z_4
)


def build_two_group(case: str, ell: int) -> PermGroup:
    """A member of the 2-group catalog (cyclic/dihedral subgroup of index 2)."""
    if ell < 1:
        raise FamilyParameterError("ell must be >= 1")
    if case == "1.1a":
        return cyclic_group(2 ** (ell + 1))
    if case == "1.1b":
        return direct_product(cyclic_group(2**ell), cyclic_group(2)).group
    if case == "1.2a":
        return dihedral_group(2 ** (ell + 1))
    if case == "1.2b":
        return quaternion_group(2 ** (ell + 2))
    if case in ("1.3+", "1.3-"):
        m = 2 ** (ell + 2)
        A = cyclic_group(m)
        e = 2 ** (ell + 1) + (1 if case == "1.3+" else -1)
        return semidirect_product(A, cyclic_group(2), [[A.generators[0] ** e]]).group
    if case == "2.1":
        return dihedral_times_z2(2**ell)
    if case == "2.2":
        return dihedral_twist(2 ** (ell + 4))
    if case == "2.3":
        return quaternion_central_z4(2 ** (ell + 3))
    raise FamilyParameterError(f"unknown 2-group case {case!r}")


def expected_two_group_tag(case: str, ell: int) -> IsoClassTag:
    """The tag recognize() must confirm for each catalog member."""
    if case == "1.1a":
        return IsoClassTag("cyclic", (2 ** (ell + 1),))
    if case == "1.1b":
        return IsoClassTag("cyclic_x_prime", (2, ell))
    if case == "1.2a":
        return IsoClassTag("dihedral", (2 ** (ell + 2),))
    if case == "1.2b":
        return IsoClassTag("gen_quaternion", (2 ** (ell + 2),))
    if case == "1.3+":
        return IsoClassTag("modular", (2, ell + 2))
    if case == "1.3-":
        return IsoClassTag("semidihedral", (2 ** (ell + 3),))
    if case == "2.1":
        if ell == 1:
            return IsoClassTag("elem_abelian", (2, 3))
        return IsoClassTag("dihedral_x_2", (2 ** (ell + 2),))
    if case == "2.2":
        return IsoClassTag("dihedral_twist", (2 ** (ell + 4),))
    if case == "2.3":
        return IsoClassTag("quaternion_o_z4", (2 ** (ell + 3),))
    raise FamilyParameterError(f"unknown 2-group case {case!r}")


def expected_two_group_flags(case: str, ell: int) -> tuple[bool, bool, bool]:
    """(reversing, regular, rotary) existence required of each catalog member.

    Reversing data exists exactly for the dihedral, dihedral x Z_2,
    twisted-dihedral and quaternion-central cases; of those only the
    quaternion-central case misses a regular triple.  Rotary pairs exist
    exactly for the 2-generated cases: cyclic, Z_{2^l} x Z_2, dihedral and
    the split metacyclic extensions.
    """
    klein = case == "1.1b" and ell == 1
    if case == "1.1a":
        return (False, False, True)
    if case == "1.1b":
        return (klein, klein, True)
    if case == "1.2a":
        return (True, True, True)
    if case == "1.2b":
        return (False, False, False)
    if case in ("1.3+", "1.3-"):
        return (False, False, True)
    if case == "2.1":
        return (True, True, False)
    if case == "2.2":
        return (True, True, False)
    if case == "2.3":
        return (True, False, False)
    raise FamilyParameterError(f"unknown 2-group case {case!r}")


# -- the odd-p catalog --------------------------------------------------------------

ODD_P_CASES = ("1", "2", "3")


def build_odd_p_group(case: str, p: int, ell: int) -> PermGroup:
    """Z_{p^l}, Z_{p^l} x Z_p, or the modular Z_{p^l} : Z_p (case 3 needs l >= 2)."""
    if p < 3 or p % 2 == 0:
        raise FamilyParameterError("p must be an odd prime")
    if ell < 1:
        raise FamilyParameterError("ell must be >= 1")
    if case == "1":
        return cyclic_group(p**ell)
    if case == "2":
        return direct_product(cyclic_group(p**ell), cyclic_group(p)).group
    if case == "3":
        if ell < 2:
            raise FamilyParameterError("the modular case needs ell >= 2")
        return modular_group(p, ell)
    raise FamilyParameterError(f"unknown odd-p case {case!r}")


# -- shared automorphism data for the table columns -----------------------------------


def _klein_auts(rank: int) -> tuple[PermGroup, list, list]:
    """Z_2^rank with the order-3 rotation of the first two coordinates and the swap."""
    F = elementary_abelian(2, rank)
    g = list(F.generators)
    sigma3 = [g[1], g[0] * g[1]] + g[2:]
    tau = [g[1], g[0]] + g[2:]
    return F, sigma3, tau


def _quaternion_maps(u: Permutation, v: Permutation) -> tuple[list, list]:
    """Images of i = u, j = v under the 3-cycle i -> j -> k and the i <-> -j swap."""
    minus1 = u * u
    sigma3 = [v, u * v]
    tau = [minus1 * v, minus1 * u]  # i -> -j, j -> -i (and then k -> -k)
    return sigma3, tau


def _quaternion_auts() -> tuple[PermGroup, list, list]:
    """Q_8 with the 3-cycle i -> j -> k and the involutory i <-> -j swap."""
    Q = quaternion_group(8)
    return (Q, *_quaternion_maps(*Q.generators))


def _z4_circ_quaternion_auts() -> tuple[PermGroup, list, list]:
    """Z_4 o Q_8 (regular, degree 16) with the Q_8 maps on its Q_8 generators.

    Its generators are z, u, v: z of order 4 with z^2 = u^2 = -1.  Both maps
    fix z, which is central.
    """
    Z4, Q = cyclic_group(4), quaternion_group(8)
    C = central_product(Z4, Q, [(Z4.generators[0] ** 2, Q.generators[0] ** 2)])
    z, sigma3, tau = C.left_gens[0], *_quaternion_maps(*C.right_gens)
    return C.group, [z, *sigma3], [z, *tau]


# -- Tables 1 and 2 -------------------------------------------------------------------

TABLE1_CASES = ("1.1", "1.2", "1.3", "1.4", "1.5", "1.6", "1.7")
TABLE2_CASES = ("2.1", "2.2", "2.3", "2.4", "2.5")
TABLE1_COLUMNS = ("Z2^2", "Z2^3", "Q8", "Z4oQ8")
TABLE2_COLUMNS = ("Z2^2,Z2^3", "Q8,Z4oQ8")


def table_min_ell(table: int, case: str) -> int:
    if table == 1 and case == "1.7":
        return 2
    if table == 2 and case == "2.3":
        return 2
    return 1


def _table1_acting_group(case: str, ell: int) -> tuple[PermGroup, list[str]]:
    """The K3:Z2 part of a Table 1 row with role labels per generator.

    Roles say how each generator acts on the normal 2-group: "r3" is the
    order-3 rotation, "inv" the involutory swap, "triv" nothing.
    """
    if case == "1.1":
        return dihedral_group(3), ["r3", "inv"]
    if case == "1.2":
        return dihedral_group(3 ** (ell + 1)), ["r3", "inv"]
    if case == "1.3":
        B = direct_product(cyclic_group(3**ell), dihedral_group(3)).group
        return B, ["triv", "r3", "inv"]
    if case == "1.4":
        B = direct_product(dihedral_group(3**ell), cyclic_group(3)).group
        return B, ["r3", "inv", "triv"]
    if case in ("1.5", "1.6"):
        B = inverted_cyclic_pair(3**ell, 3)
        roles = ["triv", "r3", "inv"] if case == "1.5" else ["r3", "triv", "inv"]
        return B, roles
    if case == "1.7":
        K3 = modular_group(3, ell)
        ka, kb = K3.generators
        B = semidirect_product(K3, cyclic_group(2), [[ka.inverse(), kb]]).group
        return B, ["r3", "triv", "inv"]
    raise FamilyParameterError(f"unknown Table 1 case {case!r}")


def _semidirect_by_roles(F: PermGroup, sigma3: list, tau: list, B: PermGroup, roles: list[str]) -> ProductModel:
    action = []
    for role in roles:
        if role == "r3":
            action.append(sigma3)
        elif role == "inv":
            action.append(tau)
        else:
            action.append(list(F.generators))
    return semidirect_product(F, B, action)


def build_table_group(table: int, case: str, column: str, ell: int) -> PermGroup:
    """A Tables 1-2 entry as a permutation model; order checked symbolically."""
    if table == 1:
        if case not in TABLE1_CASES or column not in TABLE1_COLUMNS:
            raise FamilyParameterError(f"no Table 1 entry ({case!r}, {column!r})")
    elif table == 2:
        if case not in TABLE2_CASES or column not in TABLE2_COLUMNS:
            raise FamilyParameterError(f"no Table 2 entry ({case!r}, {column!r})")
    else:
        raise FamilyParameterError("table must be 1 or 2")
    if ell < table_min_ell(table, case):
        raise FamilyParameterError(
            f"case {case} needs ell >= {table_min_ell(table, case)}"
        )
    G = _build_table_entry(table, case, column, ell)
    want = expected_table_order(table, case, column, ell)
    if G.order != want:
        raise AssertionError(
            f"table {table} ({case}, {column}) at ell={ell}: order {G.order} != {want}"
        )
    return G


def expected_table_order(table: int, case: str, column: str, ell: int) -> int:
    if table == 1:
        b_order = 6 if case == "1.1" else (2 * 3 ** (ell + 1) if case in ("1.2", "1.7") else 6 * 3**ell)
        if case in ("1.5", "1.6"):
            b_order = 2 * 3 ** (ell + 1)
        f2 = {"Z2^2": 4, "Z2^3": 8, "Q8": 8, "Z4oQ8": 16}[column]
        return f2 * b_order
    base = {
        "2.1": 24 * 3**ell,
        "2.2": 24 * 3**ell,
        "2.3": 24 * 3**ell,
        "2.4": 48 * 3**ell,
        "2.5": 48 * 3**ell,
    }[case]
    return base if column == "Z2^2,Z2^3" else 2 * base


def _table1_entry(B: PermGroup, roles: list[str], column: str) -> PermGroup:
    """F:B for F the column's 2-group, B acting by roles, of degree |F| + deg(B).

    For Z4oQ8 the order-3 rotation and the swap act on the Q8 generators
    and fix the Z4 generator, so the entry Z4 o (Q8:B) is built as
    (Z4oQ8):B, with no quotient.
    """
    if column in ("Z2^2", "Z2^3"):
        F, sigma3, tau = _klein_auts(2 if column == "Z2^2" else 3)
    elif column == "Q8":
        F, sigma3, tau = _quaternion_auts()
    else:
        F, sigma3, tau = _z4_circ_quaternion_auts()
    return _semidirect_by_roles(F, sigma3, tau, B, roles).group


def _z3m_by_z4_circ_q8(m: int, K: PermGroup, roles: list[str]) -> PermGroup:
    """Z_{3^m} : ((Z4oQ8):K), a Table 2 entry of the Q8,Z4oQ8 column.

    The Z4 generator, the first of (Z4oQ8):K, inverts Z_{3^m} and every
    other generator centralizes it, so this is (Z_{3^m}:Z4) o (Q8:K) built
    with no quotient.
    """
    H = _table1_entry(K, roles, "Z4oQ8")
    A = cyclic_group(3**m)
    a = A.generators[0]
    return semidirect_product(A, H, [[a.inverse()]] + [[a]] * (len(H.generators) - 1)).group


def _build_table_entry(table: int, case: str, column: str, ell: int) -> PermGroup:
    if table == 1:
        B, roles = _table1_acting_group(case, ell)
        return _table1_entry(B, roles, column)

    # Table 2
    first = column == "Z2^2,Z2^3"
    if case == "2.1":
        if first:
            return direct_product(dihedral_group(3**ell), alternating_group(4)).group
        return _z3m_by_z4_circ_q8(ell, cyclic_group(3), ["r3"])
    if case == "2.2":
        if first:
            F, sigma3, _ = _klein_auts(2)
            left = semidirect_product(F, cyclic_group(3**ell), [sigma3]).group
            return direct_product(left, dihedral_group(3)).group
        return _z3m_by_z4_circ_q8(1, cyclic_group(3**ell), ["r3"])
    if case == "2.3":
        twist = 3 ** (ell - 1) + 1
        if first:
            D = dihedral_group(3**ell)
            F = elementary_abelian(2, 2)
            A = direct_product(D, F).group
            rot, refl, e1, e2 = A.generators
            # modular twist on the dihedral rotation, 3-cycle on the Klein part
            action = [[rot**twist, refl, e2, e1 * e2]]
            return semidirect_product(A, cyclic_group(3), action).group
        A = cyclic_group(3**ell)
        Am = semidirect_product(A, cyclic_group(4), [[A.generators[0].inverse()]])
        Q, _, _ = _quaternion_auts()
        C = central_product(
            Am.group, Q, [(Am.right_gens[0] ** 2, Q.generators[0] ** 2)],
            compress_result=False,
        )
        a_img, d_img = C.left_gens
        u_img, v_img = C.right_gens
        action = [[a_img**twist, d_img, v_img, u_img * v_img]]
        return semidirect_product(C.group, cyclic_group(3), action).group
    if case == "2.4":
        if first:
            return direct_product(dihedral_group(3**ell), symmetric_group(4)).group
        return _z3m_by_z4_circ_q8(ell, dihedral_group(3), ["r3", "inv"])
    if case == "2.5":
        if first:
            F, sigma3, tau = _klein_auts(2)
            left = _semidirect_by_roles(F, sigma3, tau, dihedral_group(3**ell), ["r3", "inv"]).group
            return direct_product(left, dihedral_group(3)).group
        return _z3m_by_z4_circ_q8(1, dihedral_group(3**ell), ["r3", "inv"])
    raise FamilyParameterError(f"unknown Table 2 case {case!r}")


