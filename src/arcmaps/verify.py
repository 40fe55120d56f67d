"""One-command machine verification of the checkable structural claims.

Each claim replays a statement as exhaustive computation on concrete
instances: non-existence claims become complete searches with an exhaustion
certificate, existence claims produce witnesses, and structural claims are
re-validated by direct computation.  A refuted report carries a
counterexample that the triples/structure modules can re-check.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Optional

from .families import (
    TABLE1_CASES,
    TABLE1_COLUMNS,
    TABLE2_CASES,
    TABLE2_COLUMNS,
    TWO_GROUP_CASES,
    _table1_entry,
    _z4_circ,
    build_family,
    build_table_group,
    build_two_group,
    expected_two_group_flags,
    family_chi_law,
    table_min_ell,
)
from .groups import PermGroup, intersection
from .maps import (
    build_map,
    euler_characteristic_closed,
    euler_characteristic_counted,
    is_cartesian_square_of_cycle,
    is_multicycle,
    underlying_graph,
)
from .products import direct_product, semidirect_product
from .standard import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    elementary_abelian,
    frobenius_group,
    gl2_3,
    inverted_cyclic_pair,
    quaternion_central_z4,
    quaternion_group,
    symmetric_group,
)
from .structure import (
    is_cyclic,
    is_dihedral,
    is_nilpotent,
    isomorphic,
    maximal_subgroups_p_group,
    o_p,
    o_pi,
    fitting,
    hall_subgroup,
    satisfies_hypothesis,
    sylow,
)
from .triples import (
    GeneratingTriple,
    LemmaViolationError,
    count_involutions,
    exhaustive_search_count,
    exists,
    find_any,
    quotient_behavior,
    search_space_size,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    info: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {"name": self.name, "ok": self.ok, "info": self.info}


@dataclass
class VerificationReport:
    claim: str
    status: str  # "confirmed" | "refuted"
    checks: list[CheckResult]
    certificate: dict
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status != "refuted"

    def to_record(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "checks": [c.to_record() for c in self.checks],
            "certificate": self.certificate,
        }


ClaimEvidence = tuple[list[CheckResult], dict]  # a claim body's checks and certificate

# claim id -> (description, runner), in definition order
CLAIMS: dict[str, tuple[str, Callable[[int], VerificationReport]]] = {}


def _claim(cid: str, description: str):
    """Register a claim body under `cid` and return its runner.

    The body returns its checks and certificate; the runner times it and
    reports the claim confirmed when every check is ok, refuted otherwise.
    """

    def register(body: Callable[..., ClaimEvidence]) -> Callable[..., VerificationReport]:
        @functools.wraps(body, assigned=("__module__", "__name__", "__qualname__", "__doc__"))
        def run(*args, **kwargs) -> VerificationReport:
            t0 = time.time()
            checks, certificate = body(*args, **kwargs)
            status = "confirmed" if all(c.ok for c in checks) else "refuted"
            return VerificationReport(cid, status, checks, certificate, elapsed=time.time() - t0)

        CLAIMS[cid] = (description, run)
        return run

    return register


# -- section 3 constructions ----------------------------------------------------------


@_claim("families", "map families: triples valid, characteristic laws, underlying graphs")
def verify_families(lmax: int = 2) -> ClaimEvidence:
    """Triple validity, order and characteristic laws, graph recognition."""
    checks = []
    samples = {
        "C31": (5, 7, 9),
        "C33": (2, 3, 4, 5),
        "C34": (3, 5),
    }
    for family, ns in samples.items():
        for n in ns:
            inst = build_family(family, n)  # validates order and triple
            m = build_map(inst.group, inst.triple)
            chi_closed = euler_characteristic_closed(inst.group, inst.triple).value
            chi_counted = euler_characteristic_counted(m)
            law = family_chi_law(family, n)
            ok = chi_closed == chi_counted == law
            graph = underlying_graph(m)
            if family == "C34":
                gok = is_cartesian_square_of_cycle(graph) == n
            else:
                gok = is_multicycle(graph) == (n, n)
            checks.append(
                CheckResult(
                    f"{family}(n={n})",
                    ok and gok,
                    {"chi": chi_closed, "law": law, "graph_ok": gok},
                )
            )
    return checks, {"instances": len(checks)}


# -- largest-prime Sylow normality (odd order) ---------------------------------------


@_claim("lemma-5.1", "odd order: the largest-prime Sylow subgroup is normal (instances)")
def verify_largest_prime_normal(lmax: int = 2) -> ClaimEvidence:
    checks = []
    instances = [
        ("Z7:Z3", frobenius_group(7, 3), 7),
        ("Z13:Z3", frobenius_group(13, 3), 13),
        ("Z5xZ3", direct_product(cyclic_group(5), cyclic_group(3)).group, 5),
        (
            "Z5x(Z7:Z3)",
            direct_product(cyclic_group(5), frobenius_group(7, 3)).group,
            7,
        ),
    ]
    for name, G, p in instances:
        hyp = satisfies_hypothesis(G)
        S = hyp.sylow_of(p)
        ok = hyp.ok and G.order % 2 == 1 and G.is_normal(S)
        checks.append(CheckResult(name, ok, {"p": p, "sylow_order": S.order}))
    return checks, {"instances": len(checks)}


# -- coprime {p,q} direct products ----------------------------------------------------


def _catalog_aut_order(case: str, p: int, ell: int) -> int:
    # automorphism group orders of the odd-p catalog members
    if case == "1":
        return (p - 1) * p ** (ell - 1)
    if case == "2":
        if ell == 1:
            return (p * p - 1) * (p * p - p)
        return p ** (ell + 1) * (p - 1) ** 2
    raise ValueError(case)


@_claim("lemma-5.2", "coprime {p,q}-groups are direct products (instances and control)")
def verify_coprime_direct(lmax: int = 2) -> ClaimEvidence:
    """{p,q}-groups with q coprime to p(p^2-1) must split as direct products."""
    checks = []
    p, q = 13, 5
    coprime = (p * (p * p - 1)) % q != 0
    checks.append(CheckResult("q does not divide p(p^2-1)", coprime, {"p": p, "q": q}))
    aut_ok = all(
        _catalog_aut_order(case, p, ell) % q != 0
        for case in ("1", "2")
        for ell in (1, 2)
    )
    checks.append(CheckResult("no order-q automorphisms of the p-catalog", aut_ok, {}))
    # spot-check the aut-order formula by brute force at p=3, ell=2 (cyclic):
    auts = _count_automorphisms_cyclic(9)
    checks.append(CheckResult("aut formula spot check |Aut(Z9)| = 6", auts == 6, {"count": auts}))
    G = direct_product(cyclic_group(p), cyclic_group(q)).group
    sp, sq = sylow(G, p), sylow(G, q)
    split = G.is_normal(sp) and G.is_normal(sq) and sp.order * sq.order == G.order
    checks.append(CheckResult("Z13 x Z5 is the direct product of its Sylows", split, {}))
    # control: q | p'^2 - 1 admits a non-direct extension
    H = frobenius_group(11, 5)
    hyp = satisfies_hypothesis(H).ok
    nondirect = not H.is_normal(sylow(H, 5))
    checks.append(
        CheckResult(
            "control Z11:Z5 (5 | 11^2-1) is not direct",
            hyp and nondirect,
            {"order": H.order},
        )
    )
    return checks, {"instances": len(checks)}


def _count_automorphisms_cyclic(n: int) -> int:
    # number of generators of Z_n, counted by brute force
    G = cyclic_group(n)
    return sum(1 for g in G.elements if g.order() == n)


# -- commutator/center facts for twisted cyclic groups --------------------------------


@_claim("lemma-5.3", "twisted cyclic: H <= X' and H meets Z(X) trivially")
def verify_twisted_cyclic_facts(lmax: int = 2) -> ClaimEvidence:
    """H <= X' and H meets the center trivially in X = Z_{p^l} : <x>."""
    checks = []
    instances = [(5, 1, 4), (5, 1, 2), (7, 1, 3), (3, 2, 8), (5, 2, 24)]
    for p, ell, m in instances:
        A = cyclic_group(p**ell)
        a = A.generators[0]
        # order of m modulo p^l
        k, x = 1, m % (p**ell)
        while x != 1:
            x = (x * m) % (p**ell)
            k += 1
        X = semidirect_product(A, cyclic_group(k), [[a**m]]).group
        H = X.subgroup([X.generators[0]])
        derived = X.commutator_subgroup()
        center = X.center()
        contains = all(h in derived for h in H.elements)
        meets_trivially = intersection(H, center).order == 1
        checks.append(
            CheckResult(
                f"p={p} ell={ell} twist={m}",
                contains and meets_trivially,
                {"|X'|": derived.order, "|Z(X)|": center.order},
            )
        )
    return checks, {"instances": len(checks)}


# -- Fitting-is-a-2-group catalog ------------------------------------------------------


def _z2_cubed_by(B: PermGroup) -> PermGroup:
    """Z2^3:B, B's first generator acting with order 7 and its second, if
    any, with order 3 (squaring on the field basis 1, x, x^2 of F_8)."""
    E = elementary_abelian(2, 3)
    g = list(E.generators)
    m7 = [g[1], g[2], g[0] * g[1]]
    m3 = [g[0], g[2], g[1] * g[2]]
    return semidirect_product(E, B, [m7, m3][: len(B.generators)]).group


@_claim("lemma-5.5", "Fitting-is-a-2-group catalog with index-2 witnesses")
def verify_fitting_catalog(lmax: int = 2) -> ClaimEvidence:
    checks = []
    # the two {2,7}-type groups
    G1 = _z2_cubed_by(cyclic_group(7))
    G2 = _z2_cubed_by(frobenius_group(7, 3, 2))
    for name, G in (("Z2^3:Z7", G1), ("Z2^3:(Z7:Z3)", G2)):
        fit = fitting(G)
        ok = (
            satisfies_hypothesis(G).ok
            and fit.order == 8
            and set(fit.prime_divisors()) == {2}
        )
        checks.append(CheckResult(name, ok, {"fitting_order": fit.order}))
    # F:Z3 and F:S3 with the stated index-2 witnesses in the Sylow 2-subgroup
    witness_kind = {"Z2^2": "Z4", "Z2^3": "D8", "Q8": "Z8", "Z4oQ8": "D16"}
    for column in ("Z2^2", "Z2^3", "Q8", "Z4oQ8"):
        f_order = {"Z2^2": 4, "Z2^3": 8, "Q8": 8, "Z4oQ8": 16}[column]
        for with_s3, B, roles in (
            (False, cyclic_group(3), ["r3"]),
            (True, dihedral_group(3), ["r3", "inv"]),
        ):
            G = _table1_entry(B, roles, column)
            fit = fitting(G)
            name = f"{column}:{'S3' if with_s3 else 'Z3'}"
            hyp = satisfies_hypothesis(G)
            ok = hyp.ok and fit.order == f_order
            info = {"order": G.order, "fitting_order": fit.order}
            if with_s3:
                S2 = hyp.sylow_of(2)
                want = witness_kind[column]
                found = False
                for M in maximal_subgroups_p_group(S2, 2):
                    if want in ("Z4", "Z8") and is_cyclic(M) and M.order == int(want[1:]):
                        found = True
                    if want in ("D8", "D16") and is_dihedral(M) and M.order == int(want[1:]):
                        found = True
                ok = ok and found
                info["index2_witness"] = want if found else "missing"
            checks.append(CheckResult(name, ok, info))
    return checks, {"instances": len(checks)}


# -- the tables as a constructible catalog ---------------------------------------------


def _column_shape_models(table: int, col: str):
    shapes = {
        "Z2^2": lambda: elementary_abelian(2, 2),
        "Z2^3": lambda: elementary_abelian(2, 3),
        "Q8": lambda: quaternion_group(8),
        "Z4oQ8": lambda: quaternion_central_z4(16),
    }
    if table == 1:
        return shapes[col](), shapes[col]()
    first, second = col.split(",")
    return shapes[first](), shapes[second]()


@_claim("lemma-5.6", "tables catalog: symbolic orders and the prime-index property")
def verify_tables_catalog(lmax: int = 2) -> ClaimEvidence:
    """Symbolic order, the prime-index property, and (at the base level) the
    column invariants: the largest normal 2-subgroup matches the column, and
    so does the largest normal 2-subgroup of the quotient by the 3-core."""
    checks = []
    deep = 0
    for table, cases, cols in ((1, TABLE1_CASES, TABLE1_COLUMNS), (2, TABLE2_CASES, TABLE2_COLUMNS)):
        for case in cases:
            for col in cols:
                for ell in range(table_min_ell(table, case), lmax + 1):
                    G = build_table_group(table, case, col, ell)  # order asserted inside
                    ok = satisfies_hypothesis(G).ok
                    info = {"order": G.order}
                    if ell == 1:
                        f2_model, o2bar_model = _column_shape_models(table, col)
                        F2 = o_p(G, 2)
                        F3 = o_p(G, 3)
                        fit = fitting(G)
                        quot = G if F3.order == 1 else G.quotient(F3).group
                        o2bar = o_p(quot, 2)
                        shape_ok = (
                            isomorphic(F2, f2_model)
                            and isomorphic(o2bar, o2bar_model)
                            and fit.order == F2.order * F3.order
                        )
                        ok = ok and shape_ok
                        info["O2"] = F2.order
                        info["O2_of_quotient"] = o2bar.order
                        deep += 1
                    checks.append(
                        CheckResult(f"T{table}({case},{col}) ell={ell}", ok, info)
                    )
    return checks, {"instances": len(checks), "shape_checked": deep}


# -- the {2,3,7} split -----------------------------------------------------------------


@_claim("lemma-5.7", "{2,3,7}-groups split as Z2^3:(Z7:Z3) (instance)")
def verify_237_split(lmax: int = 2) -> ClaimEvidence:
    checks = []
    G = _z2_cubed_by(frobenius_group(7, 3, 2))
    hyp = satisfies_hypothesis(G)
    checks.append(CheckResult("hypothesis", hyp.ok, {"order": G.order}))
    K2 = hyp.sylow_of(2)
    checks.append(CheckResult("K2 = Z2^3 normal", G.is_normal(K2) and K2.order == 8, {}))
    K7 = hyp.sylow_of(7)
    K3 = hyp.sylow_of(3)
    checks.append(
        CheckResult("K7 and K3 are not normal", not G.is_normal(K7) and not G.is_normal(K3), {})
    )
    comp = hall_subgroup(G, (3, 7))
    checks.append(
        CheckResult(
            "a Hall {3,7} complement exists",
            comp.order == 21 and intersection(comp, K2).order == 1,
            {"complement_order": comp.order},
        )
    )
    return checks, {"instances": len(checks)}


# -- quotient behavior of generating data ---------------------------------------------


def _normal_subgroups_small(G: PermGroup) -> list[PermGroup]:
    """Normal closures of single elements, deduplicated; proper ones only."""
    seen = {}
    for g in G.elements:
        if g.is_identity():
            continue
        N = G.normal_closure([g])
        seen.setdefault(frozenset(h.images for h in N.elements), N)
    return [N for N in seen.values() if N.order < G.order]


@_claim("lemma-6.1", "quotients of generating data stay valid or collapse as allowed")
def verify_quotient_behavior(lmax: int = 2) -> ClaimEvidence:
    checks = []
    corpus: list[tuple[str, PermGroup, GeneratingTriple]] = []
    for family, n in (("C31", 5), ("C33", 2), ("C33", 3), ("C34", 3)):
        inst = build_family(family, n)
        corpus.append((f"{family}({n})", inst.group, inst.triple))
    s4 = symmetric_group(4)
    corpus.append(("S4 regular", s4, find_any(s4, "regular")))
    gl = gl2_3()
    corpus.append(("GL(2,3) reversing", gl, find_any(gl, "reversing")))
    d12 = dihedral_group(6)
    corpus.append(("D12 rotary", d12, find_any(d12, "rotary")))
    a4 = alternating_group(4)
    corpus.append(("A4 rotary", a4, find_any(a4, "rotary")))
    total_quotients = 0
    for name, G, triple in corpus:
        branches = {"same-kind": 0, "collapsed": 0}
        ok = triple is not None
        if ok:
            try:
                for N in _normal_subgroups_small(G):
                    rep = quotient_behavior(G, triple, N)
                    branches[rep.branch] += 1
                    total_quotients += 1
            except LemmaViolationError as err:
                ok = False
                checks.append(CheckResult(name, False, {"violation": str(err)}))
                continue
        checks.append(CheckResult(name, ok, dict(branches)))
    # parity: no generating data of any kind in odd-order groups
    odd = frobenius_group(7, 3)
    parity_ok = not any(exists(odd, k) for k in ("regular", "reversing", "rotary"))
    checks.append(CheckResult("odd order has no generating data", parity_ok, {"order": odd.order}))
    return checks, {"quotients_checked": total_quotients}


# -- no regular triple on GL(2,3) and its central extension ----------------------------


def z4_circ_gl23() -> PermGroup:
    G = gl2_3()
    return _z4_circ(G, next(g for g in G.center().elements if g.order() == 2))


@_claim("lemma-6.2", "GL(2,3) and Z4 o GL(2,3) admit no regular triple; census 19")
def verify_gl23_no_regular(lmax: int = 2) -> ClaimEvidence:
    """No regular triple in GL(2,3) or Z4 o GL(2,3), by exhaustive count.

    `examined` is the number of candidates tested plus the raw size of
    every block skipped as conjugate to a rejected one; the claim holds
    when no witness is found and it equals `search_space_size`.
    """
    checks = []
    G = gl2_3()
    K = z4_circ_gl23()
    space = {}
    for name, group in (("GL(2,3)", G), ("Z4oGL(2,3)", K)):
        witness, examined = exhaustive_search_count(group, "regular")
        want = search_space_size(group, "regular")
        space[name] = {"candidates": want, "examined": examined}
        checks.append(
            CheckResult(
                f"no regular triple in {name}",
                witness is None and examined == want,
                {"order": group.order, "examined": examined},
            )
        )
    checks.append(
        CheckResult(
            "involution census of Z4 o GL(2,3) is 19",
            count_involutions(K) == 19,
            {"count": count_involutions(K)},
        )
    )
    minus1 = next(g for g in K.center().elements if g.order() == 2)
    quot = K.quotient(K.subgroup([minus1]))
    model = direct_product(cyclic_group(2), symmetric_group(4)).group
    checks.append(
        CheckResult(
            "quotient by the central involution is Z2 x S4",
            quot.order == 48 and isomorphic(quot.group, model),
            {"quotient_order": quot.order},
        )
    )
    checks.append(
        CheckResult(
            "both groups do admit reversing triples",
            exists(G, "reversing") and exists(K, "reversing"),
            {},
        )
    )
    return checks, {"search_space": space}


# -- no rotary pair on the inverted abelian groups -------------------------------------


@_claim("lemma-6.3", "(Z_{3^l} x Z3):Z2 admits no rotary pair; dihedral control does")
def verify_inverted_abelian_no_rotary(lmax: int = 3) -> ClaimEvidence:
    """No rotary pair on (Z_{3^l} x Z3):Z2, by exhaustive count, with D18 as
    a control that has one.

    `examined` is the number of candidates tested plus the raw size of
    every skipped block (the pairs of an alpha conjugate to a power of a
    rejected alpha); the claim holds when no witness is found and it
    equals `search_space_size`.
    """
    checks = []
    spaces = {}
    for ell in range(1, max(lmax, 3) + 1):
        G = inverted_cyclic_pair(3**ell, 3)
        witness, examined = exhaustive_search_count(G, "rotary")
        want = search_space_size(G, "rotary")
        spaces[f"ell={ell}"] = {"candidates": want, "examined": examined}
        checks.append(
            CheckResult(
                f"(Z_{3 ** ell} x Z3):Z2 has no rotary pair",
                witness is None and examined == want,
                {"order": G.order, "examined": examined},
            )
        )
    control = dihedral_group(9)
    found = find_any(control, "rotary")
    checks.append(
        CheckResult(
            "control: D18 has a rotary pair",
            found is not None,
            {"witness": found.to_record() if found else None},
        )
    )
    return checks, {"search_space": spaces}


# -- the 2-group triple/pair audit -----------------------------------------------------


@_claim("prop-4.2", "2-group catalog: reversing/regular/rotary flags match the lists")
def verify_two_group_audit(lmax: int = 2) -> ClaimEvidence:
    checks = []
    for ell in range(1, lmax + 1):
        for case in TWO_GROUP_CASES:
            G = build_two_group(case, ell)
            got = (
                exists(G, "reversing"),
                exists(G, "regular"),
                exists(G, "rotary"),
            )
            want = expected_two_group_flags(case, ell)
            checks.append(
                CheckResult(
                    f"case {case} ell={ell}",
                    got == want,
                    {"order": G.order, "got": list(got), "want": list(want)},
                )
            )
    return checks, {"instances": len(checks)}


# -- solvable decomposition on instances ------------------------------------------------


def _largest_odd_hall(G: PermGroup) -> PermGroup:
    """Largest normal Hall subgroup of odd order.

    Starts from the odd core and peels off any prime whose part is below the
    full p-part of |G|: no normal odd Hall subgroup can involve such a prime
    (it would sit inside the odd core with a bigger p-part).
    """
    primes = {p for p in G.prime_divisors() if p != 2}
    while True:
        H = o_pi(G, primes)
        if gcd(H.order, G.order // H.order) == 1:
            return H
        deficient = {
            p for p in primes if H.order % p == 0 and (G.order // H.order) % p == 0
        }
        # also drop primes that vanished from H entirely
        deficient |= {p for p in primes if H.order % p != 0}
        primes -= deficient


@dataclass(frozen=True)
class Decomposition:
    H: PermGroup
    K: PermGroup
    A: PermGroup
    B: PermGroup

    def to_record(self) -> dict:
        return {
            "|H|": self.H.order,
            "|K|": self.K.order,
            "|A|": self.A.order,
            "|B|": self.B.order,
        }


def find_decomposition(G: PermGroup) -> Optional[Decomposition]:
    """G = (A:B):K with A abelian avoiding Z(H), B nilpotent, K a coprime complement.

    G must be solvable (`hall_subgroup` raises ValueError otherwise).  H is
    the largest normal odd-order Hall subgroup and K the Hall subgroup for
    the primes of |G:H|, so the complement is exact.  A is sought among the
    normal closures of single elements inside H that are abelian and meet
    Z(H) trivially, the first of each order, largest first.  A candidate
    whose order is not coprime to its index in H is skipped; otherwise B is
    the Hall subgroup of H for the primes of |H:A|.  None means that search
    found nothing: a limit of the A search, not a proof of non-existence.
    """
    H = _largest_odd_hall(G)
    q = G.order // H.order
    K = hall_subgroup(G, [p for p in G.prime_divisors() if q % p == 0])
    if H.order == 1:
        triv = G.trivial_subgroup()
        return Decomposition(H, K, triv, H)
    z_h = H.center()
    candidates = {1: H.trivial_subgroup()}
    for N in _normal_subgroups_small(H):
        if N.is_abelian() and intersection(N, z_h).order == 1:
            candidates.setdefault(N.order, N)
    for order in sorted(candidates, reverse=True):
        A = candidates[order]
        index = H.order // order
        if gcd(order, index) != 1:
            continue
        B = hall_subgroup(H, [p for p in H.prime_divisors() if index % p == 0])
        if not is_nilpotent(B):
            continue
        if A.order > 1 and not H.is_normal(A):
            continue
        return Decomposition(H, K, A, B)
    return None


@_claim("theorem-1.1", "solvable decomposition (A:B):K on instances")
def verify_decomposition_instances(lmax: int = 2) -> ClaimEvidence:
    checks = []
    instances: list[tuple[str, PermGroup]] = [
        ("Z7:Z3", frobenius_group(7, 3)),
        ("Z15", cyclic_group(15)),
        ("Z5x(Z7:Z3)", direct_product(cyclic_group(5), frobenius_group(7, 3)).group),
        ("C31(5) group", build_family("C31", 5).group),
        ("S4", symmetric_group(4)),
        ("GL(2,3)", gl2_3()),
        ("A4", alternating_group(4)),
    ]
    instances.append(("Z2^3:(Z7:Z3)", _z2_cubed_by(frobenius_group(7, 3, 2))))
    # odd core Z7:Z3 is normal but not Hall here; H must shrink to Z7
    instances.append(
        ("(Z7:Z3)xS4", direct_product(frobenius_group(7, 3), symmetric_group(4)).group)
    )
    for name, G in instances:
        if not satisfies_hypothesis(G).ok or not G.is_solvable():
            checks.append(CheckResult(name, False, {"precondition": "failed"}))
            continue
        dec = find_decomposition(G)
        if dec is None:
            checks.append(CheckResult(name, False, {"decomposition": "exhausted"}))
            continue
        ok = (
            dec.A.is_abelian()
            and is_nilpotent(dec.B)
            and gcd(dec.H.order, dec.K.order) == 1
            and dec.A.order * dec.B.order == dec.H.order
            and intersection(dec.A, dec.H.center()).order == 1
            and dec.H.order * dec.K.order == G.order
        )
        checks.append(CheckResult(name, ok, dec.to_record()))
    return checks, {"instances": len(checks)}


# -- the K-group audit -----------------------------------------------------------------


def _k_groups_regular(ell: int) -> list[tuple[str, PermGroup]]:
    xs = [
        ("S4", symmetric_group(4)),
        (f"Z2^2:D{2 * 3 ** (ell + 1)}", build_table_group(1, "1.2", "Z2^2", ell)),
        (f"(Z{3 ** ell}xA4):Z2", build_table_group(1, "1.5", "Z2^2", ell)),
        (f"(Z3x(Z2^2:Z{3 ** ell})):Z2", build_table_group(1, "1.6", "Z2^2", ell)),
    ]
    out = list(xs)
    for name, G in xs:
        out.append((f"{name} x Z2", direct_product(G, cyclic_group(2)).group))
    out.append((f"D{2 * 3 ** ell}xS4", build_table_group(2, "2.4", "Z2^2,Z2^3", ell)))
    out.append(
        (f"(Z2^2:D{2 * 3 ** ell})xD6", build_table_group(2, "2.5", "Z2^2,Z2^3", ell))
    )
    return out


def _k_groups_rotary(ell: int) -> list[tuple[str, PermGroup]]:
    k1 = _table1_entry(cyclic_group(3**ell), ["r3"], "Z2^2")
    return [
        (f"Z2^2:Z{3 ** ell}", k1),
        (f"Z2x(Z2^2:Z{3 ** ell})", direct_product(cyclic_group(2), k1).group),
        (f"Z4o(Q8:Z{3 ** ell})", _table1_entry(cyclic_group(3**ell), ["r3"], "Z4oQ8")),
        (f"Z2^3:Z{7 ** ell}", _z2_cubed_by(cyclic_group(7**ell))),
    ]


@_claim("theorem-1.2", "K-group audit: regular/rotary existence and exclusions")
def verify_k_group_audit(lmax: int = 2) -> ClaimEvidence:
    """Triple/pair existence over the K-group lists of the classification.

    The classification lists are necessary conditions, so a listed K either
    admits the generating data or is unrealizable: the search finds none and
    the quotient obstruction below is re-checked.  The members derived from
    cases (1.5)/(1.6) turn out to be unrealizable for regular maps: their
    quotient by the largest normal 2-subgroup is an inverted
    (Z_{3^l} x Z_3):Z_2, which has no commuting pair of distinct
    involutions, so no regular triple can project down.  Each unrealizable
    member carries that quotient obstruction, re-checked, in its
    certificate; the claim is refuted only if a search outcome contradicts
    the classification itself.  The searches skip every block of candidates
    conjugate to one already rejected; the exhaustive count of the
    unrealizable members (made in the acceptance test) is the number of
    candidates tested plus the raw size of every skipped conjugate block,
    and equals `search_space_size`.
    """
    checks = []
    realized: list[str] = []
    unrealizable: list[dict] = []
    for ell in range(1, lmax + 1):
        for name, G in _k_groups_regular(ell):
            got = exists(G, "regular")
            if got:
                realized.append(f"{name} (ell={ell})")
                checks.append(
                    CheckResult(
                        f"regular: {name} (ell={ell})", True, {"order": G.order}
                    )
                )
                continue
            obstruction = _regular_obstruction(G)
            checks.append(
                CheckResult(
                    f"regular: {name} (ell={ell}) unrealizable, obstruction verified",
                    obstruction is not None,
                    {"order": G.order, "obstruction": obstruction},
                )
            )
            unrealizable.append(
                {"member": f"{name} (ell={ell})", "obstruction": obstruction}
            )
        for name, G in _k_groups_rotary(ell):
            got = exists(G, "rotary")
            checks.append(
                CheckResult(
                    f"rotary: {name} (ell={ell})",
                    got,
                    {"order": G.order, "found": got},
                )
            )
        for case in ("1.5", "1.6"):
            G = build_table_group(1, case, "Z2^2", ell)
            got = exists(G, "rotary")
            checks.append(
                CheckResult(
                    f"exclusion: table 1 ({case}) has no rotary pair (ell={ell})",
                    not got,
                    {"order": G.order},
                )
            )
    certificate = {
        "instances": len(checks),
        "regular_realized": realized,
        "regular_unrealizable": unrealizable,
    }
    return checks, certificate


def _regular_obstruction(G: PermGroup) -> Optional[dict]:
    """A quotient witness forbidding regular triples: G/O_2 is an inverted
    odd abelian extension with no commuting distinct involutions and is not
    dihedral, so the quotient lemma rules the triple out."""
    O2 = o_p(G, 2)
    if O2.order == 1 or O2.order == G.order:
        return None
    Q = G.quotient(O2).group
    invs = [Q.elements[i] for i in Q.involution_indices()]
    commuting_pairs = sum(
        1
        for i, x in enumerate(invs)
        for z in invs[i + 1 :]
        if x * z == z * x
    )
    if commuting_pairs == 0 and not is_dihedral(Q) and Q.order > 2:
        return {
            "quotient_by": f"O_2 of order {O2.order}",
            "quotient_order": Q.order,
            "commuting_involution_pairs": 0,
            "dihedral": False,
        }
    return None


# -- running claims ------------------------------------------------------------------

ALIASES = {
    "thm-1.1": "theorem-1.1",
    "thm-1.2": "theorem-1.2",
    "decomposition": "theorem-1.1",
}


def run_claim(cid: str, lmax: int) -> VerificationReport:
    """Run the claim registered as `cid`.  The entry is read at call time, so
    a runner replaced in `CLAIMS` (to time each claim, say) is the one run."""
    return CLAIMS[cid][1](lmax)


def run_claims(selector: str, lmax: int = 2, workers: int = 1) -> list[VerificationReport]:
    """Run one claim or all of them; unknown selectors raise KeyError.

    Claims are independent, so 'all' can fan out over worker processes; the
    report order is always the registry order.
    """
    if selector != "all":
        key = ALIASES.get(selector, selector)
        if key not in CLAIMS:
            raise KeyError(selector)
        return [run_claim(key, lmax)]
    ids = list(CLAIMS)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_claim, ids, [lmax] * len(ids)))
    return [run_claim(cid, lmax) for cid in ids]
