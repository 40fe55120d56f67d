"""Structural recognizers: Sylow subgroups, catalog tags, and the prime-index test.

The central predicate here asks whether every Sylow subgroup of a group has a
cyclic or dihedral subgroup of prime index.  Conventions frozen for it:

* the trivial subgroup counts as cyclic (so Z_p passes via its trivial
  index-p subgroup);
* the Klein four-group counts as dihedral, Z_2 does not.

One scan of the elements grows a maximal pi-subgroup
(`maximal_pi_subgroup`).  In a solvable group it is a Hall pi-subgroup
(`hall_subgroup`), which gives the complements of theorem 1.1, and in any
group its core is the largest normal pi-subgroup O_pi(G) (`o_pi`, and with
it O_p).  Sylow subgroups still climb normalizers, since their generators
feed the printed prime-index witnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Collection, Optional

from .groups import (
    PermGroup,
    core_within,
    extend_hom,
    greedy_generators,
    group_from_elements,
)
from .perms import Permutation
from . import standard


def _p_part(n: int, p: int) -> int:
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def _p_element(g: Permutation, p: int) -> Optional[Permutation]:
    """The p-part of g (a p-element power), or None if p does not divide |g|."""
    k = g.order()
    m = k
    while m % p == 0:
        m //= p
    if m == k:
        return None
    return g**m


def sylow(G: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup by greedy closure over p-elements.

    Starting from one p-element, repeatedly pick a p-element of the
    normalizer lying outside the current p-subgroup; joining it keeps the
    closure a p-group and at least multiplies the order by p, so the climb
    reaches the full p-part.  Deterministic: scans follow enumeration order.
    """
    target = _p_part(G.order, p)
    if target == 1:
        return G.trivial_subgroup()
    start = None
    for g in G.elements:
        pe = _p_element(g, p)
        if pe is not None:
            start = pe
            break
    S = G.subgroup([start])
    while S.order < target:
        N = G.normalizer(S)
        grown = False
        for g in N.elements:
            pe = _p_element(g, p)
            if pe is not None and pe not in S:
                S = G.subgroup(list(S.generators) + [pe])
                grown = True
                break
        if not grown:
            raise AssertionError("Sylow climb stalled below the full p-part")
    return S


def _is_pi(n: int, primes: Collection[int]) -> bool:
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def _pi_join(
    G: PermGroup,
    members: list[int],
    in_m: bytearray,
    gens: list[int],
    i: int,
    pi_order: list[bool],
) -> Optional[list[int]]:
    """The element indices that element i adds to the subgroup M, or None at
    the first one whose order is not a pi-number.

    M is given by its indices `members`, its membership mask `in_m` and the
    indices `gens` that generate it.  A BFS on indices through
    `G._mul_index`: the members need only be multiplied by element i, and
    each new element by every generator.
    """
    seen = bytearray(in_m)
    added: list[int] = []
    frontier, step = members, [i]
    while frontier:
        new = []
        for a in frontier:
            for k in step:
                b = G._mul_index(a, k)
                if not seen[b]:
                    if not pi_order[b]:
                        return None
                    seen[b] = 1
                    new.append(b)
        added += new
        frontier, step = new, gens + [i]
    return added


def maximal_pi_subgroup(G: PermGroup, primes: Collection[int]) -> PermGroup:
    """A maximal pi-subgroup of G, grown in one scan of G.elements.

    A pi-element joins when every element of the join has pi-order, which by
    Cauchy's theorem is exactly when the join is a pi-group.  Joins run on
    element indices and stop at the first element of non-pi order.  A join
    refused once stays refused as the subgroup grows, so the scan ends at a
    maximal pi-subgroup.
    """
    pi_order = [_is_pi(k, primes) for k in G.element_orders()]
    accepted: list[int] = []
    members = [0]  # the identity
    in_m = bytearray(G.order)
    in_m[0] = 1
    for i, ok in enumerate(pi_order):
        if in_m[i] or not ok:
            continue
        added = _pi_join(G, members, in_m, accepted, i, pi_order)
        if added is not None:
            accepted.append(i)
            members += added
            for a in added:
                in_m[a] = 1
    return G.subgroup([G.elements[i] for i in accepted])


def o_pi(G: PermGroup, primes: Collection[int]) -> PermGroup:
    """The largest normal pi-subgroup O_pi(G): the core of a maximal pi-subgroup.

    O_pi(G) lies in every maximal pi-subgroup M, and the core of M is a normal
    pi-subgroup, so the two are equal.
    """
    return core_within(G, maximal_pi_subgroup(G, primes))


def hall_subgroup(G: PermGroup, primes: Collection[int]) -> PermGroup:
    """A Hall pi-subgroup of a solvable group G, of order |G|_pi.

    In a solvable group every pi-subgroup lies in a Hall pi-subgroup
    (P. Hall), so a maximal pi-subgroup is one.  Other groups raise
    ValueError rather than return a maximal pi-subgroup of smaller order.
    """
    if not G.is_solvable():
        raise ValueError("Hall subgroups are computed for solvable groups only")
    return G if _is_pi(G.order, primes) else maximal_pi_subgroup(G, primes)


def o_p(G: PermGroup, p: int) -> PermGroup:
    """The largest normal p-subgroup."""
    return o_pi(G, (p,))


def fitting(G: PermGroup) -> PermGroup:
    """Largest nilpotent normal subgroup: the product of the o_p over p | |G|."""
    gens: list[Permutation] = []
    for p in G.prime_divisors():
        gens.extend(o_p(G, p).generators)
    if not gens:
        return G.trivial_subgroup()
    return G.subgroup(gens)


def is_cyclic(G: PermGroup) -> bool:
    n = G.order
    return any(k == n for k in G.element_orders())


def is_dihedral(G: PermGroup) -> bool:
    """Dihedral of order 2n, n >= 2; the Klein group counts, Z_2 does not."""
    order = G.order
    if order < 4 or order % 2:
        return False
    n = order // 2
    orders = G.element_orders()
    candidates = [G.elements[i] for i, k in enumerate(orders) if k == n]
    for a in candidates:
        A = G.subgroup([a])
        for i, k in enumerate(orders):
            if k != 2:
                continue
            t = G.elements[i]
            if t in A:
                continue
            if a**t == a.inverse():
                return True
    return False


def is_generalized_quaternion(G: PermGroup) -> bool:
    """Matches u^(2^(l-1)) = v^2, u^v = u^-1 with a unique involution; order >= 8."""
    order = G.order
    if order < 8 or order & (order - 1):
        return False
    if len(G.involution_indices()) != 1:
        return False
    orders = G.element_orders()
    m = order // 2
    for i, k in enumerate(orders):
        if k != m:
            continue
        u = G.elements[i]
        U = G.subgroup([u])
        half = u ** (m // 2)
        for v in G.elements:
            if v in U:
                continue
            if v * v == half and u**v == u.inverse():
                return True
        # a 2-group with a unique involution is cyclic or generalized
        # quaternion, so one maximal cyclic candidate settles the question
        return False
    return False


def is_nilpotent(G: PermGroup) -> bool:
    """Nilpotent iff every Sylow subgroup is normal."""
    return all(G.is_normal(sylow(G, p)) for p in G.prime_divisors())


def frattini_p_group(P: PermGroup, p: int) -> PermGroup:
    """Frattini subgroup of a p-group: normal closure of p-th powers and commutators."""
    gens = P.generators
    seed = [g**p for g in gens]
    seed += [a.commutator(b) for i, a in enumerate(gens) for b in gens[i + 1 :]]
    seed = [s for s in seed if not s.is_identity()]
    return P.normal_closure(seed)


def maximal_subgroups_p_group(P: PermGroup, p: int) -> list[PermGroup]:
    """All index-p subgroups of a p-group via hyperplanes of P/Frattini."""
    if P.order == 1:
        return []
    if P.order == p:
        return [P.trivial_subgroup()]
    phi = frattini_p_group(P, p)
    quot = P.quotient(phi)
    V = quot.group
    d = round(math.log(V.order, p))
    # coordinates on the elementary abelian quotient
    basis: list[Permutation] = []
    span = {V.identity.images: ()}  # images -> coordinate vector
    for g in V.elements:
        if g.images in span:
            continue
        # extend every known combination by powers of the new basis vector
        basis.append(g)
        new_span = {}
        for images, coords in span.items():
            x = Permutation._make(images)
            for e in range(p):
                new_span[x.images] = coords + (e,)
                x = x * g
        span = new_span
        if len(span) == V.order:
            break
    assert len(basis) == d
    coords = {images: vec for images, vec in span.items()}
    out = []
    # functionals up to scalar: first nonzero coefficient equal to 1
    for f in _functionals(p, d):
        keep = []
        for i, vimg in enumerate(V.elements):
            vec = coords[vimg.images]
            if sum(c * a for c, a in zip(f, vec)) % p == 0:
                keep.append(i)
        keep_set = set(keep)
        members = [
            P.elements[j] for j, lab in enumerate(quot.labels) if lab in keep_set
        ]
        out.append(group_from_elements(P.degree, members))
    return out


def _functionals(p: int, d: int):
    for f in itertools.product(range(p), repeat=d):
        nz = [c for c in f if c]
        if nz and nz[0] == 1:
            yield f


@dataclass(frozen=True)
class PrimeWitness:
    prime: int
    sylow_order: int
    ok: bool
    witness_kind: Optional[str] = None  # "trivial" | "cyclic" | "dihedral"
    witness_gens: tuple[str, ...] = ()
    candidates_tried: int = 0
    # the Sylow subgroup examined, kept for callers and left out of records
    sylow: Optional[PermGroup] = field(default=None, compare=False, repr=False)

    def to_record(self) -> dict:
        return {
            "prime": self.prime,
            "sylow_order": self.sylow_order,
            "ok": self.ok,
            "witness_kind": self.witness_kind,
            "witness_gens": list(self.witness_gens),
            "candidates_tried": self.candidates_tried,
        }


@dataclass(frozen=True)
class HypothesisReport:
    ok: bool
    witnesses: tuple[PrimeWitness, ...]

    def to_record(self) -> dict:
        return {"ok": self.ok, "per_prime": [w.to_record() for w in self.witnesses]}

    def sylow_of(self, p: int) -> PermGroup:
        """The Sylow p-subgroup examined for the prime p."""
        return next(w.sylow for w in self.witnesses if w.prime == p)


def satisfies_hypothesis(G: PermGroup) -> HypothesisReport:
    """Does every Sylow subgroup have a cyclic or dihedral subgroup of prime index?

    Vacuously true for the trivial group.  The witness report names, per
    prime, the first qualifying index-p subgroup found, or records that all
    index-p subgroups were exhausted.
    """
    witnesses = []
    ok = True
    for p in G.prime_divisors():
        S = sylow(G, p)
        if S.order == p:
            witnesses.append(
                PrimeWitness(p, S.order, True, "trivial", ("()",), 1, S)
            )
            continue
        maximals = maximal_subgroups_p_group(S, p)
        found = None
        kind = None
        for H in maximals:
            if is_cyclic(H):
                found, kind = H, "cyclic"
                break
        if found is None:
            for H in maximals:
                if is_dihedral(H):
                    found, kind = H, "dihedral"
                    break
        if found is None:
            ok = False
            witnesses.append(PrimeWitness(p, S.order, False, None, (), len(maximals), S))
        else:
            witnesses.append(
                PrimeWitness(
                    p,
                    S.order,
                    True,
                    kind,
                    tuple(g.cycle_string() for g in found.generators),
                    len(maximals),
                    S,
                )
            )
    return HypothesisReport(ok, tuple(witnesses))


# -- isomorphism testing ---------------------------------------------------------


def _generating_sequence(G: PermGroup) -> list[Permutation]:
    """A small generating sequence, highest element orders first."""
    orders = G.element_orders()
    pool = sorted(range(G.order), key=lambda i: (-orders[i], G.elements[i].images))
    return greedy_generators(G.degree, [G.elements[i] for i in pool], G.order)[0]


def isomorphic(A: PermGroup, B: PermGroup) -> bool:
    """Isomorphism test by generator-image backtracking with order pruning."""
    if A.order != B.order:
        return False
    if A.order_histogram() != B.order_histogram():
        return False
    if A.is_abelian() != B.is_abelian():
        return False
    if A.order == 1:
        return True
    gens = _generating_sequence(A)
    by_order: dict[int, list[Permutation]] = {}
    for i, k in enumerate(B.element_orders()):
        by_order.setdefault(k, []).append(B.elements[i])

    gen_orders = [g.order() for g in gens]

    def backtrack(pos: int, chosen: list[Permutation], span: PermGroup) -> bool:
        if pos == len(gens):
            phi = extend_hom(A, gens, chosen)
            return phi is not None and len(set(phi.values())) == A.order
        for cand in by_order.get(gen_orders[pos], []):
            if pos and cand in span:
                # a generating sequence never repeats inside the running span
                continue
            nxt = B.subgroup(chosen + [cand]) if chosen else B.subgroup([cand])
            if pos + 1 == len(gens) and nxt.order != B.order:
                continue
            if backtrack(pos + 1, chosen + [cand], nxt):
                return True
        return False

    return backtrack(0, [], B.trivial_subgroup())


# -- catalog recognition ------------------------------------------------------------


@dataclass(frozen=True)
class IsoClassTag:
    """Recognized isomorphism type; params identify the member of the family."""

    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        k, p = self.kind, self.params
        if k == "cyclic":
            return f"Z{p[0]}"
        if k == "cyclic_x_prime":
            return f"Z{p[0] ** p[1]}xZ{p[0]}"
        if k == "elem_abelian":
            return f"Z{p[0]}^{p[1]}"
        if k == "dihedral":
            return f"D{p[0]}"
        if k == "gen_quaternion":
            return f"Q{p[0]}"
        if k == "modular":
            return f"Z{p[0] ** p[1]}:Z{p[0]}(modular)"
        if k == "semidihedral":
            return f"SD{p[0]}"
        if k == "dihedral_x_2":
            return f"D{p[0]}xZ2"
        if k == "dihedral_twist":
            return f"D{p[0] // 2}:Z2"
        if k == "quaternion_o_z4":
            return f"Q{p[0] // 2}oZ4"
        return "other"

    def to_record(self) -> dict:
        return {"kind": self.kind, "params": list(self.params), "name": str(self)}


OTHER = IsoClassTag("other")


def recognize(G: PermGroup) -> IsoClassTag:
    """Match against the catalog of groups with a cyclic/dihedral prime-index subgroup.

    Abelian types are read off the order statistics.  Non-abelian 2-group
    classes beyond dihedral/quaternion are confirmed by explicit isomorphism
    against a reference model after an order-histogram prune.  Precedence is
    fixed so exactly one tag applies; in particular Z_p x Z_p recognizes as
    the ell = 1 member of the Z_{p^ell} x Z_p family, never as elementary
    abelian, which keeps the odd-p trichotomy (cyclic / Z_{p^ell} x Z_p /
    modular) literal for Sylow subgroups passing the prime-index test.
    """
    n = G.order
    if n == 1:
        return IsoClassTag("cyclic", (1,))
    if is_cyclic(G):
        return IsoClassTag("cyclic", (n,))
    ps = G.prime_divisors()
    if G.is_abelian():
        if len(ps) != 1:
            return OTHER
        p = ps[0]
        m = round(math.log(n, p))
        exponent = max(G.element_orders())
        if exponent == p:
            if m == 2:
                return IsoClassTag("cyclic_x_prime", (p, 1))
            return IsoClassTag("elem_abelian", (p, m))
        if exponent == p ** (m - 1):
            return IsoClassTag("cyclic_x_prime", (p, m - 1))
        return OTHER
    if is_dihedral(G):
        return IsoClassTag("dihedral", (n,))
    if is_generalized_quaternion(G):
        return IsoClassTag("gen_quaternion", (n,))
    if len(ps) == 1:
        p = ps[0]
        tag = _recognize_p_group_with_cyclic_max(G, p)
        if tag is not None:
            return tag
        if p == 2:
            for kind, builder in (
                ("quaternion_o_z4", standard.quaternion_central_z4),
                ("dihedral_x_2", lambda m: standard.dihedral_times_z2(m // 4)),
                ("dihedral_twist", standard.dihedral_twist),
            ):
                try:
                    ref = builder(n)
                except ValueError:
                    continue
                if G.order_histogram() == ref.order_histogram() and isomorphic(G, ref):
                    return IsoClassTag(kind, (n,))
    return OTHER


def _recognize_p_group_with_cyclic_max(G: PermGroup, p: int) -> Optional[IsoClassTag]:
    """Tags for non-abelian p-groups with a cyclic subgroup of index p."""
    n = G.order
    m = n // p  # required order of the cyclic part
    orders = G.element_orders()
    for i, k in enumerate(orders):
        if k != m:
            continue
        a = G.elements[i]
        A = G.subgroup([a])
        for b in G.elements:
            if b in A or b.order() != p:
                continue
            conj = a**b
            # a ** b = a^e for some unit e since <a> has index p, hence is normal
            e = _dlog(a, conj, m)
            if e is None:
                continue
            ell = round(math.log(m, p))
            if e % m == (p ** (ell - 1) + 1) % m:
                return IsoClassTag("modular", (p, ell))
            if p == 2 and e % m == (m // 2 - 1) % m:
                return IsoClassTag("semidihedral", (n,))
        return None
    return None


def _dlog(a: Permutation, target: Permutation, m: int) -> Optional[int]:
    x = a
    for e in range(1, m + 1):
        if x == target:
            return e
        x = x * a
    return None


def relabeled(G: PermGroup, sigma: Permutation) -> PermGroup:
    """The same group with points renamed by sigma (an isomorphic copy)."""
    if sigma.degree != G.degree:
        raise ValueError("relabeling permutation must match the degree")
    return PermGroup(G.degree, [g**sigma for g in G.generators], cap=G.order + 1)
