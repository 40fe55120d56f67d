"""Concrete models of the standard small groups used throughout.

Dihedral groups of order 2n act on n points for n >= 3; below that the
natural action is unfaithful or undefined, so the regular representation is
used instead.  Generalized quaternion groups have no faithful action smaller
than the regular one, so they are built from the normal form u^i v^j.
"""

from __future__ import annotations

from typing import Optional

from .groups import PermGroup
from .perms import Permutation
from .products import central_product, direct_product, semidirect_product


def cyclic_group(n: int) -> PermGroup:
    """Z_n as a single n-cycle (degree 1 identity group for n = 1)."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return PermGroup(1, [Permutation.identity(1)])
    gen = Permutation._make(tuple((i + 1) % n for i in range(n)))
    return PermGroup(n, [gen])


def dihedral_gens(n: int) -> tuple[int, Permutation, Permutation]:
    """(degree, rotation, reflection) generating D_2n with rot^refl = rot^-1."""
    if n >= 3:
        rot = Permutation._make(tuple((i + 1) % n for i in range(n)))
        refl = Permutation._make(tuple((-i) % n for i in range(n)))
        return n, rot, refl
    if n == 2:
        # Klein group in its regular representation
        rot = Permutation._make((1, 0, 3, 2))
        refl = Permutation._make((2, 3, 0, 1))
        return 4, rot, refl
    if n == 1:
        return 2, Permutation.identity(2), Permutation._make((1, 0))
    raise ValueError("dihedral parameter must be >= 1")


def dihedral_group(n: int) -> PermGroup:
    """Dihedral group of order 2n (the Klein group for n = 2)."""
    degree, rot, refl = dihedral_gens(n)
    return PermGroup(degree, [rot, refl])


def quaternion_group(order: int) -> PermGroup:
    """Generalized quaternion of the given 2-power order >= 8, regular action.

    Presentation u^(order/4) = v^2, u^v = u^-1 with |u| = order/2; the square
    v^2 is the unique involution.
    """
    if order < 8 or order & (order - 1):
        raise ValueError("generalized quaternion order must be a 2-power >= 8")
    m = order // 2  # |u|
    # element (i, j) <-> u^i v^j; multiplication in normal form:
    # (u^i v)(u^k v^l) = u^(i-k) v^(1+l), v^2 = u^(m/2)
    def mul(a, b):
        i, j = a
        k, l = b
        if j == 0:
            i2, j2 = i + k, l
        else:
            i2, j2 = i - k, 1 + l
        if j2 == 2:
            i2, j2 = i2 + m // 2, 0
        return (i2 % m, j2)

    elems = [(i, j) for j in (0, 1) for i in range(m)]
    index = {e: x for x, e in enumerate(elems)}
    u = Permutation._make(tuple(index[mul(e, (1, 0))] for e in elems))
    v = Permutation._make(tuple(index[mul(e, (0, 1))] for e in elems))
    G = PermGroup(order, [u, v])
    if G.order != order:
        raise AssertionError("quaternion model has wrong order")
    return G


def elementary_abelian(p: int, k: int) -> PermGroup:
    """Z_p^k acting on k disjoint p-cycles."""
    if k < 1:
        raise ValueError("rank must be >= 1")
    gens = []
    for block in range(k):
        images = list(range(p * k))
        for i in range(p):
            images[block * p + i] = block * p + (i + 1) % p
        gens.append(Permutation._make(tuple(images)))
    return PermGroup(p * k, gens)


def symmetric_group(n: int) -> PermGroup:
    if n < 2:
        return PermGroup(max(n, 1), [Permutation.identity(max(n, 1))])
    swap = Permutation.from_cycles(n, [(0, 1)])
    cyc = Permutation._make(tuple((i + 1) % n for i in range(n)))
    return PermGroup(n, [swap, cyc])


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("alternating group needs degree >= 3")
    gens = [Permutation.from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        if n % 2:
            gens.append(Permutation._make(tuple((i + 1) % n for i in range(n))))
        else:
            gens.append(
                Permutation._make((0,) + tuple(1 + (i + 1) % (n - 1) for i in range(n - 1)))
            )
    return PermGroup(n, gens)


def _gl23_points() -> list[tuple[int, int]]:
    return [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]


def _matrix_perm(m: tuple[tuple[int, int], tuple[int, int]]) -> Permutation:
    pts = _gl23_points()
    index = {v: i for i, v in enumerate(pts)}

    def act(v):
        x, y = v
        return (
            (x * m[0][0] + y * m[1][0]) % 3,
            (x * m[0][1] + y * m[1][1]) % 3,
        )

    return Permutation._make(tuple(index[act(v)] for v in pts))


def gl2_3() -> PermGroup:
    """GL(2,3) of order 48 acting on the 8 nonzero vectors of F_3^2."""
    gens = [
        _matrix_perm(((1, 1), (0, 1))),
        _matrix_perm(((1, 0), (1, 1))),
        _matrix_perm(((2, 0), (0, 1))),
    ]
    G = PermGroup(8, gens)
    if G.order != 48:
        raise AssertionError("GL(2,3) model has wrong order")
    return G


def sl2_3() -> PermGroup:
    """SL(2,3) of order 24 on the same 8 points."""
    gens = [
        _matrix_perm(((1, 1), (0, 1))),
        _matrix_perm(((1, 0), (1, 1))),
    ]
    G = PermGroup(8, gens)
    if G.order != 24:
        raise AssertionError("SL(2,3) model has wrong order")
    return G


def modular_group(p: int, ell: int) -> PermGroup:
    """Z_{p^ell} : Z_p with a ** b = a^(p^(ell-1)+1); needs ell >= 2.

    For p = 2 this is the modular 2-group of order 2^(ell+1) (ell >= 3 for a
    non-dihedral, non-quaternion group).
    """
    if ell < 2:
        raise ValueError("modular group needs ell >= 2")
    A = cyclic_group(p**ell)
    B = cyclic_group(p)
    a = A.generators[0]
    model = semidirect_product(A, B, [[a ** (p ** (ell - 1) + 1)]])
    return model.group


def quaternion_central_z4(order: int) -> PermGroup:
    """Q_{order/2} o Z_4, identifying the unique involution with the Z_4 square."""
    if order < 16 or order & (order - 1):
        raise ValueError("order must be a 2-power >= 16")
    Q = quaternion_group(order // 2)
    Z4 = cyclic_group(4)
    u = Q.generators[0]
    central_inv = u ** (u.order() // 2)
    b2 = Z4.generators[0] ** 2
    model = central_product(Q, Z4, [(central_inv, b2)], compress_result=True)
    return model.group


def dihedral_times_z2(n: int) -> PermGroup:
    """D_2n x Z_2."""
    return direct_product(dihedral_group(n), cyclic_group(2)).group


def dihedral_twist(order: int) -> PermGroup:
    """D_{order/2} : Z_2 twisting the rotation a to a^(|a|/2 + 1), fixing the reflection.

    order = 2^(ell+4) gives the extension of the dihedral group of order
    2^(ell+3) by the automorphism a -> a^(2^(ell+1)+1).
    """
    if order < 32 or order & (order - 1):
        raise ValueError("order must be a 2-power >= 32")
    m = order // 4  # rotation order in the dihedral factor
    D = dihedral_group(m)
    rot, refl = D.generators
    C = cyclic_group(2)
    model = semidirect_product(D, C, [[rot ** (m // 2 + 1), refl]])
    return model.group


def inverted_cyclic_pair(m: int, n: int) -> PermGroup:
    """(Z_m x Z_n) : Z_2 with the involution inverting both cyclic factors.

    Natural action on m + n points (one cycle per factor, negated blockwise),
    much smaller than the regular model.
    """
    deg = m + n
    g1 = Permutation._make(
        tuple((i + 1) % m for i in range(m)) + tuple(range(m, deg))
    )
    g2 = Permutation._make(
        tuple(range(m)) + tuple(m + (i + 1) % n for i in range(n))
    )
    c = Permutation._make(
        tuple((-i) % m for i in range(m)) + tuple(m + (-i) % n for i in range(n))
    )
    G = PermGroup(deg, [g1, g2, c])
    if G.order != 2 * m * n:
        raise AssertionError("inverted cyclic pair has wrong order")
    return G


def frobenius_group(p: int, q: int, power: Optional[int] = None) -> PermGroup:
    """Z_p : Z_q with the acting generator raising a to an order-q power map."""
    if power is None:
        power = _order_q_residue(p, q)
    A = cyclic_group(p)
    B = cyclic_group(q)
    a = A.generators[0]
    return semidirect_product(A, B, [[a**power]]).group


def _order_q_residue(p: int, q: int) -> int:
    for m in range(2, p):
        k, x = 1, m
        while x != 1:
            x = (x * m) % p
            k += 1
        if k == q:
            return m
    raise ValueError(f"no residue of order {q} mod {p}")
