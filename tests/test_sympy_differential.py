"""The catalog groups against `sympy.combinatorics`, an independent
implementation.

Each group is built by the package and handed to sympy through its
generators.  For every Tables 1-2 entry at its minimum ell, the C31, C33
and C34 groups at n = 3 and 5, GL(2,3) and Z4oGL(2,3), both sides must
agree on the order, the prime divisors, the centre order and the orders of
the derived series.  `sylow(G, p)` is checked by letting sympy close its
generators: the closure must have order |G|_p.  (sympy's own
`sylow_subgroup(2)` takes 27 s or more on the two case 2.3 entries, of
degree 75 and 147, so it is not called.)
"""

import pytest
import sympy.combinatorics as sympy_pg
from sympy import factorint

from arcmaps.families import (
    TABLE1_CASES,
    TABLE1_COLUMNS,
    TABLE2_CASES,
    TABLE2_COLUMNS,
    build_family,
    build_table_group,
    table_min_ell,
)
from arcmaps.standard import gl2_3
from arcmaps.structure import sylow
from arcmaps.verify import z4_circ_gl23


def _table_entry(table, case, col):
    return lambda: build_table_group(table, case, col, table_min_ell(table, case))


def _family_group(family, n):
    return lambda: build_family(family, n).group


CORPUS = [
    pytest.param(_table_entry(table, case, col), id=f"T{table}({case},{col})")
    for table, cases, cols in ((1, TABLE1_CASES, TABLE1_COLUMNS), (2, TABLE2_CASES, TABLE2_COLUMNS))
    for case in cases
    for col in cols
]
CORPUS += [
    pytest.param(_family_group(family, n), id=f"{family}({n})")
    for family in ("C31", "C33", "C34")
    for n in (3, 5)
]
CORPUS += [pytest.param(gl2_3, id="GL(2,3)"), pytest.param(z4_circ_gl23, id="Z4oGL(2,3)")]


def to_sympy(gens):
    return sympy_pg.PermutationGroup([sympy_pg.Permutation(list(g.images)) for g in gens])


@pytest.mark.parametrize("build", CORPUS)
def test_invariants_agree_with_sympy(build):
    G = build()
    S = to_sympy(G.generators)
    primes = factorint(S.order())
    assert G.order == S.order()
    assert G.prime_divisors() == sorted(primes)
    assert G.center().order == S.center().order()
    assert [H.order for H in G.derived_series()] == [H.order() for H in S.derived_series()]
    for p, e in primes.items():
        assert to_sympy(sylow(G, p).generators).order() == p**e, p
