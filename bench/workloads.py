"""The benchmark's workloads: fixed `arcmaps` command lists and their inputs.

A command is an argv list for `arcmaps.cli.main`.  An argument written
`@name` is replaced by the path of the generator file built for input
`name`.  Inputs are built only through the package's public builders, so
a refactor of private helpers cannot break the benchmark, and each one is
relabelled by a permutation drawn from the seed: every generator is
conjugated by the same permutation and generator order is kept.  The
element enumeration order, and with it every search's work, is therefore
the same for every seed up to renaming of points.
"""

from __future__ import annotations

import random
from pathlib import Path


def _inputs_families() -> dict:
    from arcmaps.families import build_family

    return {
        "C31(15)": lambda: build_family("C31", 15).group,
        "C34(15)": lambda: build_family("C34", 15).group,
    }


def _inputs_exhaustion() -> dict:
    from arcmaps.families import build_table_group
    from arcmaps.products import direct_product
    from arcmaps.standard import cyclic_group, gl2_3, inverted_cyclic_pair
    from arcmaps.verify import z4_circ_gl23

    return {
        "T1(1.5)l1": lambda: build_table_group(1, "1.5", "Z2^2", 1),
        "T1(1.6)l1": lambda: build_table_group(1, "1.6", "Z2^2", 1),
        "T1(1.5)l1xZ2": lambda: direct_product(
            build_table_group(1, "1.5", "Z2^2", 1), cyclic_group(2)
        ).group,
        "T1(1.6)l2": lambda: build_table_group(1, "1.6", "Z2^2", 2),
        "GL(2,3)": gl2_3,
        "Z4oGL(2,3)": z4_circ_gl23,
        "(Z3xZ3):Z2": lambda: inverted_cyclic_pair(3, 3),
        "(Z9xZ3):Z2": lambda: inverted_cyclic_pair(9, 3),
    }


# Each workload: the commands of one pass, and a thunk returning its input
# builders (imported lazily so that this module loads without the package
# on the path).  Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    "families": {
        "commands": [
            ["family", "C31", "--odd", "5..29"],
            ["family", "C33", "--range", "2..24"],
            ["family", "C34", "--odd", "3..23", "--format", "records"],
            ["map", "C31", "61"],
            ["map", "C34", "23", "--dot"],
            ["analyze", "@C31(15)"],
            ["analyze", "@C34(15)"],
        ],
        "inputs": _inputs_families,
        # index of the command rerun, untimed, with --workers 2
        "parallel_check": 0,
    },
    "exhaustion": {
        "commands": [
            ["analyze", "@T1(1.5)l1"],
            ["analyze", "@T1(1.6)l1"],
            ["analyze", "@T1(1.5)l1xZ2"],
            ["analyze", "@T1(1.6)l2"],
            ["analyze", "@GL(2,3)"],
            ["analyze", "@Z4oGL(2,3)"],
            ["analyze", "@(Z3xZ3):Z2"],
            ["analyze", "@(Z9xZ3):Z2"],
            ["verify", "lemma-6.2", "--format", "records"],
            ["verify", "lemma-6.3", "--format", "records"],
        ],
        "inputs": _inputs_exhaustion,
    },
    "catalog": {
        "commands": [
            ["verify", "lemma-5.5", "--format", "records"],
            ["verify", "lemma-5.6", "--lmax", "1", "--format", "records"],
            ["verify", "theorem-1.1", "--format", "records"],
        ],
        "inputs": lambda: {},
    },
}


def relabel(images: tuple, sigma: list) -> tuple:
    """Images of sigma^-1 g sigma, for g given by its image tuple."""
    out = [0] * len(images)
    for i, gi in enumerate(images):
        out[sigma[i]] = sigma[gi]
    return tuple(out)


def build_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write one relabelled generator file per input; return name -> path."""
    from arcmaps.genfiles import format_generator_file
    from arcmaps.perms import Permutation

    rng = random.Random(seed)
    paths = {}
    for k, (name, build) in enumerate(sorted(WORKLOADS[workload]["inputs"]().items())):
        G = build()
        sigma = list(range(G.degree))
        rng.shuffle(sigma)
        gens = [Permutation(relabel(g.images, sigma)) for g in G.generators]
        path = directory / f"input{k}.gens"
        path.write_text(format_generator_file(G.degree, gens))
        paths[name] = str(path)
    return paths


def commands(workload: str, paths: dict, workers: int = 1) -> list[list[str]]:
    """The pass's argv lists with input paths substituted.  Passes run one
    at a time with one worker each; the determinism check also uses 2."""
    return [
        [paths[a[1:]] if a.startswith("@") else a for a in argv] + ["--workers", str(workers)]
        for argv in WORKLOADS[workload]["commands"]
    ]
