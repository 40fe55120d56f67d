"""Permutations of {0, ..., degree-1} with left-to-right composition.

The product ``a * b`` means "apply a, then b", so ``(a * b)(p) == b(a(p))``;
factors of different degrees raise ValueError.
With this convention the exponent notation ``a ** b == b.inverse() * a * b``
(conjugation) and the commutator ``a.inverse() * (a ** b)`` compose in the
usual order.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Sequence


class Permutation:
    """An immutable permutation stored as a tuple of point images."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images!r}")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _make(cls, images: tuple) -> "Permutation":
        # fast path for internally produced (already valid) image tuples
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._make(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        for cycle in cycles:
            for i, pt in enumerate(cycle):
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} out of range for degree {degree}")
                images[pt] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # left-to-right: apply self first, then other
        oi = other.images
        if len(oi) != len(self.images):
            raise ValueError(f"degree mismatch: {len(self.images)} != {len(oi)}")
        return Permutation._make(tuple(oi[x] for x in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._make(tuple(inv))

    def __invert__(self) -> "Permutation":
        return self.inverse()

    def __pow__(self, other):
        """g ** k for integer k; g ** h for conjugation h^-1 g h."""
        if isinstance(other, Permutation):
            return other.inverse() * self * other
        k = other
        n = self.order()
        k %= n
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def commutator(self, other: "Permutation") -> "Permutation":
        return self.inverse() * other.inverse() * self * other

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            pt = self.images[start]
            while pt != start:
                seen[pt] = True
                cyc.append(pt)
                pt = self.images[pt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation.parse({self.cycle_string()!r}, degree={self.degree})"

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse disjoint-cycle notation with 0-based points, e.g. "(0 1 2)(3 4)".

        The identity is written "()"; points may be separated by spaces or commas.
        """
        text = text.strip()
        if not re.fullmatch(r"(\(\s*[\d,\s]*\))+", text):
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        for body in re.findall(r"\(([^()]*)\)", text):
            pts = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if len(pts) != len(set(pts)):
                raise ValueError(f"repeated point in cycle: ({body})")
            if pts:
                cycles.append(pts)
        moved: set[int] = set()
        for cyc in cycles:
            if moved & set(cyc):
                raise ValueError(f"cycles are not disjoint in {text!r}")
            moved |= set(cyc)
        if moved and max(moved) >= degree:
            raise ValueError(f"point {max(moved)} out of range for degree {degree}")
        return cls.from_cycles(degree, cycles)
