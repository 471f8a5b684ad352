"""Exact Gaussian elimination over sparse rational vectors.

Vectors are mappings from hashable basis keys (sortable via ``sort_key``)
to exact scalars (int or Fraction).  Used for rank computations (free Lie
algebra dimensions, PBW bases) and for expressing elements in the span of a
generating family, eliminated once and reused for every target.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Mapping, Sequence

from .algebra import Scalar, as_fraction


def _as_dict(vec: Mapping[Any, Scalar]) -> dict[Any, Scalar]:
    """The nonzero entries of vec; a float or other inexact coefficient
    raises TypeError."""
    return {k: c for k, v in vec.items() if (c := as_fraction(v))}


def _key_order(k: Any):
    return k.sort_key() if hasattr(k, "sort_key") else k


class _Pivots:
    """Normalized pivot rows (key, row, combo) in insertion order, and the
    position of each pivot key.  Each row is zero on the keys of the rows
    before it, so applying row i to a vector adds only keys of later rows."""

    __slots__ = ("rows", "position")

    def __init__(self):
        self.rows: list[tuple[Any, dict, dict]] = []
        self.position: dict[Any, int] = {}

    def reduce(self, vec: dict, combo: dict, sign: int) -> dict:
        """Eliminate vec against the pivot rows, tracking combo += sign*c*pcombo.

        Pivot rows carry combos with vec == sum(combo_i * basis_i), so they
        reduce with sign=-1; a solve target accumulates its solution with
        sign=+1.  The rows are applied in position order, as a scan of every
        row would apply them, but only rows whose key is in vec are visited:
        a heap holds their positions, and a key a row brings into vec pushes
        its own.  A position whose key has cancelled since is skipped.
        """
        rows, position = self.rows, self.position
        heap = [position[k] for k in vec if k in position]
        heapify(heap)
        while heap:
            key, prow, pcombo = rows[heappop(heap)]
            c = vec.get(key)
            if not c:
                continue
            for k, v in prow.items():
                old = vec.get(k)
                if old is None:
                    vec[k] = -c * v
                    if k in position:
                        heappush(heap, position[k])
                elif acc := old - c * v:
                    vec[k] = acc
                else:
                    del vec[k]
            for i, v in pcombo.items():
                acc = combo.get(i, 0) + sign * c * v
                if acc:
                    combo[i] = acc
                else:
                    combo.pop(i, None)
        return vec

    def insert(self, vec: dict, combo: dict) -> bool:
        """Normalize a reduced vec on its smallest key and append it as a row.
        An inverse lead that is an integer scales as an int, so a row of
        ints from a lead of 1 or -1 stays ints, and so do later updates."""
        if not vec:
            return False
        key = min(vec, key=_key_order)
        inv = Fraction(1) / vec[key]
        if inv.denominator == 1:
            inv = inv.numerator
        self.position[key] = len(self.rows)
        self.rows.append((key, {k: v * inv for k, v in vec.items()},
                          {i: v * inv for i, v in combo.items()}))
        return True


def exact_rank(vectors: Iterable[Mapping[Any, Scalar]]) -> int:
    pivots = _Pivots()
    rank = 0
    for vec in vectors:
        if pivots.insert(pivots.reduce(_as_dict(vec), {}, -1), {}):
            rank += 1
    return rank


def span_solver(basis: Sequence[Mapping[Any, Scalar]]
                ) -> Callable[[Mapping[Any, Scalar]], list[Scalar] | None]:
    """Eliminate the basis once; the returned callable gives, for each
    target, coefficients x with target = sum x_i * basis_i, or None if the
    target is outside the span."""
    pivots = _Pivots()
    for i, vec in enumerate(basis):
        pivots.insert(pivots.reduce(_as_dict(vec), combo := {i: 1}, -1), combo)
    n = len(basis)

    def solve(target: Mapping[Any, Scalar]) -> list[Scalar] | None:
        if pivots.reduce(_as_dict(target), sol := {}, +1):
            return None
        return [sol.get(i, 0) for i in range(n)]

    return solve

