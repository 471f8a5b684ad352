"""Exact Gaussian elimination over sparse rational vectors.

Vectors are mappings from hashable basis keys (sortable via ``sort_key``)
to exact scalars (int or Fraction).  Used for rank computations (free Lie
algebra dimensions, PBW bases) and for expressing elements in the span of a
generating family, eliminated once and reused for every target.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from .algebra import Scalar


def _as_dict(vec: Mapping[Any, Scalar]) -> dict[Any, Scalar]:
    return {k: v for k, v in vec.items() if v}


def _key_order(k: Any):
    return k.sort_key() if hasattr(k, "sort_key") else k


def _reduce(vec: dict, combo: dict, pivots: list[tuple[Any, dict, dict]], sign: int) -> dict:
    """Eliminate vec against the pivot rows, tracking combo += sign*c*pcombo.

    Pivot rows carry combos with vec == sum(combo_i * basis_i), so they reduce
    with sign=-1; a solve target accumulates its solution with sign=+1.
    """
    for key, prow, pcombo in pivots:
        c = vec.get(key)
        if not c:
            continue
        for k, v in prow.items():
            acc = vec.get(k, 0) - c * v
            if acc:
                vec[k] = acc
            else:
                vec.pop(k, None)
        for i, v in pcombo.items():
            acc = combo.get(i, 0) + sign * c * v
            if acc:
                combo[i] = acc
            else:
                combo.pop(i, None)
    return vec


def _insert_pivot(vec: dict, combo: dict, pivots: list) -> bool:
    """Normalize vec on its smallest key and append it as a pivot row."""
    if not vec:
        return False
    key = min(vec, key=_key_order)
    inv = Fraction(1) / vec[key]
    pivots.append((key, {k: v * inv for k, v in vec.items()},
                   {i: v * inv for i, v in combo.items()}))
    return True


def exact_rank(vectors: Iterable[Mapping[Any, Scalar]]) -> int:
    pivots: list[tuple[Any, dict, dict]] = []
    rank = 0
    for vec in vectors:
        v = _reduce(_as_dict(vec), {}, pivots, -1)
        if _insert_pivot(v, {}, pivots):
            rank += 1
    return rank


def span_solver(basis: Sequence[Mapping[Any, Scalar]]
                ) -> Callable[[Mapping[Any, Scalar]], list[Scalar] | None]:
    """Eliminate the basis once; the returned callable gives, for each
    target, coefficients x with target = sum x_i * basis_i, or None if the
    target is outside the span."""
    pivots: list[tuple[Any, dict, dict]] = []
    for i, vec in enumerate(basis):
        v = _reduce(_as_dict(vec), combo := {i: 1}, pivots, -1)
        _insert_pivot(v, combo, pivots)
    n = len(basis)

    def solve(target: Mapping[Any, Scalar]) -> list[Scalar] | None:
        if _reduce(_as_dict(target), sol := {}, pivots, +1):
            return None
        return [sol.get(i, 0) for i in range(n)]

    return solve


def solve_in_span(basis: Sequence[Mapping[Any, Scalar]],
                  target: Mapping[Any, Scalar]) -> list[Scalar] | None:
    """Coefficients x with target = sum x_i * basis_i, or None if unsolvable."""
    return span_solver(basis)(target)
