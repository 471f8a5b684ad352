"""Tabulate the graded dimensions that the package's theorems predict.

Columns per weight n: unlabeled trees and forests on n vertices, labeled
forests of weight n, words of weight n, Lyndon words (= free-Lie ranks),
Hall forests (= PBW spanning ranks, 2^(n-1)).

Usage: python3 scripts/dimension_table.py --max-weight 6
"""

import argparse

from hopftrees.cli import _max_weight
from hopftrees.linsolve import exact_rank
from hopftrees.lyndon_hall import hall_forests, lyndon_generate, pbw_element
from hopftrees.trees import enumerate_forests, enumerate_trees, labeled_forests_of_weight
from hopftrees.words import words_of_weight


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-weight", type=_max_weight, default=6)
    args = ap.parse_args()

    lyndon = {}
    for w in lyndon_generate(args.max_weight):
        lyndon[w.weight] = lyndon.get(w.weight, 0) + 1

    header = f"{'n':>2}  {'trees':>6}  {'forests':>7}  {'labeled':>8}  {'words':>6}  {'lyndon':>6}  {'pbw':>5}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_weight + 1):
        hf = hall_forests(n)
        rank = exact_rank(pbw_element(u) for u in hf)
        assert rank == len(hf) == 2 ** (n - 1)
        print(f"{n:>2}  {len(enumerate_trees(n)):>6}  {len(enumerate_forests(n)):>7}  "
              f"{len(labeled_forests_of_weight(n)):>8}  {len(words_of_weight(n)):>6}  "
              f"{lyndon.get(n, 0):>6}  {rank:>5}")


if __name__ == "__main__":
    main()
