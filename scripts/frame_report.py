"""Print the truncated singular frame next to its Hall representation.

Usage: python3 scripts/frame_report.py --max-weight 4

The report ends with the prop53 check, so it runs up to that suite's
ceiling, checks.MAX_WEIGHTS["prop53"]; above it, it prints one error line
on stderr and exits 1.
"""

import argparse
import sys

from hopftrees.checks import MAX_WEIGHTS
from hopftrees.cli import _max_weight
from hopftrees.lyndon_hall import hall_polynomial
from hopftrees.morphisms import eword_str
from hopftrees.singular_frame import frame_series, hall_representation, prop53_check


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-weight", type=_max_weight, default=4)
    args = ap.parse_args()
    n = args.max_weight
    ceiling = MAX_WEIGHTS["prop53"]
    if n > ceiling:
        sys.exit(f"error: frame_report.py runs up to --max-weight {ceiling}, got {n}")

    print(f"frame series through weight {n}")
    for line in frame_series(n).iter_lines():
        print(f"  {line}")

    print("\nHall representation (coefficients of the logarithm)")
    rep = hall_representation(n)
    for t, c in rep.sorted_items():
        poly = hall_polynomial(t)
        terms = " + ".join(f"{k}*{eword_str(w)}" for w, k in poly.sorted_items())
        print(f"  {c} * E({t.foliage})   where E = {terms}")

    ok = prop53_check(n)
    print(f"\nexp(sum) reproduces the series word-by-word: {ok}")


if __name__ == "__main__":
    main()
