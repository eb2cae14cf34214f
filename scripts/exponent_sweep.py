#!/usr/bin/env python3
"""Sweep local image-ideal exponents over residue sizes and signatures.

Prints the computed exponent next to the closed-form prediction
(multiplier x block count) so drift shows up as a visible mismatch
rather than a buried assertion.  The quaternionic column uses the
non-split degree-2 algebra; the unitary columns use the conjugated
one; the split column should read 0 everywhere.
"""

import argparse
import sys

from pelks.algebra import DegenerateTestElement
from pelks.cyclic_algebra import CyclicAlgebraDescriptor
from pelks.pel_modules import image_exponent


def row(desc, signature, kind):
    try:
        computed, expected = image_exponent(desc, signature, kind)
    except DegenerateTestElement:
        # type A needs 2n distinct Frobenius translates of a residue
        # pair; the smallest fields cannot supply one
        return "n/a (field too small)"
    consistent = (computed["exponent"], computed["violations"]) == (expected["exponent"], [])
    flag = "" if consistent else "  <-- INCONSISTENT"
    return f"{computed['exponent']:3d} (want {expected['exponent']}){flag}"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--residue-sizes",
        type=int,
        nargs="+",
        default=[2, 3, 5, 7],
        help="finite field sizes q to sweep",
    )
    args = parser.parse_args()

    print(f"{'q':>3s}  {'quat C (1,0)':>18s}  {'unitary A (1,1)':>18s}  "
          f"{'unitary A (2,2)':>18s}  {'split A (1,1)':>18s}")
    bad = False
    for q in args.residue_sizes:
        quat = CyclicAlgebraDescriptor(n=2, residue_size=q)
        unitary = CyclicAlgebraDescriptor(n=2, residue_size=q, conjugation_power=1)
        split = CyclicAlgebraDescriptor(n=1, residue_size=q, split=True)
        cells = [
            row(quat, (1, 0), "C"),
            row(unitary, (1, 1), "A"),
            row(unitary, (2, 2), "A"),
            row(split, (1, 1), "A"),
        ]
        bad = bad or any("INCONSISTENT" in c for c in cells)
        print(f"{q:3d}  " + "  ".join(f"{c:>18s}" for c in cells))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
