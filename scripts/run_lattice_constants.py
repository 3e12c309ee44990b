"""Sweep decomposition constants for the lattice cone (planar by default).

Prints one row per codomain norm and kind, next to its closed-form value,
which is the same in every dimension d >= 2.  Useful as a quick sanity run
after solver changes: the exit code is 1 when a constant misses its closed
form by more than 1e-6.
"""

import argparse
import math
import time

from conekit.cones import Orthant
from conekit.norms import NormTag
from conekit.ordered import ConormalityKind, OrderedSpace, conormality_constant

CLOSED_FORM = {
    (NormTag.L1, ConormalityKind.SUM): 1.0,
    (NormTag.L2, ConormalityKind.SUM): math.sqrt(2.0),
    (NormTag.LINF, ConormalityKind.SUM): 2.0,
    (NormTag.L1, ConormalityKind.PLAIN): 1.0,
    (NormTag.L2, ConormalityKind.PLAIN): 1.0,
    (NormTag.LINF, ConormalityKind.PLAIN): 1.0,
    (NormTag.L1, ConormalityKind.MAX): 1.0,
    (NormTag.L2, ConormalityKind.MAX): 1.0,
    (NormTag.LINF, ConormalityKind.MAX): 1.0,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2, help="ambient dimension")
    args = ap.parse_args()

    print(f"{'norm':6s} {'kind':6s} {'constant':>14s} {'reference':>10s} {'time':>8s}")
    misses = 0
    for tag in NormTag:
        for kind in ConormalityKind:
            space = OrderedSpace(Orthant(args.dim), tag)
            t0 = time.perf_counter()
            value = conormality_constant(space, kind)
            dt = time.perf_counter() - t0
            ref = CLOSED_FORM.get((tag, kind))
            ref_s = f"{ref:.6f}" if ref is not None else "-"
            print(f"{tag.value:6s} {kind.value:6s} {value:14.10f} {ref_s:>10s} {dt:7.2f}s")
            if ref is not None and not abs(value - ref) <= 1e-6:
                misses += 1
    if misses:
        print(f"{misses} constants miss their closed form by more than 1e-6")
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
