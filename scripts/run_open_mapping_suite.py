"""Check the openness identity r * K = 1 on a batch of random instances.

Generates polyhedral cone maps, splits them by surjectivity, and reports
how tightly the interior radius inverts the openness constant on the
surjective half.  The generator makes the map onto exactly at even seeds,
so the verdict must follow the seed parity; non-surjective instances must
show an infinite constant, a zero radius and an unreachable witness.  A
radius that ``interior_radius`` refuses (ArithmeticError, with the bracket
it can certify) makes its instance inconsistent.  Exits 1 when an instance
is inconsistent or when |rK - 1| exceeds 1e-6 on some surjective one.
"""

import argparse
import math
import time

import numpy as np

from conekit.instances import parse_instance, random_polyhedral_instance
from conekit.solver import check_feasible

MAX_DEVIATION = 1e-6  # the largest |rK - 1| accepted on a surjective instance


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50, help="instances to generate")
    ap.add_argument("--seed", type=int, default=0, help="first seed in the batch")
    args = ap.parse_args()

    t0 = time.perf_counter()
    devs = []
    onto = flat = inconsistent = 0
    for seed in range(args.seed, args.seed + args.count):
        inst = parse_instance(random_polyhedral_instance(seed))
        cfg = inst.sampler
        rep = inst.map.is_surjective()
        K = inst.map.openness_constant(cfg)
        try:
            r = inst.map.interior_radius(cfg)
        except ArithmeticError as err:
            inconsistent += 1
            print(f"seed {seed}: interior radius refused: {err}")
            continue
        reached = not rep.surjective and check_feasible(inst.map.matrix, rep.unreachable,
                                                        inst.map.cone).feasible
        if (rep.surjective != (seed % 2 == 0) or reached
                or rep.surjective != math.isfinite(K) or rep.surjective != (r > 0.0)):
            inconsistent += 1
            print(f"seed {seed}: surjective={rep.surjective} K={K} r={r}"
                  + (" witness reachable" if reached else ""))
            continue
        if rep.surjective:
            onto += 1
            devs.append(abs(r * K - 1.0))
        else:
            flat += 1
    dt = time.perf_counter() - t0

    print(f"{args.count} instances in {dt:.1f}s: "
          f"{onto} surjective, {flat} not, {inconsistent} inconsistent")
    misses = 0
    if devs:
        devs = np.array(devs)
        print(f"|rK - 1|: median {np.median(devs):.2e}  max {devs.max():.2e}")
        misses = int((devs > MAX_DEVIATION).sum())
        if misses:
            print(f"{misses} instances miss r * K = 1 by more than {MAX_DEVIATION:g}")
    return 1 if inconsistent or misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
