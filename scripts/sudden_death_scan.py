#!/usr/bin/env python3
"""Scan negativity, mutual information, and certification verdicts for a
thermal chain as the gap between the two edge regions grows.

Prints one row per gap size and reports the empirical gap length at which
the negativity across the edge cut drops below threshold and stays there.

Usage:
    python3 scripts/sudden_death_scan.py [--family tfi] [--na 1] [--nc 1]
                                         [--max-gap 8] [--certify]
"""
import argparse

from chainsep import (
    Chain,
    RegionsABC,
    builtin_models,
    certify_marginal,
    gibbs,
    marginal,
    mutual_information,
    negativity,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="tfi")
    ap.add_argument("--na", type=int, default=1)
    ap.add_argument("--nc", type=int, default=1)
    ap.add_argument("--max-gap", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--certify", action="store_true",
                    help="also run the constructive certification pipeline")
    args = ap.parse_args()

    threshold = 1e-12
    rows = []
    for nb in range(1, args.max_gap + 1):
        n = args.na + nb + args.nc
        ia = builtin_models(args.family, {"sites": n, "seed": args.seed})
        # one spectral context per gap: H_ABC is diagonalized once
        chain = Chain(ia)
        regions = RegionsABC.from_sizes(args.na, nb, args.nc)
        rho_ac = marginal(gibbs(chain, regions.all_sites), regions.ac)
        neg = negativity(rho_ac, (regions.a, regions.c)).negativity
        mi = mutual_information(chain, regions)
        verdict = ""
        if args.certify and nb >= ia.interaction_range:
            verdict = certify_marginal(chain, regions).verdict
        rows.append((nb, neg, mi, verdict))
        print(f"|B|={nb:2d}  negativity={neg:.3e}  I(A:C)={mi:.3e}  {verdict}")

    ell = next(
        (
            nb
            for i, (nb, _, _, _) in enumerate(rows)
            if all(r[1] <= threshold for r in rows[i:])
        ),
        None,
    )
    if ell is None:
        print(f"negativity never settles below {threshold:g} in this scan")
        return 1
    print(f"negativity stays below {threshold:g} from |B| = {ell} onward")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
