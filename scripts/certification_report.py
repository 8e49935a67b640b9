#!/usr/bin/env python3
"""Run the full separability certification pipeline on one geometry and
print every intermediate quantity: the truncation radius search, the
partition-ratio mass, the core decomposition, and the per-radius tail
margins.

Usage:
    python3 scripts/certification_report.py [--family tfi] [--na 1]
                                            [--nb 5] [--nc 1] [--k0 K]
"""
import argparse

from chainsep import RegionsABC, builtin_models, certify_marginal


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", default="tfi")
    ap.add_argument("--na", type=int, default=1)
    ap.add_argument("--nb", type=int, default=5)
    ap.add_argument("--nc", type=int, default=1)
    ap.add_argument("--k0", type=int, default=None,
                    help="fix the truncation radius instead of searching")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    n = args.na + args.nb + args.nc
    ia = builtin_models(args.family, {"sites": n, "seed": args.seed})
    regions = RegionsABC.from_sizes(args.na, args.nb, args.nc)
    rep = certify_marginal(ia, regions, k0=args.k0)

    print(f"model: {args.family} on {n} sites, J={ia.strength:.4g}, "
          f"r={ia.interaction_range}")
    print(f"geometry: |A|={args.na} |B|={args.nb} |C|={args.nc}")
    print(f"verdict: {rep.verdict}  (attempted k0: {list(rep.attempted_k0)})")
    print(f"k0={rep.k0}  gamma={rep.gamma_k0:.6e}  Z-ratio={rep.z_ratio:.6e}")
    print(f"identity mass C = {rep.constants_used['C']:.6e}, "
          f"g_emp = {rep.constants_used['g_emp']:.6g}")
    print(f"reconstruction rel err: {rep.reconstruction_rel_err:.3e}")
    print(f"negativity cross-check: {rep.negativity_cross_check:.3e}")
    print(f"closed-form k0 (comparison only): {rep.k0_closed_form:.3g}")
    core = rep.core
    print(f"core: ||Delta||={core.delta_norm:.3e}  "
          f"ball ratio {core.ball_ratio:.3e} vs threshold {core.ball_threshold:.3e}"
          f"  -> {'ok' if core.ball_ok else 'too large'}")
    for chk in rep.per_k:
        print(f"  k={chk.k}: tail norm {chk.tail_norm:.3e}, budget "
              f"{chk.identity_budget:.3e}, ball margin {chk.ball_margin:+.3e}, "
              f"factorial bound {chk.factorial_bound:.3e}")
    return 0 if rep.verdict == "SeparableByConstruction" else 1


if __name__ == "__main__":
    raise SystemExit(main())
