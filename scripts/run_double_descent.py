#!/usr/bin/env python3
"""Run the default double-descent sweep and print a short text summary.

Equivalent CLI: noisyrf sweep --preset double-descent-default --seed 7
"""

import argparse
import sys

from noisyrf import aggregate, emit_outputs, preset_config, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out-dir", default="out/double-descent")
    ap.add_argument("--replicates", type=int, default=None,
                    help="override the preset replicate count")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    overrides = {"master_seed": args.seed, "out_dir": args.out_dir,
                 "workers": args.workers}
    if args.replicates is not None:
        overrides["ensemble_replicates"] = args.replicates
    cfg = preset_config("double-descent-default", overrides)

    result = run_sweep(cfg)
    paths = emit_outputs(result, cfg, cfg.out_dir)
    print(f"wrote {paths['sweep']}")

    summaries = aggregate(result.records)
    print(f"{'s':>6} {'risk':>12} {'bias':>12} {'variance':>12}")
    peak = max(summaries, key=lambda a: a.R_mean)
    for a in summaries:
        mark = "  <- peak" if a.s == peak.s else ""
        print(f"{a.s:>6} {a.R_mean:>12.5g} {a.B_mean:>12.5g} {a.V_mean:>12.5g}{mark}")
    if result.errors:
        print(f"{len(result.errors)} rows failed; see manifest", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
