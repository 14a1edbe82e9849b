"""Command-line entry point.

Verbs:

* ``run``       -- execute the config's ablation cross-product, write reports
* ``count``     -- parameter-count reports only (no training, no allocation)
* ``gradcheck`` -- finite-difference verification of the config's first run
* ``plot``      -- project a report into (params, accuracy) scatter data

Exit status is 0 on success, 2 on configuration/validation errors, and 1 on
runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, PETLLabError
from .experiment import (TradeoffReport, emit_counts, parse_config,
                         plot_tradeoff, resolve_output_dir, run_experiment,
                         run_gradcheck)

GRADCHECK_TOLERANCE = 1e-4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petl-lab",
        description="Parameter-efficient fine-tuning experiments on a desk-scale "
                    "shifted-window video transformer.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config (YAML)")
        p.add_argument("--out", default=None, help="output directory "
                       "(overrides config and the PETL_LAB_OUT env var)")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    common(sub.add_parser("run", help="run the ablation cross-product"))
    common(sub.add_parser("count", help="emit parameter-count reports"))
    common(sub.add_parser("gradcheck", help="finite-difference the model gradients"))
    plot = sub.add_parser("plot", help="emit trade-off scatter data from a report")
    plot.add_argument("--report", default=None, help="report.json path "
                      "(default: <out>/report.json)")
    common(plot, needs_config=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb != "plot":
            cfg = parse_config(args.config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.verb == "run":
            run_experiment(cfg, out_dir=args.out, quiet=args.quiet)
        elif args.verb == "count":
            emit_counts(cfg, out_dir=args.out, quiet=args.quiet)
        elif args.verb == "gradcheck":
            err = run_gradcheck(cfg, quiet=args.quiet)
            if err >= GRADCHECK_TOLERANCE:
                print(f"gradcheck FAILED: {err:.3e} >= {GRADCHECK_TOLERANCE} ({err.entry()})",
                      file=sys.stderr)
                return 1
        elif args.verb == "plot":
            out = resolve_output_dir(None, args.out)
            report_path = args.report or (out / "report.json")
            report = TradeoffReport.read_json(report_path)
            plot_tradeoff(report, out / "tradeoff.csv")
            if not args.quiet:
                print(f"wrote {out / 'tradeoff.csv'}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PETLLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
