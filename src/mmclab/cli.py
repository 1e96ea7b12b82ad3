"""Command-line entry point.

Subcommands:
  verify --suite {all|dm1|dm2|captions|supcon|id} --out DIR [--seed N] [--threads N]
  run    --config FILE --out DIR [--seed N] [--threads N]
  sweep  --config FILE --out DIR [--seed N] [--threads N]

Each invocation writes results.csv and summary.json into the output directory
and exits 0 only when every theory comparison passed.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import MmclabError, ValidationError
from .harness import (SUITES, config_from_file, emit_csv, emit_json_summary,
                      run_experiment, run_suite)


def _write_outputs(records, out_dir: Path, min_pass_fraction: float) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(records, out_dir / "results.csv")
    return emit_json_summary(records, out_dir / "summary.json", min_pass_fraction)


def _print_summary(summary: dict) -> None:
    for cell in summary["cells"]:
        if "passed" not in cell or cell["mean"] is None:
            continue
        tag = "PASS" if cell["passed"] else "FAIL"
        where = f"{cell['experiment']}/{cell['method']}/{cell['split']}/{cell['group']}"
        pred = cell.get("prediction")
        pred_txt = "" if pred is None else f" vs {pred:.4f} ({cell['comparator']})"
        print(f"[{tag}] {where} {cell['metric']}={cell['mean']:.4f}{pred_txt}")
    for err in summary["errors"]:
        print(f"[ERROR] {err['run_id']}: {err['error']}")
    verdict = "all checks passed" if summary["all_passed"] else "FAILURES present"
    print(f"{summary['n_records']} records; {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mmclab",
                                     description="Linear multimodal contrastive "
                                                 "learning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a preset verification suite")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--out", required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--threads", type=int, default=1)

    for name, help_text in (("run", "run one experiment config"),
                            ("sweep", "run a config with a parameter sweep")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            records, min_fraction = run_suite(args.suite, args.seed, args.threads)
        else:
            config = config_from_file(args.config)
            if args.command == "sweep" and not config.sweep:
                raise ValidationError("sweep command requires a config with a sweep section")
            if args.seed is not None:
                config = replace(config, root_seed=args.seed)
            records = run_experiment(config, args.threads)
            min_fraction = config.min_pass_fraction
    except MmclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = _write_outputs(records, Path(args.out), min_fraction)
    _print_summary(summary)
    return 0 if summary["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
