"""Command-line entry point.

Subcommands:
  verify --suite {all|dm1|dm2|captions|supcon|id} --out DIR [--seed N] [--threads N]
  run    --config FILE --out DIR [--seed N] [--threads N]
  sweep  --config FILE --out DIR [--seed N] [--threads N]

Each invocation writes results.csv and summary.json into the output directory
and exits 0 unless a theory comparison failed or a method raised.
"""
from __future__ import annotations

import argparse
import ctypes
import sys
from dataclasses import replace
from pathlib import Path

from .errors import MmclabError, ValidationError
from .harness import (SUITES, config_from_file, emit_csv, emit_json_summary,
                      run_experiment, run_suite)


def _check_out_dir(out_dir: Path) -> None:
    """Fail before the run when --out, or its nearest existing ancestor, is not a directory."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ValidationError(f"--out {out_dir}: {path} exists and is not a directory")
            return


def _keep_freed_heap() -> None:
    """Have glibc serve blocks of up to 16 MiB from its heap and keep 16 MiB of it free, so each
    cell reuses pages the last one faulted in. No value moves. Skipped without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param in (-3, -2):  # M_MMAP_THRESHOLD; M_TOP_PAD, which alone fixes the former at 128 KiB
        mallopt(param, 16 << 20)


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
    verdict = ("FAILURES present" if not summary["all_passed"] else "all checks passed"
               if any("passed" in cell for cell in summary["cells"]) else "no checks made")
    print(f"{summary['n_records']} records; {verdict}")


def main(argv=None) -> int:
    """Run argv's command and write its outputs; exit 0 (also when it made no check), 1 on a
    failed check or a method's error, 2 on a bad config or argument."""
    _keep_freed_heap()
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
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    try:
        _check_out_dir(Path(args.out))
        if args.command == "verify":
            records = run_suite(args.suite, args.seed, args.threads)
            min_fraction = 1.0  # the presets check every trial
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(records, out / "results.csv")
    summary = emit_json_summary(records, out / "summary.json", min_fraction)
    _print_summary(summary)
    return 0 if summary["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
