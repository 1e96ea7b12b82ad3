"""One timed run of a benchmark workload, in a fresh Python process.

The process imports mmclab from the checkout's ``src/``, loads and validates
the workload's configs (set-up ends here), then runs each config once through
the public CLI entry ``mmclab.cli.main(["run", ...])``. With ``--trace 1`` the
calls go through a :class:`tracer.Tracer` installed after set-up. The result is
written as JSON to ``--result``; ``perfbench/run.py`` starts this script and
reads that file.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
CONFIG_DIR = BENCH_DIR / "configs"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--configs", required=True, help="comma-separated config names")
    parser.add_argument("--result", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC_DIR))
    import mmclab
    from mmclab import cli, harness

    if not Path(mmclab.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"mmclab imported from {mmclab.__file__}, not from {SRC_DIR}",
              file=sys.stderr)
        return 3
    paths = {name: CONFIG_DIR / f"{name}.json" for name in args.configs.split(",")}
    for path in paths.values():
        harness.config_from_file(path)
    ready = time.perf_counter()
    result = {"ready": ready}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, str(BENCH_DIR))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(mmclab)
    out = Path(args.out)
    config_wall = {}
    started = time.perf_counter()
    for name, path in paths.items():
        t0 = time.perf_counter()
        # the exit status is not a signal here: supcon-dm1 carries a known red check
        cli.main(["run", "--config", str(path), "--out", str(out / name),
                  "--seed", str(args.seed), "--threads", str(args.threads)])
        config_wall[name] = time.perf_counter() - t0
    wall = time.perf_counter() - started
    result.update(wall_s=wall, config_wall_s=config_wall,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report(wall)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
