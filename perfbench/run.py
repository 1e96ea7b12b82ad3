"""End-to-end benchmark of mmclab on three workloads, plus a traced run.

    python3 perfbench/run.py --workload sl-wide --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each measured run is a fresh Python process (``child.py``) that imports mmclab
from ``src/`` and calls ``mmclab.cli.main(["run", ...])`` once per config of
the workload. The configs are copies of the preset suites in
``perfbench/configs``, so editing a preset does not move a workload. Runs
repeat until ``--seconds`` is spent (at least ``MIN_RUNS``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` (median wall time of one run over all configs) and ``setup_s``
(process spawn until mmclab is imported and the configs are validated, median
over every spawn). ``--trace 1`` alternates untraced and traced runs and
reports the per-module metrics, the tracing overhead and ``peak_rss_mb`` (the
untraced runs' median ``ru_maxrss``; it varies too much between runs at two
threads to serve as a bounded end-to-end metric).

Every invocation checks the outputs: the sha256 of each config's
``results.csv`` must agree across all runs, traced or not, and with one extra
run at ``--threads 1`` when the workload runs at ``nproc`` threads; every
operation (cell, trial, method) must match the expected-verdict table. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A readable summary and the environment come
before it, and a full report is written under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REPORT_DIR = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))

MIN_RUNS = 3
MIN_TRACED_RUNS = 2
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 150

# Why each workload exists is recorded in BENCHMARK.json. ``spans`` lists the
# span names, or "parent>child" edges, that the traced run must see fire.
WORKLOADS = {
    "sl-wide": {
        "configs": ["dm1-sl"],
        "threads": NPROC,
        "spans": ["cli.main", "harness.run_experiment>harness._run_task",
                  "harness._run_task>datagen.sample_latents_dm1",
                  "harness._run_task>datagen.project_latents",
                  "harness._run_task>training.sl_fit_gd",
                  "evaluation.evaluate_sl>datagen.sample_latents_dm1",
                  "evaluation.evaluate_sl>datagen.project_latents",
                  "harness._run_task>theory.sl_failure_bounds_dm1",
                  "cli.main>harness.emit_csv"],
    },
    "probe-narrow": {
        "configs": ["supcon-dm1", "dm2-sl", "supcon-dm2"],
        "threads": 1,
        "spans": ["training.probe_fit>training.sl_fit_gd",
                  "harness._run_task>training.sl_fit_gd",
                  "harness._run_task>covariance.supcon_class_mean_cov",
                  "harness._run_task>training.supcon_fit_closed_form",
                  "evaluation.evaluate_probe>datagen.project_latents",
                  "evaluation.evaluate_sl>datagen.enumerate_latents_dm2",
                  "harness._run_task>evaluation.supcon_group_geometry",
                  "datagen.make_paired_dataset>datagen.project_latents",
                  "cli.main>harness.emit_csv"],
    },
    "zeroshot-sweep": {
        "configs": ["dm1-mmcl", "dm2-mmcl", "captions-dm1", "captions-dm2"],
        "threads": NPROC,
        "spans": ["harness.run_experiment>harness._run_task",
                  "harness._run_task>covariance.empirical_cross_cov",
                  "harness._run_task>covariance.population_cross_cov_dm2",
                  "training.mmcl_fit_closed_form>numerics.svd_top",
                  "evaluation.evaluate_zero_shot>datagen.project_latents",
                  "evaluation.evaluate_zero_shot>datagen.sample_latents_dm1",
                  "evaluation.evaluate_zero_shot>datagen.enumerate_latents_dm2",
                  "datagen.make_paired_dataset>datagen.project_latents",
                  "cli.main>harness.emit_csv"],
    },
}

# (config, method, split, group, metric) records expected to fail: the known
# red check of the supervised-contrastive closed form (README "Known red
# check"). Every other checked record is expected to pass.
EXPECTED_FAILURES = {
    ("supcon-dm1", "supcon", "true", "overall", "accuracy"),
    ("supcon-dm1", "supcon", "true", "minority", "accuracy"),
}

MODULES = ("training", "datagen", "evaluation", "covariance", "numerics",
           "harness", "theory", "cli")
# functions whose call counts and self times the traced run reports
REPORTED_FUNCTIONS = (
    "training.sl_fit_gd", "training.probe_fit", "training.mmcl_fit_gd",
    "training.mmcl_fit_closed_form", "training.supcon_fit_closed_form",
    "datagen.sample_latents_dm1", "datagen.sample_latents_dm2",
    "datagen.enumerate_latents_dm2", "datagen.make_paired_dataset",
    "datagen.project_latents",
    "evaluation.evaluate_zero_shot", "evaluation.evaluate_sl",
    "evaluation.evaluate_probe", "evaluation.supcon_group_geometry",
    "covariance.empirical_cross_cov", "covariance.supcon_class_mean_cov",
    "numerics.svd_top", "numerics.make_dictionary")
# counters the tracer computes from array shapes and returned metadata; like
# every call count they must repeat exactly between the traced runs of a set
COUNTERS = ("training.gd_epochs", "training.gd_flops", "training.gd_fits",
            "training.gd_converged", "datagen.rows", "datagen.bytes_out",
            "evaluation.rows", "covariance.flops", "harness.tasks",
            "harness.records", "harness.errors", "harness.csv_bytes")
# the traced wall time must be accounted for by self times plus glue within
# this share, and glue (time outside every span) must stay below it
ACCOUNTING_TOLERANCE = 0.01


class BenchmarkError(Exception):
    """A run could not be made; no result is printed."""


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "git_commit": _git_commit(), "seed": seed}


# ---------------------------------------------------------------------------
# child runs


def spawn(workdir: Path, tag: str, configs, seed=0, threads=1, trace=0,
          setup_only=False) -> dict:
    """Run child.py once and return its result, with ``setup_s`` measured from
    the moment before the process was started."""
    result_path = workdir / f"{tag}.json"
    out = workdir / tag
    cmd = [sys.executable, str(BENCH_DIR / "child.py"),
           "--configs", ",".join(configs), "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--out", str(out), "--seed", str(seed), "--threads", str(threads),
                "--trace", str(trace)]
    log = workdir / f"{tag}.log"
    with open(log, "w", encoding="utf-8") as fh:
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{tag}: timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8")[-2000:]
        raise BenchmarkError(f"{tag}: exit status {proc.returncode}\n{tail}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    if not setup_only:
        result["outputs"] = {}
        for name in configs:
            data = (out / name / "results.csv").read_bytes()
            result["outputs"][name] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "ops": operations(name, data.decode("utf-8"))}
        shutil.rmtree(out)
    return result


def operations(config: str, csv_text: str) -> dict:
    """Map each operation (run_id, method) of one results.csv to whether it
    matches the expected-verdict table and wrote no error record."""
    ops = {}
    seen = set()
    for row in csv.DictReader(io.StringIO(csv_text)):
        op = (row["run_id"], row["method"])
        ops.setdefault(op, True)
        if row["group"] == "error":
            ops[op] = False
            continue
        if row["pass"] == "":
            continue
        record = (config, row["method"], row["split"], row["group"], row["metric"])
        expected_pass = record not in EXPECTED_FAILURES
        if not expected_pass:
            seen.add((op, record))
        if (row["pass"] == "true") != expected_pass:
            ops[op] = False
    for op in ops:
        for record in EXPECTED_FAILURES:
            if record[:2] == (config, op[1]) and (op, record) not in seen:
                ops[op] = False  # an expected red record went missing
    return {f"{run_id}/{method}": ok for (run_id, method), ok in ops.items()}


# ---------------------------------------------------------------------------
# traced-run metrics


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def layer_metrics(trace: dict) -> dict:
    """Per-module metrics of one traced run."""
    selfs, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    spans = trace["spans"]

    def inclusive(*names):
        return sum(s[3] - s[2] for s in spans if s[1] in names)

    m = {}
    for module in MODULES:
        m[f"{module}.self_s"] = sum(v for k, v in selfs.items()
                                    if k.startswith(module + "."))
    for fn in REPORTED_FUNCTIONS:
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_s"] = selfs.get(fn, 0.0)
    m["theory.calls"] = sum(v for k, v in calls.items() if k.startswith("theory."))
    for name in COUNTERS:
        m[name] = counts.get(name, 0)
    fits = counts.get("training.gd_fits", 0)
    epochs = counts.get("training.gd_epochs", 0)
    gd_self = selfs.get("training.sl_fit_gd", 0.0) + selfs.get("training.mmcl_fit_gd", 0.0)
    m["training.converged_ratio"] = m["training.gd_converged"] / fits if fits else None
    m["training.s_per_epoch"] = gd_self / epochs if epochs else None
    m["harness.task_s"] = counts.get("harness.task_s", 0.0)
    experiment_s = inclusive("harness.run_experiment")
    m["harness.overlap"] = m["harness.task_s"] / experiment_s if experiment_s else None
    m["harness.emit_s"] = inclusive("harness.emit_csv", "harness.emit_json_summary")
    m["trace.glue_s"] = trace["glue_s"]
    m["trace.self_total_s"] = sum(selfs.values()) + trace["glue_s"]
    return m


def trace_problems(expected_spans, trace: dict) -> list[str]:
    """Coverage and accounting self-test of one traced run."""
    problems = []
    fired = set(trace["calls"]) | set(trace["edges"])
    for span in expected_spans:
        if span not in fired:
            problems.append(f"expected span {span} never fired")
    wall = trace["wall_s"]
    expected = wall + trace["overlap_excess_s"]
    if abs(trace["accounted_s"] - expected) > ACCOUNTING_TOLERANCE * wall:
        problems.append(f"self times plus glue give {trace['accounted_s']:.4f} s, "
                        f"traced wall time plus worker overlap is {expected:.4f} s")
    if not 0 <= trace["glue_s"] <= ACCOUNTING_TOLERANCE * wall:
        problems.append(f"untraced glue {trace['glue_s']:.4f} s of {wall:.4f} s")
    return problems


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 workdir: Path) -> dict:
    spec = WORKLOADS[workload]
    configs, threads = spec["configs"], spec["threads"]
    setups = [spawn(workdir, f"setup-{i}", configs, setup_only=True)["setup_s"]
              for i in range(SETUP_SPAWNS)]
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(runs) % 2 == 1
        started = time.perf_counter()
        run = spawn(workdir, f"run-{len(runs)}", configs, seed, threads, int(traced))
        run["traced"] = bool(traced)
        run["spawn_to_exit_s"] = time.perf_counter() - started
        runs.append(run)
        typical = _median([r["spawn_to_exit_s"] for r in runs])
        enough = (len(runs) >= 2 * MIN_TRACED_RUNS if trace
                  else len(runs) >= MIN_RUNS)
        if enough and time.perf_counter() + typical > deadline:
            break
    checks = list(runs)
    if threads > 1:
        single = spawn(workdir, "threads-1", configs, seed, 1)
        single["traced"] = False
        checks.append(single)

    problems = []
    hashes = {}
    attempted = failed = 0
    for run in checks:
        for name, output in run["outputs"].items():
            hashes.setdefault(name, set()).add(output["sha256"])
            attempted += len(output["ops"])
            failed += sum(not ok for ok in output["ops"].values())
    for name, digests in hashes.items():
        if len(digests) != 1:
            problems.append(f"{name}: results.csv differs between runs "
                            f"({len(digests)} distinct sha256)")
    if failed:
        problems.append(f"{failed} of {attempted} operations do not match the "
                        "expected-verdict table")

    plain = [r for r in runs if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    setups += [r["setup_s"] for r in runs]
    summary = {
        "workload": workload, "seed": seed, "threads": threads, "trace": trace,
        "configs": configs,
        "wall_s": {"median": _median(walls), "quartiles": _quartiles(walls),
                   "n": len(walls), "samples": walls},
        "setup_s": {"median": _median(setups), "n": len(setups), "samples": setups},
        "peak_rss_mb": {"median": _median([r["peak_rss_mb"] for r in plain]),
                        "samples": [r["peak_rss_mb"] for r in plain]},
        "config_wall_s": {name: _median([r["config_wall_s"][name] for r in plain])
                          for name in configs},
        "results_sha256": {name: sorted(d)[0] for name, d in hashes.items()},
        "threads_1_checked": threads > 1,
        "attempted": attempted, "failed": failed,
    }
    metrics = {"wall_s": summary["wall_s"]["median"],
               "setup_s": summary["setup_s"]["median"]}
    if trace:
        traced = [r for r in runs if r["traced"]]
        per_run = []
        for run in traced:
            problems += trace_problems(spec["spans"], run["trace"])
            per_run.append(layer_metrics(run["trace"]))
        layers = {}
        for name in per_run[0]:
            values = [m[name] for m in per_run if m[name] is not None]
            if unit_of(name) == "count":
                if len(set(values)) != 1:
                    problems.append(f"count {name} differs between traced runs: "
                                    f"{sorted(set(values))}")
                layers[name] = values[0]
            else:
                layers[name] = _median(values) if values else None
        layers["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                      - summary["wall_s"]["median"])
        layers["peak_rss_mb"] = summary["peak_rss_mb"]["median"]
        total_self = layers["trace.self_total_s"]
        summary["per_layer"] = layers
        summary["self_share"] = {
            module: layers[f"{module}.self_s"] / total_self for module in MODULES}
        summary["top_functions"] = sorted(
            ((fn, layers[f"{fn}.self_s"] / total_self) for fn in REPORTED_FUNCTIONS),
            key=lambda kv: -kv[1])[:5]
        summary["spans"] = [run["trace"]["spans"] for run in traced]
        metrics.update(layers)
    summary["problems"] = problems
    summary["metrics"] = metrics
    return summary


# ---------------------------------------------------------------------------
# output


def unit_of(name: str) -> str:
    if name == "training.s_per_epoch":
        return "s/epoch"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("harness.overlap", "training.converged_ratio"):
        return "ratio"
    return "count"


def _load_metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _print_summary(summary: dict, env: dict) -> None:
    w = summary["wall_s"]
    print(f"== {summary['workload']}  seed {summary['seed']}  threads "
          f"{summary['threads']}  configs {','.join(summary['configs'])}")
    print(f"   env {json.dumps(env, sort_keys=True)}")
    print(f"   wall_s       {w['median']:.4f} s  (q1 {w['quartiles'][0]:.4f}, "
          f"q3 {w['quartiles'][1]:.4f}, n={w['n']})")
    print(f"   setup_s      {summary['setup_s']['median']:.4f} s  "
          f"(n={summary['setup_s']['n']})")
    print(f"   peak_rss_mb  {summary['peak_rss_mb']['median']:.1f} MB")
    share = summary["failed"] / summary["attempted"]
    print(f"   failed_share {share:.4f}  ({summary['failed']} of "
          f"{summary['attempted']} operations)")
    for name, digest in summary["results_sha256"].items():
        print(f"   sha256 {name}/results.csv {digest}")
    if summary["trace"]:
        for name, value in summary["per_layer"].items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"   {name:40s} {shown} {unit_of(name)}")
        shares = ", ".join(f"{k} {v:.1%}" for k, v in sorted(
            summary["self_share"].items(), key=lambda kv: -kv[1]))
        print(f"   self-time share: {shares}")
        tops = ", ".join(f"{k} {v:.1%}" for k, v in summary["top_functions"])
        print(f"   top functions: {tops}")
    for problem in summary["problems"]:
        print(f"   PROBLEM {problem}")


def _result_line(summaries: list, specs: dict, trace: int, prefix: bool) -> dict:
    chosen = specs["per_layer"] if trace else specs["end_to_end"]
    metrics = {}
    for summary in summaries:
        for spec in chosen:
            value = summary["metrics"].get(spec["name"])
            if value is None:
                raise BenchmarkError(f"metric {spec['name']} was not measured")
            key = f"{summary['workload']}.{spec['name']}" if prefix else spec["name"]
            metrics[key] = {"value": value, "unit": spec["unit"]}
    return {"correct": all(not s["problems"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmclab" / "__init__.py").is_file():
        print(f"error: no mmclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        specs = _load_metric_specs()
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    # turn SIGTERM into an exception, so that a running child is killed and
    # waited for by subprocess.run and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = environment(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    REPORT_DIR.mkdir(exist_ok=True)
    workdir = REPORT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, args.trace, workdir)
            _print_summary(summary, env)
            summaries.append(summary)
        result = _result_line(summaries, specs, args.trace, prefix=len(names) > 1)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = {s["workload"]: s.pop("spans", None) for s in summaries}
    if args.trace:
        (REPORT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    (REPORT_DIR / f"{stem}.json").write_text(
        json.dumps({"environment": env, "workloads": summaries, "result": result},
                   indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
