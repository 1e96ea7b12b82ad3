#!/usr/bin/env python3
"""Driving the experiment harness programmatically.

Builds a caption-richness sweep config, runs it on two worker threads, writes
the CSV and JSON reports, and shows that a rerun is byte-identical. Each trial
of a group of cells that differ only in caption levels (here every pi_core
cell) runs as one task on the counter-based random stream of the group's
first cell, so the cells share their draws, and thread scheduling cannot leak
into the results.
"""
import hashlib
from pathlib import Path

from mmclab.harness import (config_from_dict, emit_csv, emit_json_summary,
                            run_experiment)

config = config_from_dict({
    "experiment": "caption-sweep-dm1",
    "name": "demo-sweep",
    "root_seed": 123,
    "trials": 3,
    "data": {"model": "dm1", "sigma_core": 1.0, "sigma_spu": 0.02, "p_spu": 0.999},
    "modality": {"d_I": 2, "d_T": 2},
    "methods": ["mmcl-closed"],
    "train": {"n_train": 10000, "p_dim": 2, "rho": 1.0},
    "eval": {"n_eval": 10000, "splits": ["true"]},
    "sweep": {"pi_core": [0.0, 0.5, 1.0]},
    "tolerance": 0.03,
})

out = Path("demo_output")
out.mkdir(exist_ok=True)

records = run_experiment(config, threads=2)
emit_csv(records, out / "results.csv")
summary = emit_json_summary(records, out / "summary.json")

print(f"{len(records)} records over {len({r.run_id for r in records})} runs")
for cell in summary["cells"]:
    if cell["group"] == "minority":
        print(f"pi_core={cell['params']['pi_core']}: minority accuracy "
              f"mean {cell['mean']:.4f} (min {cell['min']:.4f}, max {cell['max']:.4f})"
              + (f", prediction {cell['prediction']:.4f} -> "
                 f"{'ok' if cell['passed'] else 'FAIL'}" if "prediction" in cell else ""))
print("verdict:", "all passed" if summary["all_passed"] else "failures present")

rerun = run_experiment(config, threads=8)
emit_csv(rerun, out / "results_rerun.csv")
h1 = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
h2 = hashlib.sha256((out / "results_rerun.csv").read_bytes()).hexdigest()
print(f"csv digests match across thread counts: {h1 == h2}")
print(f"outputs in {out}/")
