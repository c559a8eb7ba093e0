"""One benchmark run in a fresh process (started by ``run.py``).

Prints human-readable tables, then as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics", ...}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from common import Tracer, environment  # noqa: E402

#: Workload and metric names and units: ``BENCHMARK.json`` is their one
#: source.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import numpy as np
    from repro import nn

    tracer = Tracer() if args.trace else None
    out_dir = HERE / "out"
    scratch = out_dir / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload.startswith("train-"):
            import training as module
        else:
            import serving as module
        result = module.run(args.workload, args.seed, args.seconds, tracer,
                            scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    dtype = np.dtype(nn.get_default_dtype()).name
    env = environment(str(ROOT), dtype, result["info"].get("workers"))
    names = [m["name"] for m in SPEC["per_layer" if args.trace
                                     else "end_to_end"]]
    source = result["layers"] if args.trace else result["report"]
    if args.trace:
        # Layers this workload never enters report 0 (listed in info).
        idle = [name for name in names if name not in source]
        result["info"]["layers_not_entered"] = idle
        source = dict(source, **{name: 0.0 for name in idle})
    missing = [name for name in names if name not in source]
    if missing:
        raise RuntimeError(f"workload did not produce metrics {missing}")
    units = {m["name"]: m["unit"] for m in
             SPEC["end_to_end"] + SPEC["per_layer"]}
    metrics = {name: {"value": float(source[name]), "unit": units[name]}
               for name in names}
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):  # keep the line valid JSON
            result["problems"].append(f"metric {name} is {metric['value']}")
            metric["value"] = -1.0

    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}")
    print(json.dumps({"environment": env, "info": result["info"]},
                     indent=1, sort_keys=True))
    print("-- end-to-end figures (workload's own names)")
    for name, value in sorted(result["named"].items()):
        print(f"   {name:28s} {value:14.6g} {units.get(name, '')}")
    if result.get("census"):
        print("-- request census")
        print(result["census"])
    if tracer is not None:
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_chrome(path)
        print("-- per-layer spans (self = duration minus child spans)")
        print(tracer.render_table())
        print(f"-- chrome trace: {path.relative_to(ROOT)}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
