"""Benchmark entry point. Run from the repository root:

    python3 perfbench/run.py --workload bilevel-flow --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

A single workload runs in this process and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. `all` runs
every workload in its own child process, one after another. Full results,
with the environment, and the spans of a traced run go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

# Pinned before numpy loads: at the seed commit 1 vs 2 OpenBLAS threads moved
# bilevel-flow time by about 20%, and the benchmark must not depend on the host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("bilevel-flow", "joint-revin", "forecast-small-batch")


def _import_inflow():
    src = ROOT / "src"
    if not (src / "inflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no inflow sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import inflow
    if Path(inflow.__file__).resolve().parent != (src / "inflow").resolve():
        sys.exit(f"perfbench: imported inflow from {inflow.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """The thread count OpenBLAS reports, or the pinned value if it cannot be asked."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*.so"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return BLAS_THREADS


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    _import_inflow()
    import workloads
    from tracer import TargetMissing

    env = environment()
    if env["blas_threads"] > env["nproc"]:
        sys.exit(f"perfbench: {env['blas_threads']} BLAS threads exceed nproc {env['nproc']}")
    try:
        result = workloads.run(workloads.WORKLOADS[name], seed, seconds, trace)
    except TargetMissing as e:
        sys.exit(f"perfbench: {e}")
    tracer = result.pop("tracer")

    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    done, planned = sum(result["activities"].values()), result["planned"]
    cut = "" if done == planned else f", cut at the time cap ({done} of {planned})"
    print(f"# workload {name} seed {seed} trace {int(trace)}: activities "
          f"{result['activities']}{cut}; digests params={result['digests']['params']} "
          f"predictions={result['digests']['predictions']}")
    units = {**workloads.E2E_UNITS, **workloads.PRINTED_ONLY_UNITS}
    for metric, (value, count) in result["e2e"].items():
        print(f"{metric:24s} {value:14.6g} {units[metric]:14s} n={count}")
    val_mse = math.nan if result["val_mse"] is None else result["val_mse"]
    print(f"{'val_mse':24s} {val_mse:14.6g} {'mse':14s} "
          f"(reference {result['reference_mse']:.6g})")
    print(f"{'error_rate':24s} {result['failed'] / result['attempted']:14.6g} "
          f"{'failed/attempted':14s} n={result['attempted']}")
    for message in result["errors"]:
        print(f"# check failed: {message}")
    if trace:
        metrics = {k: {"value": v, "unit": workloads.PER_LAYER_UNITS[k]}
                   for k, v in result["per_layer"].items()}
        for k, v in result["per_layer"].items():
            print(f"  {k:44s} {v:14.6g} {workloads.PER_LAYER_UNITS[k]}")
    else:
        metrics = {k: {"value": result["e2e"][k][0], "unit": unit}
                   for k, unit in workloads.E2E_UNITS.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    record = dict(result, env=env, seconds=seconds,
                  e2e={k: {"value": v, "n": c} for k, (v, c) in result["e2e"].items()})
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        tracer.write(stem.with_suffix(".npz"))

    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process, so none inherits another's heap or caches."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        status = status or proc.returncode
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
