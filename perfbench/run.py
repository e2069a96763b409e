"""Benchmark of the sectorspace pipeline, run from the repository root.

    python3 perfbench/run.py --workload pipeline_convergence --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each run measures one workload (``all`` runs every workload, each in its own
process) and prints a report followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Full records, with
the environment and sample counts, and traced spans go to
``perfbench/results/``. See ``perfbench/README.md`` for the workloads and
metrics.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1


def _report(record: dict) -> None:
    env = record["env"]
    print(f"# {env['workload']} seed {env['seed']}: {record['attempted']} operations, "
          f"{record['failed']} failed")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, metric in {**record["metrics"], **record["reported"]}.items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>14s} {metric['unit']:6s} "
              f"n={record['samples'].get(name, 1)}")


def _run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    import harness

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the measured operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sectorspace" / "__init__.py").is_file():
        print(f"error: no sectorspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so set it before any import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # one core for the operations, the reference computation and every child,
    # so that the reference runs at the speed the operations ran at
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, "
                     + ", ".join(harness.WORKLOADS))
    record = harness.run_workload(harness.WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), HERE / "work",
                                  HERE / "results")
    _report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
