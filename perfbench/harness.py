"""Workloads, the closed measurement loop and the output checks.

One process runs one workload: it builds the inputs from the seed in a
child process (timed as set-up, kept out of the peak-memory figure), runs
one operation at a time until the time budget is spent, checking every
result, and then times cold imports of ``sectorspace.cli`` in fresh
interpreters. In traced mode every other operation runs with the wrappers
of :mod:`tracing` installed, so the same run yields per-layer metrics and
the tracing overhead.

The machine this runs on is shared, and a core's speed changes by half
from one second to the next as other tenants come and go. So a fixed
reference computation (:func:`reference_s`) that slows with the core is
timed while each operation and each set-up runs (:class:`SpeedProbe`) and
around each import. ``wall_ref`` and ``import_ref`` give times in passes
of that reference, and ``setup_s`` gives set-up time in seconds at a fixed
pass time (``NOMINAL_PASS_S``). Plain seconds are kept in the record and
the report.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np
import scipy

from sectorspace import cli, synth, tca
from sectorspace.errors import AnalysisError

import tracing

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 2  # two results are needed to check determinism
IMPORT_PROBES = 9
IMPORT_REFERENCE_PASSES = 250  # about 0.1 s on each side of an import
PROBE_INTERVAL_S = 0.1
# seconds per reference pass on an idle core of the 2-core Xeon host the
# README's figures come from; setup_s is set-up time at this speed
NOMINAL_PASS_S = 0.0004
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPS = 500

# the end-to-end metrics BENCHMARK.json bounds, then those only reported
END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "import_ref": "ref", "peak_rss_mb": "MB",
    "oracle_ok_frac": "ratio", "fit_error": "ratio", "digest_stable": "ratio",
}
REPORTED_UNITS = {"setup_raw_s": "s", "wall_s": "s", "import_s": "s", "ref_s": "s", "failed_frac": "ratio"}
PER_LAYER_UNITS = {
    name: ("s" if name.endswith("_s") else "us" if name.endswith("us_per_sweep")
           else "ratio" if name.endswith("_frac") else "bytes" if "bytes" in name
           else "count")
    for name in [*tracing.layer_metrics([], Counter()),
                 "import.scipy_s", "trace.overhead_s"]
}


class CheckError(Exception):
    """An operation finished but its output is missing or malformed."""


@dataclasses.dataclass(frozen=True)
class Outcome:
    digest: str
    oracle_hits: int
    oracle_checks: int
    fit_error: float


def _sha256_files(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class Pipeline:
    """``sectorspace all`` on the convergence scenario, archetype counts scaled."""

    name: str
    scale: float = 1.0
    flags: tuple[str, ...] = ()
    expected = ("profiles.csv", "pca_loadings.csv", "trajectory.csv",
                "tca_factors.csv", "tca_diagnostics.csv", "top_investors.csv",
                "distances.csv", "spread.csv", "manifest_all.json")

    def prepare(self, seed: int, work: Path) -> dict:
        config = synth.convergence_scenario(seed=seed)
        if self.scale != 1.0:
            config = dataclasses.replace(config, archetypes=tuple(
                dataclasses.replace(a, count=max(1, round(a.count * self.scale)))
                for a in config.archetypes))
        files, truth = synth.generate_ecosystem(config, work / "data")
        return {"argv": ["--startups", str(files.startups), "--rounds", str(files.rounds),
                         "--investors", str(files.investors),
                         "--ontology", str(files.ontology),
                         "--years", f"{config.years[0]}:{config.years[-1]}"],
                "turn_year": truth.turn_year}

    def operate(self, inputs: dict, out: Path) -> int:
        with redirect_stdout(io.StringIO()):
            return cli.main(["all", *inputs["argv"], *self.flags, "--out", str(out)])

    def check(self, inputs: dict, code: int, out: Path) -> Outcome:
        if code != 0:
            raise CheckError(f"sectorspace all exited with {code}")
        names = {path.name for path in out.iterdir()}
        missing = sorted(set(self.expected) - names)
        if missing or not any(n.startswith("heatmap_") and n.endswith(".csv") for n in names):
            raise CheckError(f"missing artifacts: {missing or 'heatmap_<year>.csv'}")
        results = json.loads((out / "manifest_all.json").read_text())["results"]
        fit = results["tca"]["best_error"][str(results["tca"]["chosen_R"])]
        if not 0.0 < fit <= 1.0:
            raise CheckError(f"best error {fit} at the chosen rank is not in (0, 1]")
        with (out / "distances.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        if not rows:
            raise CheckError("distances.csv has no rows")
        low = int(min(rows, key=lambda row: float(row["distance"]))["year"])
        return Outcome(_sha256_files(out), int(abs(low - inputs["turn_year"]) <= 1), 1, fit)


@dataclasses.dataclass(frozen=True)
class PlantedScan:
    """``tca.rank_scan`` on planted-rank tensors, one per planted rank."""

    name: str
    shape: tuple[int, int, int] = (120, 20, 12)
    planted: tuple[int, ...] = (2, 3, 4)
    ranks: tuple[int, ...] = tuple(range(1, 9))
    restarts: int = 5
    noise: float = 0.05
    tol: float = 1e-7
    max_iter: int = 2000

    def prepare(self, seed: int, work: Path) -> dict:
        tensors = []
        for rstar in self.planted:
            tensor, _ = synth.generate_cp_tensor(*self.shape, rstar, noise=self.noise,
                                                 seed=seed)
            tensors.append((rstar, str(work / f"planted_R{rstar}.npy")))
            np.save(tensors[-1][1], tensor)
        return {"tensors": tensors, "seed": seed}

    def operate(self, inputs: dict, out: Path) -> list:
        return [
            (rstar, tca.rank_scan(np.load(path), self.ranks, restarts=self.restarts,
                                  seed=inputs["seed"], tol=self.tol,
                                  max_iter=self.max_iter, similarity_threshold=0.0))
            for rstar, path in inputs["tensors"]
        ]

    def check(self, inputs: dict, scans: list, out: Path) -> Outcome:
        digest = hashlib.sha256()
        hits = 0
        fits = []
        for rstar, diag in scans:
            errors = np.array([diag.best_error[r] for r in self.ranks])
            if not (np.isfinite(errors).all() and (errors > 0).all()):
                raise CheckError(f"R*={rstar}: best errors {errors} are not positive")
            try:
                chosen = tca.select_rank(diag.ranks, diag.best_error, diag.similarity, 0.8)
            except AnalysisError:
                chosen = None
            hits += chosen == rstar
            fits.append(diag.best_error[rstar])
            for r in diag.ranks:
                model = diag.best_models[r]
                for array in (diag.restart_errors[r], np.float64(diag.similarity[r]),
                              model.component_weights, *model.factors):
                    digest.update(np.ascontiguousarray(array).tobytes())
        return Outcome(digest.hexdigest(), hits, len(scans), float(np.mean(fits)))


# why each workload exists: BENCHMARK.json and README.md in this directory
WORKLOADS = {w.name: w for w in (
    Pipeline("pipeline_convergence"),
    Pipeline("pipeline_scaled", scale=12.0, flags=("--r-range", "1:3", "--restarts", "3")),
    PlantedScan("rank_scan_planted"),
)}


def _timed_setup(workload, seed: int, work: str) -> tuple[dict, dict]:
    """Build the inputs several times, in seconds and in reference passes;
    runs in the set-up child process."""
    times: dict[str, list[float]] = {"seconds": [], "relative": []}
    while len(times["seconds"]) < SETUP_MIN_REPS or (
            sum(times["seconds"]) < SETUP_MIN_SECONDS
            and len(times["seconds"]) < SETUP_MAX_REPS):
        with SpeedProbe() as probe:
            inputs = workload.prepare(seed, Path(work))
        times["seconds"].append(probe.seconds)
        times["relative"].append(probe.relative)
    return times, inputs


def _setup(workload, seed: int, work: Path) -> tuple[dict, dict]:
    """Build the inputs in a child process, so its memory stays out of peak RSS."""
    request = json.dumps({"kind": type(workload).__name__, "spec": dataclasses.asdict(workload),
                          "seed": seed, "work": str(work)})
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), request],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    times, inputs = json.loads(proc.stdout)
    return times, inputs


@functools.cache
def _reference_data() -> tuple:
    """Inputs of the reference computation: small enough to stay in a
    core's own cache, allocated once."""
    column = np.random.default_rng(0).random(4_096)
    return ([f"k{i % 100}" for i in range(400)],
            np.linspace(-1.0, 1.0, 160).reshape(20, 8), column, np.empty_like(column))


def _reference_pass(keys, factor, column, scratch) -> None:
    totals: dict[str, float] = {}
    for i, key in enumerate(keys):
        totals[key] = totals.get(key, 0.0) + i * 0.5
    sorted(zip(keys, range(len(keys))), key=lambda row: (row[0], -row[1]))
    for _ in range(15):
        gram = (factor.T @ factor) * (factor.T @ factor)
        np.linalg.solve(gram + np.eye(8), factor.T @ factor)
    np.copyto(scratch, column)
    scratch.sort()


def reference_s(passes: int = 1) -> float:
    """Seconds per pass of a fixed computation that belongs to the
    benchmark, not the program (about 0.4 ms a pass on an idle core).

    The pass resembles the program's own work: dictionary updates and a
    sort of small tuples as ingest and profiles do, and Gram products and
    solves on an 8-column matrix as CP-ALS does. One untimed pass first
    loads its data into the cache and the garbage collector is off, so
    what the caller left in the cache and the heap does not change the
    time; what does is how fast the core runs, which on a shared host
    changes by half from second to second.
    """
    data = _reference_data()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_pass(*data)
        start = time.perf_counter()
        for _ in range(passes):
            _reference_pass(*data)
        return (time.perf_counter() - start) / passes
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the core's speed while an operation runs.

    Every ``PROBE_INTERVAL_S`` of wall time a ``SIGALRM`` handler times one
    reference pass (about 1% of the operation's time). ``seconds`` is the
    time between entry and exit less the time spent in the handler;
    ``relative`` is that time in reference passes at the harmonic mean of
    the sampled pass times, which weights each interval by how fast the
    core ran in it.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._began
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - self.spent
        if not self.samples:  # an operation shorter than one interval
            self.samples.append(reference_s())
        self.relative = self.seconds / statistics.harmonic_mean(self.samples)

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - began


def _time_imports(trace: bool) -> dict[str, list[float]]:
    """Cold ``import sectorspace.cli`` in fresh interpreters, each between two
    timings of the reference; in seconds and in reference passes at the mean
    of the two.

    With ``trace`` the interpreters run under ``-X importtime`` and the self
    time of every ``scipy`` module is summed as well.
    """
    code = ("import time; t = time.perf_counter(); import sectorspace.cli; "
            "print(time.perf_counter() - t)")
    argv = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", code]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times: dict[str, list[float]] = {"seconds": [], "scipy": [],
                                     "references": [reference_s(IMPORT_REFERENCE_PASSES)]}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        fields = [line.split("|") for line in proc.stderr.splitlines()]
        times["scipy"].append(sum(int(f[0].split(":")[1]) for f in fields
                                  if len(f) == 3 and f[2].strip().startswith("scipy")) / 1e6)
        times["seconds"].append(float(proc.stdout.split()[-1]))
        times["references"].append(reference_s(IMPORT_REFERENCE_PASSES))
    refs = times["references"]
    times["relative"] = [t / ((before + after) / 2)
                         for t, before, after in zip(times["seconds"], refs, refs[1:])]
    return times


def _git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "git_revision": _git_revision(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _number(value: float) -> float | None:
    """JSON has no NaN: a metric that could not be measured is null."""
    return value if math.isfinite(value) else None


def run_workload(workload, seed: int, seconds: float, trace: bool, work_root: Path,
                 results_dir: Path | None = None) -> dict:
    """Measure one workload and return the result record.

    The record holds the contract fields (``correct``, ``attempted``,
    ``failed``, ``metrics``) plus ``reported`` (metrics outside
    BENCHMARK.json), ``env``, ``samples``, ``times`` and ``spans``.
    Failed operations are counted, never raised.
    """
    work = work_root / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, inputs = _setup(workload, seed, work)
        record = _measure(workload, inputs, seconds, trace, work / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    imports = _time_imports(trace)

    walls, outcomes, failed, attempted = (record[k] for k in
                                          ("walls", "outcomes", "failed", "attempted"))
    checks = sum(o.oracle_checks for o in outcomes)
    values = {
        "setup_s": _median(setup_times["relative"]) * NOMINAL_PASS_S,
        "wall_ref": _median(record["relative"][False]),
        "import_ref": _median(imports["relative"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "oracle_ok_frac": sum(o.oracle_hits for o in outcomes) / checks if checks else 0.0,
        "fit_error": _median([o.fit_error for o in outcomes]),
        "digest_stable": ((len(outcomes) - record["unstable"]) / len(outcomes)
                          if outcomes else 0.0),
        "setup_raw_s": _median(setup_times["seconds"]),
        "wall_s": _median(walls[False]),
        "import_s": _median(imports["seconds"]),
        "ref_s": _median(record["references"]),
        "failed_frac": failed / attempted,
    }
    samples = {"setup_s": len(setup_times["seconds"]), "wall_ref": len(walls[False]),
               "import_ref": IMPORT_PROBES, "oracle_ok_frac": checks,
               "fit_error": len(outcomes), "digest_stable": len(outcomes),
               "setup_raw_s": len(setup_times["seconds"]),
               "wall_s": len(walls[False]), "import_s": IMPORT_PROBES,
               "ref_s": len(record["references"]),
               "failed_frac": attempted}
    units, reported_units = END_TO_END_UNITS, REPORTED_UNITS
    if trace:
        rows = record["layers"]
        values = {name: _median([row[name] for row in rows]) for name in rows[0]} if rows else {}
        values["import.scipy_s"] = _median(imports["scipy"])
        # in reference passes, so a change of the core's speed between the
        # traced and the bare operations does not count; then in seconds
        # at the run's median pass time
        values["trace.overhead_s"] = ((_median(record["relative"][True])
                                       - _median(record["relative"][False]))
                                      * _median(record["references"]))
        samples = {name: len(rows) for name in values}
        samples["import.scipy_s"] = IMPORT_PROBES
        units, reported_units = PER_LAYER_UNITS, {}

    def table(names: dict) -> dict:
        return {name: {"value": _number(values.get(name, math.nan)), "unit": unit}
                for name, unit in names.items()}

    result = {
        "correct": failed == 0 and all(math.isfinite(values.get(n, math.nan)) for n in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": table(units),
    }
    full = {**result, "reported": table(reported_units), "samples": samples,
            "times": {"setup": setup_times, "untraced": walls[False], "traced": walls[True],
                      "untraced_ref": record["relative"][False],
                      "traced_ref": record["relative"][True],
                      "references": record["references"], "imports": imports},
            "env": environment(workload.name, seed)}
    if results_dir is not None:
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
        (results_dir / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")
        if trace:
            with (results_dir / f"{stem}-spans.jsonl").open("w") as handle:
                for span in record["spans"]:
                    handle.write(json.dumps(span.to_json()) + "\n")
    full["spans"] = record["spans"]
    return full


def _measure(workload, inputs: dict, seconds: float, trace: bool, out: Path) -> dict:
    """Closed loop: one operation at a time until the next would overrun."""
    tracer = tracing.Tracer() if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    relative: dict[bool, list[float]] = {False: [], True: []}
    references: list[float] = []
    outcomes: list[Outcome] = []
    layers: list[dict] = []
    failed = unstable = attempted = 0
    start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if tracer is not None:
            mark = len(tracer.spans)
            tracer.counts.clear()
            tracer.run_id = f"{workload.name}/op{attempted}"
        attempted += 1
        gc.collect()  # every operation starts from the same heap, for peak_rss_mb
        try:
            with tracer.installed() if traced else nullcontext(), SpeedProbe() as probe:
                result = workload.operate(inputs, out)
            walls[traced].append(probe.seconds)
            relative[traced].append(probe.relative)
            references += probe.samples
            outcome = workload.check(inputs, result, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            if outcomes and outcome.digest != outcomes[0].digest:
                print(f"op {attempted - 1}: output differs from the first operation's",
                      file=sys.stderr)
                failed += 1
                unstable += 1
            outcomes.append(outcome)
            if traced:
                layers.append(tracing.layer_metrics(tracer.spans[mark:], tracer.counts))
        elapsed = time.perf_counter() - start
        if attempted >= MIN_OPS and elapsed + elapsed / attempted > seconds:
            break
    return {"walls": walls, "relative": relative, "references": references,
            "outcomes": outcomes, "failed": failed, "unstable": unstable,
            "attempted": attempted, "layers": layers,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "spans": tracer.spans if tracer is not None else []}


if __name__ == "__main__":  # the set-up child started by _setup
    request = json.loads(sys.argv[1])
    kind = {cls.__name__: cls for cls in (Pipeline, PlantedScan)}[request["kind"]]
    print(json.dumps(_timed_setup(kind(**request["spec"]), request["seed"], request["work"])))
