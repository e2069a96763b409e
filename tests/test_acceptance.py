"""Acceptance gate: the nine go/no-go checks for this package.

Each test prints one ``[acceptance]`` line with the measured margin before
asserting, so a teed test run doubles as the acceptance report:

1. Round-weighted barycenters equal a per-round accumulation oracle within
   1e-12 per coordinate on 100 random fixtures, under 1 second.
2. PCA axes orthonormal, variance accounting exact, and projections equal
   a full eigendecomposition oracle within 1e-8 on 100 matrices (200 x 27),
   under 10 seconds.
3. CP recovery: planted rank-3 tensors (500 x 28 x 18, sigma 0.01,
   5 restarts) reach factor match >= 0.95 against the planted truth on at
   least 19 of 20 seeds, under 2 minutes.
4. Rank selection: scans over [1, 8] recover planted R* in {2, 3, 4}
   (sigma 0.05) on at least 16 of 20 seeds per R*.
5. Best-restart error curves are non-increasing in R within 2x the
   cross-restart standard deviation, on every scan from criterion 4.
6. distance_with_error sigma lies within 3 Monte-Carlo standard errors of
   a 100k-sample oracle on 50 random configurations.
7. Planted-scenario phenomenology (convergence minimum, stage ordering,
   concentration peak, spread inflection, emerging-cohort top-10) holds on
   at least 18 of 20 seeds per check, full suite under 5 minutes.
8. The CLI ``all`` pipeline rerun with identical config and seed emits
   byte-identical CSV artifacts.
9. euclidean_distance satisfies symmetry, identity and the triangle
   inequality on 10^4 random triples with at most 1e-9 slack.
"""
import csv
import json
import time

import numpy as np
import pytest

import sectorspace as ss
from sectorspace import cli, metrics, pca, synth, tca
from sectorspace.errors import AnalysisError
from sectorspace.ingest import StageClass
from sectorspace.profiles import (
    ProfileOptions,
    SectorActivity,
    build_profiles,
    group_profiles,
    stage_partition,
)
from conftest import make_profiles

STAGES = list(StageClass)


def announce(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c1_barycenter_oracle(capsys):
    rng = np.random.default_rng(101)
    fixtures = []
    for _ in range(100):
        n = int(rng.integers(2, 51))
        p = int(rng.integers(3, 11))
        matrix = rng.uniform(0.01, 1.0, (n, p))
        weights = rng.uniform(0.5, 9.0, n)
        fixtures.append(make_profiles(matrix, weights=weights))

    start = time.perf_counter()
    worst = 0.0
    for profiles in fixtures:
        point = pca.barycenter(profiles)
        acc = np.zeros(len(profiles.sectors))
        total = 0.0
        for counts in profiles.rounds:
            acc += counts
            total += counts.sum()
        worst = max(worst, float(np.abs(point.coords - acc / total).max()))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-12 and elapsed < 1.0
    announce(capsys, "1 barycenter oracle equivalence", ok,
             f"max dev {worst:.2e}, {elapsed:.2f}s for 100 fixtures")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_c2_pca_oracle(capsys):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        scales = rng.uniform(0.5, 3.0, 27)
        matrix = rng.standard_normal((200, 27)) * scales
        model = pca.fit_pca_model(matrix, 27)

        gram_dev = float(np.abs(model.axes @ model.axes.T - np.eye(27)).max())

        means = matrix.mean(axis=0)
        stds = matrix.std(axis=0, ddof=1)
        z = (matrix - means) / stds
        cov = z.T @ z / (matrix.shape[0] - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        axes = eigvecs[:, order].T.copy()
        for i, row in enumerate(axes):
            if row[np.argmax(np.abs(row))] < 0:
                axes[i] = -row

        trace_dev = abs(float(model.explained_variance.sum()) - float(np.trace(cov)))
        axes_dev = float(np.abs(model.axes - axes).max())
        var_dev = float(np.abs(model.explained_variance - eigvals).max())
        proj_dev = float(np.abs(pca.project(model, matrix) - z @ axes.T).max())
        worst = max(worst, gram_dev, trace_dev, axes_dev, var_dev, proj_dev)
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-8 and elapsed < 10.0
    announce(capsys, "2 PCA eigendecomposition oracle", ok,
             f"max dev {worst:.2e}, {elapsed:.1f}s for 100 matrices")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_c3_cp_recovery(capsys):
    start = time.perf_counter()
    scores = []
    for seed in range(20):
        tensor, truth = synth.generate_cp_tensor(500, 28, 18, 3, noise=0.01,
                                                 seed=seed)
        models = [tca.cp_als(tensor, 3, seed=tca._restart_seed(seed, 3, j))
                  for j in range(5)]
        errors = [tca.reconstruction_error(m, tensor) for m in models]
        best = models[int(np.argmin(errors))]
        scores.append(tca.factor_match_score(best, truth.cp_model()))
    elapsed = time.perf_counter() - start

    hits = sum(score >= 0.95 for score in scores)
    ok = hits >= 19 and elapsed < 120.0
    announce(capsys, "3 CP recovery on planted rank-3", ok,
             f"{hits}/20 seeds with match >= 0.95, min {min(scores):.3f}, "
             f"{elapsed:.1f}s")
    assert hits >= 19
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def rank_scans():
    """Planted-rank scans shared by criteria 4 and 5.

    The scan itself is run with the similarity gate disabled so that every
    diagnostic is recorded; criterion 4 applies the 0.8 gate through
    select_rank exactly as a caller would.
    """
    start = time.perf_counter()
    scans = {}
    for rstar in (2, 3, 4):
        for seed in range(20):
            tensor, _ = synth.generate_cp_tensor(120, 20, 12, rstar,
                                                 noise=0.05, seed=seed)
            scans[rstar, seed] = tca.rank_scan(
                tensor, range(1, 9), restarts=5, seed=seed,
                tol=1e-7, max_iter=2000, similarity_threshold=0.0,
            )
    return scans, time.perf_counter() - start


def test_c4_rank_selection(rank_scans, capsys):
    scans, elapsed = rank_scans
    hits = {2: 0, 3: 0, 4: 0}
    for (rstar, _), diag in scans.items():
        try:
            chosen = tca.select_rank(diag.ranks, diag.best_error,
                                     diag.similarity, 0.8)
        except AnalysisError:
            chosen = None
        hits[rstar] += chosen == rstar
    ok = all(hits[rstar] >= 16 for rstar in hits)
    announce(capsys, "4 rank selection on planted R*", ok,
             f"R*=2: {hits[2]}/20, R*=3: {hits[3]}/20, R*=4: {hits[4]}/20, "
             f"scan time {elapsed:.0f}s")
    assert hits[2] >= 16 and hits[3] >= 16 and hits[4] >= 16


def test_c5_error_monotonicity(rank_scans, capsys):
    scans, _ = rank_scans
    bad = 0
    for diag in scans.values():
        slack = 2.0 * max(float(diag.restart_errors[r].std(ddof=1))
                          for r in diag.ranks)
        errors = [diag.best_error[r] for r in diag.ranks]
        if not all(errors[i + 1] <= errors[i] + slack
                   for i in range(len(errors) - 1)):
            bad += 1
    ok = bad == 0
    announce(capsys, "5 reconstruction-error monotonicity", ok,
             f"{len(scans) - bad}/{len(scans)} scans non-increasing "
             f"within 2x restart std")
    assert bad == 0


def test_c6_uncertainty_propagation(capsys):
    rng = np.random.default_rng(11)
    n_samples = 100_000
    worst_z = 0.0
    failures = 0
    start = time.perf_counter()
    for _ in range(50):
        d = int(rng.integers(1, 7))
        a = rng.normal(0.0, 3.0, d)
        offset = rng.normal(0.0, 1.0, d)
        offset = offset / np.linalg.norm(offset) * rng.uniform(1.0, 5.0)
        b = a + offset
        dist = float(np.linalg.norm(a - b))
        sigma_a = rng.uniform(0.0, 0.03 * dist, d)
        sigma_b = rng.uniform(0.0, 0.03 * dist, d)
        point_a = pca.BarycenterPoint(year=2010, coords=a, weight=1.0,
                                      sigma=sigma_a)
        point_b = pca.BarycenterPoint(year=2010, coords=b, weight=1.0,
                                      sigma=sigma_b)
        _, sigma = metrics.distance_with_error(point_a, point_b)

        draws = np.linalg.norm(
            (a + sigma_a * rng.standard_normal((n_samples, d)))
            - (b + sigma_b * rng.standard_normal((n_samples, d))),
            axis=1,
        )
        mc_sigma = float(draws.std(ddof=1))
        se = mc_sigma / np.sqrt(2.0 * (n_samples - 1))
        z = abs(sigma - mc_sigma) / se
        worst_z = max(worst_z, z)
        failures += z > 3.0
    elapsed = time.perf_counter() - start

    ok = failures == 0
    announce(capsys, "6 sigma vs Monte-Carlo oracle", ok,
             f"0 of 50 configs allowed beyond 3 SE, worst z {worst_z:.2f}, "
             f"{elapsed:.1f}s")
    assert failures == 0


# --- criterion 7: planted-scenario phenomenology ---------------------------


def _load_scenario(name, seed, root):
    config = synth.SCENARIOS[name](seed=seed)
    files, truth = synth.generate_ecosystem(config, root / f"{name}_{seed}")
    dataset = ss.filter_startups(ss.load_dataset(
        files.startups, files.rounds, files.investors, files.ontology))
    return config, truth, dataset


def _all_profiles(dataset, years):
    options = ProfileOptions(exclude_sectors=frozenset(), years=years)
    return build_profiles(SectorActivity.from_dataset(dataset), options=options), options


def _check_convergence_minimum(seed, root):
    config, truth, dataset = _load_scenario("convergence", seed, root)
    profiles, _ = _all_profiles(dataset, config.years)
    investors = dataset.investor_by_id
    series = metrics.distance_series(group_profiles(profiles, "vc", investors),
                                     group_profiles(profiles, "accelerator", investors),
                                     "type:vc", "type:accelerator")
    return abs(series.minimum_year() - truth.turn_year) <= 1


def _check_stage_ordering(seed, root):
    config, truth, dataset = _load_scenario("stage_offsets", seed, root)
    options = ProfileOptions(exclude_sectors=frozenset(), years=config.years)
    activity = SectorActivity.from_dataset(dataset)
    accelerator = group_profiles(build_profiles(activity, options=options), "accelerator",
                                 dataset.investor_by_id)
    parts = stage_partition(activity, options=options)
    minima = []
    for stage in STAGES:
        series = metrics.distance_series(parts[stage], accelerator,
                                         f"stage:{stage.value}", "type:accelerator")
        minima.append(min(series.distances))
    return all(minima[i] < minima[i + 1] for i in range(len(minima) - 1))


def _check_concentration(seed, root):
    config, truth, dataset = _load_scenario("concentration", seed, root)
    profiles, _ = _all_profiles(dataset, config.years)
    model = pca.fit_on_profiles(profiles, 2)
    grid = metrics.heatmap_grid(profiles, model)
    years = sorted(grid.counts)
    shares = {year: grid.max_cell_share(year) for year in years}
    peak = truth.concentration_year
    start = truth.concentration_window[0]
    share_ok = (shares[peak] > shares[start - 1]
                and shares[peak] > shares[years[-1]])

    spread = metrics.spread_series(profiles)
    inflection = spread[int(np.argmin([entry[1] for entry in spread]))][0]
    spread_ok = abs(inflection - peak) <= 1
    return share_ok, spread_ok


def _check_emerging_cohort(seed, root):
    config, truth, dataset = _load_scenario("emergence", seed, root)
    profiles, _ = _all_profiles(dataset, config.years)
    tensor = tca.build_tensor(profiles)
    models = [tca.cp_als(tensor, 2, seed=tca._restart_seed(seed, 2, j))
              for j in range(5)]
    errors = [tca.reconstruction_error(m, tensor) for m in models]
    best = models[int(np.argmin(errors))]
    component = tca.emerging_component(best, truth.activation_year)
    top = tca.top_investors(best, component, 10, dataset.investor_by_id)
    cohort = set(truth.cohort_ids)
    return sum(1 for iid, _, _ in top if iid in cohort) >= 8


def test_c7_scenario_phenomenology(tmp_path_factory, capsys):
    root = tmp_path_factory.mktemp("scenarios")
    start = time.perf_counter()
    tallies = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}
    for seed in range(20):
        tallies["a"] += _check_convergence_minimum(seed, root)
        tallies["b"] += _check_stage_ordering(seed, root)
        share_ok, spread_ok = _check_concentration(seed, root)
        tallies["c"] += share_ok
        tallies["d"] += spread_ok
        tallies["e"] += _check_emerging_cohort(seed, root)
    elapsed = time.perf_counter() - start

    ok = all(count >= 18 for count in tallies.values()) and elapsed < 300.0
    detail = ", ".join(f"{key} {count}/20" for key, count in tallies.items())
    announce(capsys, "7 scenario phenomenology", ok,
             f"{detail}, {elapsed:.0f}s")
    for key, count in tallies.items():
        assert count >= 18, f"check ({key}) held on only {count}/20 seeds"
    assert elapsed < 300.0


def test_c8_cli_determinism(tmp_path_factory, capsys):
    root = tmp_path_factory.mktemp("determinism")
    files, truth = synth.generate_ecosystem(synth.convergence_scenario(seed=0),
                                            root / "data")
    flags = [
        "--startups", str(files.startups),
        "--rounds", str(files.rounds),
        "--investors", str(files.investors),
        "--ontology", str(files.ontology),
        "--years", "2004:2017",
        "--r-range", "1:3", "--restarts", "3", "--grid", "10x10",
    ]
    for sub in ("run_a", "run_b"):
        assert cli.main(["all", *flags, "--out", str(root / sub)]) == 0
    csvs = sorted(p.name for p in (root / "run_a").glob("*.csv"))
    assert csvs
    differing = [
        name for name in csvs
        if (root / "run_a" / name).read_bytes()
        != (root / "run_b" / name).read_bytes()
    ]

    # planted oracle on the same artifacts: the vc/accelerator distance
    # series bottoms out at the planted turn year
    with (root / "run_a" / "distances.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    min_year = int(min(rows, key=lambda row: float(row[3]))[0])
    min_ok = abs(min_year - truth.turn_year) <= 1

    ok = not differing and min_ok
    announce(capsys, "8 CLI rerun determinism", ok,
             f"{len(csvs)} CSV artifacts byte-identical, distance minimum "
             f"at {min_year} (planted {truth.turn_year})")
    assert not differing, differing
    assert min_ok


def test_c9_metric_axioms(capsys):
    rng = np.random.default_rng(909)
    violations = 0
    worst = 0.0
    start = time.perf_counter()
    for _ in range(10_000):
        d = int(rng.integers(1, 9))
        a, b, c = rng.normal(0.0, 5.0, (3, d))
        dist_ab = metrics.euclidean_distance(a, b)
        dist_ba = metrics.euclidean_distance(b, a)
        dist_ac = metrics.euclidean_distance(a, c)
        dist_bc = metrics.euclidean_distance(b, c)
        sym = abs(dist_ab - dist_ba)
        ident = metrics.euclidean_distance(a, a)
        tri = dist_ac - (dist_ab + dist_bc)
        worst = max(worst, sym, ident, tri)
        violations += sym > 1e-9 or ident > 1e-9 or tri > 1e-9
    elapsed = time.perf_counter() - start

    ok = violations == 0
    announce(capsys, "9 metric axioms", ok,
             f"0 violations on 10000 triples (worst slack {worst:.2e}), "
             f"{elapsed:.1f}s")
    assert violations == 0
