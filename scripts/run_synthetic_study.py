"""Run the full analysis over every planted scenario and print the headlines.

Each scenario is generated at the given seed, loaded back through the normal
ingestion path, and summarized against its planted truth: distance minima,
stage ordering, concentration peak, and emerging-cohort recovery.

Usage:
    python scripts/run_synthetic_study.py --seed 0 --out /tmp/study
"""
import argparse
import tempfile
from pathlib import Path

import numpy as np

import sectorspace as ss
from sectorspace import metrics, synth, tca
from sectorspace.profiles import (ProfileOptions, SectorActivity, build_profiles,
                                  group_profiles, stage_partition)


def load(name: str, seed: int, root: Path):
    config = synth.SCENARIOS[name](seed=seed)
    files, truth = synth.generate_ecosystem(config, root / name)
    dataset = ss.filter_startups(ss.load_dataset(
        files.startups, files.rounds, files.investors, files.ontology))
    activity = SectorActivity.from_dataset(dataset)
    options = ProfileOptions(exclude_sectors=frozenset(), years=config.years)
    return truth, dataset, activity, build_profiles(activity, options=options), options


def study_convergence(seed: int, root: Path) -> None:
    truth, dataset, _, profiles, _ = load("convergence", seed, root)
    vc, accelerator = (group_profiles(profiles, label, dataset.investor_by_id)
                       for label in ("vc", "accelerator"))
    series = metrics.distance_series(vc, accelerator, "vc", "accelerator")
    print(f"  vc/accelerator distance minimum at {series.minimum_year()} "
          f"(planted turn {truth.turn_year})")


def study_stage_offsets(seed: int, root: Path) -> None:
    _, dataset, activity, profiles, options = load("stage_offsets", seed, root)
    accelerator = group_profiles(profiles, "accelerator", dataset.investor_by_id)
    for stage, stage_profiles in stage_partition(activity, options=options).items():
        series = metrics.distance_series(stage_profiles, accelerator,
                                         stage.value, "accelerator")
        print(f"  {stage.value:<9} min distance {min(series.distances):.3f} "
              f"at {series.minimum_year()}")


def study_concentration(seed: int, root: Path) -> None:
    truth, _, _, profiles, _ = load("concentration", seed, root)
    model = ss.fit_on_profiles(profiles, 2)
    grid = metrics.heatmap_grid(profiles, model)
    shares = {year: grid.max_cell_share(year) for year in sorted(grid.counts)}
    peak = max(shares, key=shares.get)
    spread = ss.spread_series(profiles)
    inflection = spread[int(np.argmin([entry[1] for entry in spread]))][0]
    print(f"  max-cell share peaks at {peak} ({shares[peak]:.3f}), "
          f"spread minimum at {inflection} "
          f"(planted {truth.concentration_year})")


def study_emergence(seed: int, root: Path) -> None:
    truth, dataset, _, profiles, _ = load("emergence", seed, root)
    tensor = tca.build_tensor(profiles)
    # the restarts need not agree here: with the gate at 0 the scan returns the best one
    best = tca.rank_scan(tensor, [2], restarts=5, seed=seed,
                         similarity_threshold=0.0).best_models[2]
    component = tca.emerging_component(best, truth.activation_year)
    top = tca.top_investors(best, component, 10, dataset.investor_by_id)
    overlap = sum(1 for iid, _, _ in top if iid in set(truth.cohort_ids))
    print(f"  emerging component {component + 1}: {overlap}/10 of the top "
          f"investors are planted cohort members")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for generated tables (default: temp)")
    args = parser.parse_args()

    root = args.out or Path(tempfile.mkdtemp(prefix="sectorspace_study_"))
    root.mkdir(parents=True, exist_ok=True)
    print(f"writing scenario tables under {root}")

    studies = [
        ("convergence", study_convergence),
        ("stage_offsets", study_stage_offsets),
        ("concentration", study_concentration),
        ("emergence", study_emergence),
    ]
    for name, func in studies:
        print(f"{name} (seed {args.seed}):")
        func(args.seed, root)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
