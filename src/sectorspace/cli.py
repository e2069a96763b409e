"""Command-line pipeline: ingest, profiles, PCA, TCA, distances, spread, synth.

The parsed flags are the run's settings: once the input files are checked,
``--exclude-sector``, ``--stage`` and ``--out`` are resolved on the argparse
namespace, which the stage runners read. Every artifact-producing subcommand
writes CSVs (and deterministic SVGs) under ``--out`` plus a run manifest
with the ``ECHOED`` flags, package version and SHA-256 digests of its inputs.
Exit codes: 0 success, 1 analysis error, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import metrics, pca, reports, svgplot, synth, tca
from .errors import SectorSpaceError
from .ingest import (
    DEFAULT_COUNTRY,
    StageClass,
    ValidatedDataset,
    classify_stage,
    filter_startups,
    load_dataset,
    validate_dataset,
)
from .profiles import (
    DEFAULT_YEARS,
    ProfileOptions,
    SectorActivity,
    build_profiles,
    group_profiles,
    stage_partition,
)

DEFAULT_EXCLUDES = tuple(sorted(ProfileOptions().exclude_sectors))

STAGE_FLAGS = {
    "seed": StageClass.SEED,
    "a": StageClass.SERIES_A,
    "b": StageClass.SERIES_B,
    "c+": StageClass.SERIES_C_PLUS,
}


def _parse_range(text: str, minimum: int | None = None) -> range:
    """Inclusive ``FIRST:LAST`` range; a lone ``N`` means ``N:N``."""
    lo, _, hi = text.partition(":")
    try:
        first = int(lo)
        last = int(hi) if hi else first
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected FIRST:LAST")
    if last < first:
        raise argparse.ArgumentTypeError(f"range {text!r} is reversed")
    if minimum is not None and first < minimum:
        raise argparse.ArgumentTypeError(f"range {text!r} starts below {minimum}")
    return range(first, last + 1)


def _parse_above(text: str, kind: type, bound: float):
    """``kind(text)``, which must be greater than ``bound``."""
    try:
        value = kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}")
    if not value > bound:
        raise argparse.ArgumentTypeError(f"{text!r} must be greater than {bound}")
    return value


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}; expected NXxNY")
    return tuple(_parse_above(part, int, 1) for part in parts)


INPUT_FLAGS = ("startups", "rounds", "investors", "ontology")

# the flags a manifest echoes, after _config has resolved them
ECHOED = ("years", "country", "exclude_sectors", "stage", "pca_dim", "r_range", "restarts",
          "tol", "seed", "grid", "strict_tags")


def _config(args: argparse.Namespace) -> None:
    """Check the input files, then resolve on ``args`` what the stages read: the input
    flags and ``--out`` as paths, ``exclude_sectors`` as a tuple, ``stage`` as a StageClass."""
    for name in INPUT_FLAGS:
        path = getattr(args, name)
        if path is None:
            if name == "ontology":
                continue
            raise SectorSpaceError(f"--{name} is required for this command")
        if not Path(path).is_file():
            raise SectorSpaceError(f"--{name}: no such file: {path}")
        setattr(args, name, Path(path))
    args.exclude_sectors = tuple(v for v in (args.exclude_sectors or DEFAULT_EXCLUDES) if v)
    args.stage = STAGE_FLAGS[args.stage] if args.stage else None
    args.out = Path(args.out)


def _echo(args: argparse.Namespace) -> dict:
    """The manifest's config block: a range as ``[first, last]``, a stage as its value."""
    echo = {name: getattr(args, name) for name in ECHOED}
    for name in ("years", "r_range"):
        echo[name] = [echo[name][0], echo[name][-1]]
    echo["stage"] = args.stage.value if args.stage else None
    return echo


def _load(args: argparse.Namespace, stages=()
          ) -> tuple[ValidatedDataset, ValidatedDataset]:
    """The loaded dataset and the one filtered by ``--country``.

    The filtered one is checked against the flags of the ``stages`` to run:
    every stage but ``profiles`` needs a kept round inside ``--years``,
    ``pca`` at least ``--pca-dim`` kept sectors, ``spread`` two, and ``tca``
    kept rounds of ``--stage`` in two of those years.
    ``--strict-tags`` makes unknown tags an error.
    """
    raw = load_dataset(args.startups, args.rounds, args.investors, args.ontology)
    dataset = filter_startups(raw, country=args.country)
    if args.strict_tags:
        unknown = [w for w in validate_dataset(dataset) if "unknown tag" in w]
        if unknown:
            raise SectorSpaceError("strict tags: " + "; ".join(unknown))
    if set(stages) - {"profiles"} and not any(
            day.year in args.years for day in dataset.rounds.announced.values):
        raise SectorSpaceError(
            f"no round of a startup kept by --country {args.country} falls inside "
            f"--years {args.years[0]}:{args.years[-1]}")
    n_sectors = len(_options(args).effective_sectors(dataset.ontology))
    if "pca" in stages and args.pca_dim > n_sectors:
        raise SectorSpaceError(f"--pca-dim {args.pca_dim} exceeds the {n_sectors} kept sectors")
    if "spread" in stages and n_sectors < 2:
        raise SectorSpaceError(
            f"spread needs 2 kept sectors for its 2-D heatmap plane; {n_sectors} kept")
    if "tca" in stages:
        rounds = dataset.rounds
        staged = rounds.stage.rows_where(lambda label: args.stage in (None, classify_stage(label)))
        n_years = len(set(rounds.year[staged].tolist()) & set(args.years))
        if n_years < 2:
            raise SectorSpaceError(f"tca needs kept rounds in 2 years of --years "
                                   f"{args.years[0]}:{args.years[-1]} for its temporal "
                                   f"factors; {n_years} kept")
    return raw, dataset


def _options(args: argparse.Namespace) -> ProfileOptions:
    return ProfileOptions(
        exclude_sectors=frozenset(args.exclude_sectors),
        stage_filter=args.stage,
        years=args.years,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    _config(args)
    raw, filtered = _load(args)
    warnings = validate_dataset(filtered)
    for scope, counts in (("loaded", raw.counts), ("filtered", filtered.counts)):
        print(scope + ": " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for warning in warnings:
        print(f"warning: {warning}")
    print(f"ok: {len(warnings)} warning(s)")
    return 0


def _run_profiles(args: argparse.Namespace, dataset: ValidatedDataset,
                  activity: SectorActivity) -> dict:
    profiles = build_profiles(activity, options=_options(args))
    reports.write_profiles(args.out / "profiles.csv", profiles)
    return {"profiles": len(profiles)}


def _run_pca(args: argparse.Namespace, dataset: ValidatedDataset,
            activity: SectorActivity) -> dict:
    options = _options(args)
    profiles = build_profiles(activity, options=replace(options, stage_filter=None))
    model = pca.fit_on_profiles(profiles, args.pca_dim)
    reports.write_pca_loadings(args.out / "pca_loadings.csv", model, profiles.sectors)

    trajectories = {"all": pca.barycenter_trajectory(profiles, model)}
    for stage, stage_profiles in stage_partition(activity, options=options).items():
        if stage_profiles:
            trajectories[stage.value] = pca.barycenter_trajectory(stage_profiles, model)
    reports.write_trajectory(args.out / "trajectory.csv", trajectories)

    svgplot.save_svg(
        args.out / "pca_sectors.svg",
        svgplot.scatter_chart(pca.sector_positions(model, profiles.sectors),
                              title="Sector loadings"),
    )
    for label, points in trajectories.items():
        svgplot.save_svg(
            args.out / f"trajectory_{label}.svg",
            svgplot.trajectory_chart(
                [(p.year, float(p.coords[0]), float(p.coords[1])) for p in points],
                title=f"Barycenter trajectory ({label})",
            ),
        )
    return {
        "explained_variance": [float(v) for v in model.explained_variance],
        "total_variance": float(model.total_variance),
    }


def _run_tca(args: argparse.Namespace, dataset: ValidatedDataset,
            activity: SectorActivity) -> dict:
    options = replace(_options(args), exclude_sectors=frozenset())
    tensor = tca.build_tensor(build_profiles(activity, options=options))
    feasible = [r for r in args.r_range if r <= min(tensor.values.shape[0],
                tensor.values.shape[1] * tensor.values.shape[2])]
    if not feasible:
        raise SectorSpaceError("no feasible rank in --r-range for this tensor")
    diag = tca.rank_scan(tensor, feasible, restarts=args.restarts,
                         seed=args.seed, tol=args.tol)
    best = diag.best_models[diag.chosen_rank]
    reports.write_tca_diagnostics(args.out / "tca_diagnostics.csv", diag)
    reports.write_tca_factors(args.out / "tca_factors.csv", best)

    tables = {}
    for component in range(best.rank):
        rows = []
        for iid, value, type_label in tca.top_investors(
            best, component, min(10, len(best.investor_ids)), dataset.investor_by_id
        ):
            rows.append((iid, dataset.investor_by_id[iid].name, type_label, value))
        tables[component + 1] = rows
    reports.write_top_investors(args.out / "top_investors.csv", tables)

    svgplot.save_svg(
        args.out / "tca_error.svg",
        svgplot.line_chart(
            [("best error", list(diag.ranks),
              [diag.best_error[r] for r in diag.ranks]),
             ("similarity", list(diag.ranks),
              [diag.similarity[r] for r in diag.ranks])],
            title="Rank scan", x_label="R", y_label="value",
        ),
    )
    year_axis = [float(y) for y in best.years]
    svgplot.save_svg(
        args.out / "tca_temporal.svg",
        svgplot.line_chart(
            [(f"component {r + 1}", year_axis,
              list(best.temporal_factors[:, r])) for r in range(best.rank)],
            title="Temporal factors", x_label="year", y_label="loading",
        ),
    )
    for r in range(best.rank):
        svgplot.save_svg(
            args.out / f"tca_sector_{r + 1}.svg",
            svgplot.bar_chart(list(best.sectors), list(best.sector_factors[:, r]),
                              title=f"Sector factor, component {r + 1}"),
        )
    return {
        "chosen_R": diag.chosen_rank,
        "best_error": {str(r): diag.best_error[r] for r in diag.ranks},
        "similarity": {str(r): diag.similarity[r] for r in diag.ranks},
    }


def _run_distances(args: argparse.Namespace, dataset: ValidatedDataset,
                   activity: SectorActivity) -> dict:
    profiles = build_profiles(activity, options=replace(_options(args), stage_filter=None))
    investors = dataset.investor_by_id
    present = sorted({investors[iid].type_label for iid in profiles.investor_ids.tolist()})
    if len(present) < 2:
        raise SectorSpaceError("distances needs profiles of 2 investor types; present: "
                               + (", ".join(present) or "none"))
    groups = {label: group_profiles(profiles, label, investors) for label in present}
    series_list = []
    for i, type_a in enumerate(present):
        for type_b in present[i + 1:]:
            try:
                series_list.append(metrics.distance_series(
                    groups[type_a], groups[type_b], f"type:{type_a}", f"type:{type_b}"))
            except SectorSpaceError:
                continue
    if not series_list:
        raise SectorSpaceError("no type pair shares an active year")
    reports.write_distances(args.out / "distances.csv", series_list)
    svgplot.save_svg(
        args.out / "distances.svg",
        svgplot.line_chart(
            [(f"{s.label_a} vs {s.label_b}",
              [float(y) for y in s.years], list(s.distances)) for s in series_list],
            title="Barycenter distances", x_label="year", y_label="distance",
            sigmas={f"{s.label_a} vs {s.label_b}": [e[2] for e in s.entries]
                    for s in series_list},
        ),
    )
    return {
        "pairs": [[s.label_a, s.label_b] for s in series_list],
        "minimum_years": {f"{s.label_a}|{s.label_b}": s.minimum_year() for s in series_list},
    }


def _run_spread(args: argparse.Namespace, dataset: ValidatedDataset,
                activity: SectorActivity) -> dict:
    profiles = build_profiles(activity, options=replace(_options(args), stage_filter=None))
    series = metrics.spread_series(profiles)
    if not series:
        raise SectorSpaceError("no year has two active investors to spread")
    model = pca.fit_on_profiles(profiles, 2)
    grid = metrics.heatmap_grid(profiles, model, *args.grid)
    reports.write_heatmaps(args.out, grid)
    for year in sorted(grid.counts):
        svgplot.save_svg(
            args.out / f"heatmap_{year}.svg",
            svgplot.heatmap_chart(grid.counts[year], grid.x_edges, grid.y_edges,
                                  title=f"Strategy density {year}"),
        )
    reports.write_spread(args.out / "spread.csv", series)
    svgplot.save_svg(
        args.out / "spread.svg",
        svgplot.line_chart(
            [("mean distance", [float(e[0]) for e in series],
              [e[1] for e in series])],
            title="Spread around the barycenter", x_label="year",
            y_label="mean distance",
            sigmas={"mean distance": [e[2] for e in series]},
        ),
    )
    return {
        "years": [e[0] for e in series],
        "max_cell_share": {
            str(year): grid.max_cell_share(year) for year in sorted(grid.counts)
        },
    }


_STAGES = {
    "profiles": _run_profiles,
    "pca": _run_pca,
    "tca": _run_tca,
    "distances": _run_distances,
    "spread": _run_spread,
}


def cmd_all(args) -> int:
    """Run every stage for ``all``, or the one a stage command names; a stage command's
    manifest holds that stage's results alone."""
    _config(args)
    command = args.command
    names = list(_STAGES) if command == "all" else [command]
    dataset = _load(args, names)[1]
    args.out.mkdir(parents=True, exist_ok=True)
    activity = SectorActivity.from_dataset(dataset)
    results = {name: _STAGES[name](args, dataset, activity) for name in names}
    if command != "all":
        results = results[command]
    inputs = {name: getattr(args, name) for name in INPUT_FLAGS
              if getattr(args, name) is not None}
    reports.write_manifest(args.out / f"manifest_{command}.json", command, _echo(args),
                           inputs, results)
    print(f"{command}: wrote artifacts to {args.out}")
    return 0


def cmd_synth(args) -> int:
    config = synth.SCENARIOS[args.scenario](seed=args.seed)
    files, _ = synth.generate_ecosystem(config, args.out)
    print(f"synth: {args.scenario} (seed {args.seed}) -> {files.startups.parent}")
    for label in ("startups", "rounds", "investors", "ontology", "truth"):
        print(f"  {getattr(files, label)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorspace",
        description="Sectoral dynamics of startup venture financing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--startups", help="startups.csv path")
    common.add_argument("--rounds", help="rounds.csv path")
    common.add_argument("--investors", help="investors.csv path")
    common.add_argument("--ontology", help="ontology JSON path (default: packaged)")
    common.add_argument("--years", type=_parse_range, default=DEFAULT_YEARS,
                        metavar="FIRST:LAST", help="inclusive year window")
    common.add_argument("--country", default=DEFAULT_COUNTRY)
    common.add_argument("--exclude-sector", action="append", dest="exclude_sectors",
                        metavar="TAG",
                        help=f"parent tag to drop (default: {', '.join(DEFAULT_EXCLUDES)}; "
                             "pass an empty string to keep everything)")
    common.add_argument("--stage", choices=sorted(STAGE_FLAGS), default=None,
                        help="keep only this stage's rounds in profiles and tca "
                             "(default: every round); pca, distances and spread ignore it")
    common.add_argument("--pca-dim", type=partial(_parse_above, kind=int, bound=1), default=2)
    common.add_argument("--r-range", type=partial(_parse_range, minimum=1),
                        default=range(1, 9), metavar="LO:HI")
    common.add_argument("--restarts", type=partial(_parse_above, kind=int, bound=1), default=8)
    common.add_argument("--tol", type=partial(_parse_above, kind=float, bound=0.0),
                        default=tca.DEFAULT_TOL)
    common.add_argument("--seed", type=partial(_parse_above, kind=int, bound=-1), default=0)
    common.add_argument("--grid", type=_parse_grid, default=(30, 30), metavar="NXxNY")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--strict-tags", action="store_true",
                        help="treat unknown tags as errors")

    sub.add_parser("validate", parents=[common],
                   help="load, filter and report counts/warnings").set_defaults(
        func=cmd_validate)
    for name, title in (
        ("profiles", "dump investor-year strategy profiles"),
        ("pca", "sector loadings and barycenter trajectories"),
        ("tca", "rank scan, factors and top investors"),
        ("distances", "yearly barycenter distances between investor types"),
        ("spread", "density heatmaps and spread around the barycenter"),
        ("all", "run every analysis stage"),
    ):
        sub.add_parser(name, parents=[common], help=title).set_defaults(func=cmd_all)

    synth_parser = sub.add_parser("synth", help="generate a planted scenario")
    synth_parser.add_argument("--scenario", required=True,
                              choices=sorted(synth.SCENARIOS))
    synth_parser.add_argument("--seed", type=partial(_parse_above, kind=int, bound=-1),
                              default=0)
    synth_parser.add_argument("--out", default="out", help="output directory")
    synth_parser.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SectorSpaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
