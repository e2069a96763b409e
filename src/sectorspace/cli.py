"""Command-line pipeline: ingest, profiles, PCA, TCA, distances, spread, synth.

Every artifact-producing subcommand writes CSVs (and deterministic SVGs)
under ``--out`` plus a run manifest with the config echo, package version
and SHA-256 digests of its inputs. Exit codes: 0 success, 1 analysis
error, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from . import metrics, pca, reports, svgplot, synth, tca
from .errors import SectorSpaceError
from .ingest import (
    DEFAULT_COUNTRY,
    StageClass,
    ValidatedDataset,
    filter_startups,
    load_dataset,
    validate_dataset,
)
from .profiles import (
    DEFAULT_YEARS,
    GroupSpec,
    ProfileOptions,
    SectorActivity,
    build_profiles,
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


@dataclass(frozen=True)
class PipelineConfig:
    """Validated snapshot of every flag an analysis run depends on."""

    startups: Path
    rounds: Path
    investors: Path
    ontology: Path | None
    years: range
    country: str
    exclude_sectors: tuple[str, ...]
    stage: StageClass | None
    pca_dim: int
    r_range: range
    restarts: int
    tol: float
    seed: int
    grid: tuple[int, int]
    out: Path
    strict_tags: bool

    def input_paths(self) -> dict[str, Path]:
        paths = {"startups": self.startups, "rounds": self.rounds,
                 "investors": self.investors}
        if self.ontology is not None:
            paths["ontology"] = self.ontology
        return paths

    def echo(self) -> dict:
        return {
            "years": [self.years[0], self.years[-1]],
            "country": self.country,
            "exclude_sectors": list(self.exclude_sectors),
            "stage": self.stage.value if self.stage else None,
            "pca_dim": self.pca_dim,
            "r_range": [self.r_range[0], self.r_range[-1]],
            "restarts": self.restarts,
            "tol": self.tol,
            "seed": self.seed,
            "grid": list(self.grid),
            "strict_tags": self.strict_tags,
        }


def _config(args: argparse.Namespace) -> PipelineConfig:
    for name in ("startups", "rounds", "investors"):
        path = getattr(args, name)
        if path is None:
            raise SectorSpaceError(f"--{name} is required for this command")
        if not Path(path).is_file():
            raise SectorSpaceError(f"--{name}: no such file: {path}")
    if args.ontology is not None and not Path(args.ontology).is_file():
        raise SectorSpaceError(f"--ontology: no such file: {args.ontology}")
    excludes = tuple(v for v in (args.exclude_sector or DEFAULT_EXCLUDES) if v)
    return PipelineConfig(
        startups=Path(args.startups),
        rounds=Path(args.rounds),
        investors=Path(args.investors),
        ontology=Path(args.ontology) if args.ontology else None,
        years=args.years,
        country=args.country,
        exclude_sectors=excludes,
        stage=STAGE_FLAGS[args.stage] if args.stage else None,
        pca_dim=args.pca_dim,
        r_range=args.r_range,
        restarts=args.restarts,
        tol=args.tol,
        seed=args.seed,
        grid=args.grid,
        out=Path(args.out),
        strict_tags=args.strict_tags,
    )


def _load_and_filter(config: PipelineConfig, validate: bool
                     ) -> tuple[ValidatedDataset, ValidatedDataset, list[str]]:
    """Load the tables and filter them by country.

    Returns the loaded dataset, the filtered one and the warnings of the
    filtered one, which are computed when ``validate`` is set or under
    ``--strict-tags`` (empty otherwise). ``--strict-tags`` makes unknown
    tags an error.
    """
    raw = load_dataset(config.startups, config.rounds, config.investors,
                       config.ontology)
    dataset = filter_startups(raw, country=config.country)
    warnings = validate_dataset(dataset) if validate or config.strict_tags else []
    unknown = [w for w in warnings if "unknown tag" in w]
    if config.strict_tags and unknown:
        raise SectorSpaceError("strict tags: " + "; ".join(unknown))
    return raw, dataset, warnings


def _load(config: PipelineConfig, stages=()) -> ValidatedDataset:
    """The filtered dataset, checked against the flags of the ``stages`` to run.

    Every stage but ``profiles`` needs a kept round inside ``--years``.
    """
    dataset = _load_and_filter(config, validate=False)[1]
    if set(stages) - {"profiles"} and not any(
            day.year in config.years for day in dataset.rounds.announced.values):
        raise SectorSpaceError(
            f"no round of a startup kept by --country {config.country} falls inside "
            f"--years {config.years[0]}:{config.years[-1]}")
    n_sectors = len(_options(config).effective_sectors(dataset.ontology))
    if "pca" in stages and config.pca_dim > n_sectors:
        raise SectorSpaceError(f"--pca-dim {config.pca_dim} exceeds the {n_sectors} kept sectors")
    return dataset


def _options(config: PipelineConfig) -> ProfileOptions:
    return ProfileOptions(
        exclude_sectors=frozenset(config.exclude_sectors),
        stage_filter=config.stage,
        years=config.years,
    )


def _manifest(config: PipelineConfig, command: str, results: dict) -> Path:
    return reports.write_manifest(
        config.out / f"manifest_{command}.json", command, config.echo(),
        config.input_paths(), results,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    config = _config(args)
    raw, filtered, warnings = _load_and_filter(config, validate=True)
    for scope, counts in (("loaded", raw.counts), ("filtered", filtered.counts)):
        print(scope + ": " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for warning in warnings:
        print(f"warning: {warning}")
    print(f"ok: {len(warnings)} warning(s)")
    return 0


def _run_profiles(config: PipelineConfig, dataset: ValidatedDataset,
                  activity: SectorActivity) -> dict:
    profiles = build_profiles(activity, options=_options(config))
    reports.write_profiles(config.out / "profiles.csv", profiles)
    return {"profiles": len(profiles)}


def _run_pca(config: PipelineConfig, dataset: ValidatedDataset,
            activity: SectorActivity) -> dict:
    options = _options(config)
    profiles = build_profiles(activity, options=replace(options, stage_filter=None))
    model = pca.fit_on_profiles(profiles, config.pca_dim)
    sectors = options.effective_sectors(dataset.ontology)
    reports.write_pca_loadings(config.out / "pca_loadings.csv", model, sectors)

    trajectories = {"all": pca.barycenter_trajectory(profiles, model)}
    for stage, stage_profiles in stage_partition(activity, options=options).items():
        if stage_profiles:
            trajectories[stage.value] = pca.barycenter_trajectory(
                stage_profiles, model, stage=stage
            )
    reports.write_trajectory(config.out / "trajectory.csv", trajectories)

    svgplot.save_svg(
        config.out / "pca_sectors.svg",
        svgplot.scatter_chart(pca.sector_positions(model, sectors),
                              title="Sector loadings"),
    )
    for label, points in trajectories.items():
        svgplot.save_svg(
            config.out / f"trajectory_{label}.svg",
            svgplot.trajectory_chart(
                [(p.year, float(p.coords[0]), float(p.coords[1])) for p in points],
                title=f"Barycenter trajectory ({label})",
            ),
        )
    return {
        "explained_variance": [float(v) for v in model.explained_variance],
        "total_variance": float(model.total_variance),
    }


def _run_tca(config: PipelineConfig, dataset: ValidatedDataset,
            activity: SectorActivity) -> dict:
    options = replace(_options(config), exclude_sectors=frozenset())
    tensor = tca.build_tensor(build_profiles(activity, options=options))
    feasible = [r for r in config.r_range if r <= min(tensor.values.shape[0],
                tensor.values.shape[1] * tensor.values.shape[2])]
    if not feasible:
        raise SectorSpaceError("no feasible rank in --r-range for this tensor")
    diag = tca.rank_scan(tensor, feasible, restarts=config.restarts,
                         seed=config.seed, tol=config.tol)
    best = diag.best_models[diag.chosen_rank]
    reports.write_tca_diagnostics(config.out / "tca_diagnostics.csv", diag)
    reports.write_tca_factors(config.out / "tca_factors.csv", best)

    tables = {}
    for component in range(best.rank):
        rows = []
        for iid, value, type_label in tca.top_investors(
            best, component, min(10, len(best.investor_ids)), dataset.investor_by_id
        ):
            name = dataset.investor_by_id[iid].name if iid in dataset.investor_by_id else iid
            rows.append((iid, name, type_label, value))
        tables[component + 1] = rows
    reports.write_top_investors(config.out / "top_investors.csv", tables)

    svgplot.save_svg(
        config.out / "tca_error.svg",
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
        config.out / "tca_temporal.svg",
        svgplot.line_chart(
            [(f"component {r + 1}", year_axis,
              list(best.temporal_factors[:, r])) for r in range(best.rank)],
            title="Temporal factors", x_label="year", y_label="loading",
        ),
    )
    for r in range(best.rank):
        svgplot.save_svg(
            config.out / f"tca_sector_{r + 1}.svg",
            svgplot.bar_chart(list(best.sectors), list(best.sector_factors[:, r]),
                              title=f"Sector factor, component {r + 1}"),
        )
    return {
        "chosen_R": diag.chosen_rank,
        "best_error": {str(r): diag.best_error[r] for r in diag.ranks},
        "similarity": {str(r): diag.similarity[r] for r in diag.ranks},
    }


def _run_distances(config: PipelineConfig, dataset: ValidatedDataset,
                   activity: SectorActivity) -> dict:
    profiles = build_profiles(activity, options=replace(_options(config), stage_filter=None))
    present = sorted({
        dataset.investor_by_id[iid].type_label
        for iid in set(profiles.investor_ids.tolist()) if iid in dataset.investor_by_id
    })
    series_list = []
    for i, type_a in enumerate(present):
        for type_b in present[i + 1:]:
            try:
                series_list.append(metrics.distance_series(
                    profiles, GroupSpec(investor_type=type_a),
                    GroupSpec(investor_type=type_b),
                    investors=dataset.investor_by_id,
                ))
            except SectorSpaceError:
                continue
    if not series_list:
        raise SectorSpaceError("no type pair shares an active year")
    reports.write_distances(config.out / "distances.csv", series_list)
    svgplot.save_svg(
        config.out / "distances.svg",
        svgplot.line_chart(
            [(f"{s.group_a.label()} vs {s.group_b.label()}",
              [float(y) for y in s.years], list(s.distances)) for s in series_list],
            title="Barycenter distances", x_label="year", y_label="distance",
            sigmas={
                f"{s.group_a.label()} vs {s.group_b.label()}":
                [e[2] for e in s.entries] for s in series_list
            },
        ),
    )
    return {
        "pairs": [[s.group_a.label(), s.group_b.label()] for s in series_list],
        "minimum_years": {
            f"{s.group_a.label()}|{s.group_b.label()}": s.minimum_year()
            for s in series_list
        },
    }


def _run_spread(config: PipelineConfig, dataset: ValidatedDataset,
                activity: SectorActivity) -> dict:
    profiles = build_profiles(activity, options=replace(_options(config), stage_filter=None))
    series = metrics.spread_series(profiles)
    if not series:
        raise SectorSpaceError("no year has two active investors to spread")
    model = pca.fit_on_profiles(profiles, 2)
    grid = metrics.heatmap_grid(profiles, model, *config.grid)
    reports.write_heatmaps(config.out, grid)
    for year in sorted(grid.counts):
        svgplot.save_svg(
            config.out / f"heatmap_{year}.svg",
            svgplot.heatmap_chart(grid.counts[year], grid.x_edges, grid.y_edges,
                                  title=f"Strategy density {year}"),
        )
    reports.write_spread(config.out / "spread.csv", series)
    svgplot.save_svg(
        config.out / "spread.svg",
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


def _run_stage(name: str):
    def runner(args) -> int:
        config = _config(args)
        dataset = _load(config, (name,))
        config.out.mkdir(parents=True, exist_ok=True)
        results = _STAGES[name](config, dataset, SectorActivity.from_dataset(dataset))
        _manifest(config, name, results)
        print(f"{name}: wrote artifacts to {config.out}")
        return 0

    return runner


def cmd_all(args) -> int:
    config = _config(args)
    dataset = _load(config, _STAGES)
    config.out.mkdir(parents=True, exist_ok=True)
    activity = SectorActivity.from_dataset(dataset)
    results = {name: run(config, dataset, activity) for name, run in _STAGES.items()}
    _manifest(config, "all", results)
    print(f"all: wrote artifacts to {config.out}")
    return 0


def cmd_synth(args) -> int:
    if args.scenario not in synth.SCENARIOS:
        raise SectorSpaceError(
            f"unknown scenario {args.scenario!r}; choose from "
            + ", ".join(sorted(synth.SCENARIOS))
        )
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
    common.add_argument("--exclude-sector", action="append", metavar="TAG",
                        help=f"parent tag to drop (default: {', '.join(DEFAULT_EXCLUDES)}; "
                             "pass an empty string to keep everything)")
    common.add_argument("--stage", choices=sorted(STAGE_FLAGS), default=None)
    common.add_argument("--pca-dim", type=partial(_parse_above, kind=int, bound=1), default=2)
    common.add_argument("--r-range", type=partial(_parse_range, minimum=1),
                        default=range(1, 9), metavar="LO:HI")
    common.add_argument("--restarts", type=partial(_parse_above, kind=int, bound=1), default=8)
    common.add_argument("--tol", type=partial(_parse_above, kind=float, bound=0.0),
                        default=tca.DEFAULT_TOL)
    common.add_argument("--seed", type=int, default=0)
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
    ):
        sub.add_parser(name, parents=[common], help=title).set_defaults(
            func=_run_stage(name))
    sub.add_parser("all", parents=[common],
                   help="run every analysis stage").set_defaults(func=cmd_all)

    synth_parser = sub.add_parser("synth", help="generate a planted scenario")
    synth_parser.add_argument("--scenario", required=True,
                              choices=sorted(synth.SCENARIOS))
    synth_parser.add_argument("--seed", type=int, default=0)
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
