"""Spans and call counts recorded around sectorspace's public functions.

The tracer wraps functions from outside the package: each wrapped name is
replaced in its home module and in every other sectorspace namespace that
bound the same object by name (``cli`` imports ``build_profiles``,
``tca`` imports ``standardize``, and so on), so calls made through
any of them are seen. Calls that happen once per row or once per ALS sweep
are only counted; everything else gets a span.

Spans live in memory as :class:`Span` records and are written out by the
caller after the run. ``layer_metrics`` turns the spans and counts of one
operation into the per-layer metrics the benchmark reports.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# (layer, module attribute names that get a span, names that are only counted)
LAYERS = {
    "ingest": ("load_dataset filter_startups validate_dataset dump_dataset",
               "classify_stage"),
    "ontology": ("load_ontology default_ontology dump_ontology",
                 "SectorOntology.resolve"),  # resolve_parents calls it too
    "profiles": ("build_profiles stage_partition group_profiles profiles_by_year "
                 "share_matrix", "split_round"),
    "pca": ("standardize fit_pca fit_pca_model fit_on_profiles barycenter "
            "barycenter_trajectory sector_positions",
            "project project_sigma apply_standardization"),
    "tca": ("build_tensor rank_scan cp_als reconstruction_error model_similarity "
            "factor_match_score select_rank top_investors emerging_component",
            "khatri_rao"),
    "metrics": ("distance_series heatmap_grid heatmap_slice spread_series "
                "average_distance_to_barycenter",
                "euclidean_distance distance_with_error"),
    "reports": ("write_rows write_pca_loadings write_trajectory write_tca_factors "
                "write_tca_diagnostics write_top_investors write_distances "
                "write_heatmaps write_spread write_profiles write_manifest "
                "sha256_digest", ""),
    "svgplot": ("line_chart trajectory_chart scatter_chart heatmap_chart bar_chart "
                "save_svg", ""),
    "cli": ("main cmd_all _load", ""),
}

PCA_FIT = {"pca.fit_pca", "pca.fit_pca_model", "pca.fit_on_profiles"}
REPORT_WRITERS = {f"reports.{name}" for name in LAYERS["reports"][0].split()
                  if name.startswith("write_")}
SVG_RENDER = {f"svgplot.{name}" for name in LAYERS["svgplot"][0].split()}


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    run_id: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.span_id, "parent": self.parent_id, "name": self.name,
                "start": self.start, "end": self.end, "run_id": self.run_id,
                **self.attrs}


def _annotate(span: Span, fn, args, kwargs, result) -> None:
    """Record the counts a layer produces, read off its return value."""
    name = span.name
    if name == "tca.cp_als":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        span.attrs["sweeps"] = len(result.error_history)
        span.attrs["capped"] = len(result.error_history) >= bound.arguments["max_iter"]
    elif name in ("ingest.load_dataset", "ingest.filter_startups"):
        span.attrs["rounds"] = len(result.rounds)
    elif name == "profiles.build_profiles":
        span.attrs["profiles"] = len(result)
    elif name in REPORT_WRITERS:
        paths = result if isinstance(result, list) else [result]
        span.attrs["bytes"] = sum(Path(p).stat().st_size for p in paths)


class Tracer:
    """Installs wrappers, collects spans per operation, restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[Span] = []

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].span_id if self._stack else None
            span = Span(len(self.spans), parent, name, time.perf_counter(),
                        run_id=self.run_id)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            _annotate(span, fn, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every listed function in every sectorspace namespace, then restore."""
        import sectorspace  # noqa: F401  (loads every module that gets wrapped)

        namespaces = [m for key, m in sys.modules.items()
                      if key == "sectorspace" or key.startswith("sectorspace.")]
        patches = []  # (holder, attribute, original)

        def patch(holder, attr, wrapped):
            patches.append((holder, attr, getattr(holder, attr)))
            setattr(holder, attr, wrapped)

        for layer, (spanned, counted) in LAYERS.items():
            home = sys.modules[f"sectorspace.{layer}"]
            for names, make in ((spanned, self._spanned), (counted, self._counted)):
                for attr in names.split():
                    if "." in attr:  # a method: patch it on its class
                        cls_name, method = attr.split(".")
                        cls = getattr(home, cls_name)
                        patch(cls, method, make(f"{layer}.{method}", getattr(cls, method)))
                        continue
                    original = getattr(home, attr)
                    wrapped = make(f"{layer}.{attr}", original)
                    for module in namespaces:
                        if getattr(module, attr, None) is original:
                            patch(module, attr, wrapped)

        stages = sys.modules["sectorspace.cli"]._STAGES
        originals = dict(stages)
        for stage, fn in originals.items():
            stages[stage] = self._spanned(f"cli.stage.{stage}", fn)
        try:
            yield self
        finally:
            stages.update(originals)
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)


def _outermost(spans: list[Span], by_id: dict[int, Span], names: set[str]) -> list[Span]:
    """Spans in ``names`` not nested inside another span in ``names``."""
    outer = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            outer.append(span)
    return outer


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans and call counts."""
    by_id = {span.span_id: span for span in spans}
    child_time: Counter = Counter()
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.duration
    self_time: Counter = Counter()
    for span in spans:
        self_time[span.name.split(".")[0]] += span.duration - child_time[span.span_id]

    def total(*names: str) -> float:
        return sum(span.duration for span in _outermost(spans, by_id, set(names)))

    def named(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    fits = named("tca.cp_als")
    cp_als_s = total("tca.cp_als")
    sweeps = sum(span.attrs["sweeps"] for span in fits)
    loads = named("ingest.load_dataset")
    filtered = named("ingest.filter_startups")
    builds = named("profiles.build_profiles")
    return {
        "ingest.load_dataset_s": total("ingest.load_dataset"),
        "ingest.filter_startups_s": total("ingest.filter_startups"),
        "ingest.rounds_in": sum(span.attrs["rounds"] for span in loads),
        "ingest.rounds_kept": sum(span.attrs["rounds"] for span in filtered),
        "ingest.self_s": self_time["ingest"],
        "ontology.resolve_calls": counts["ontology.resolve"],
        "ontology.self_s": self_time["ontology"],
        "profiles.build_profiles_s": total("profiles.build_profiles"),
        "profiles.build_profiles_calls": len(builds),
        "profiles.n_profiles": max((span.attrs["profiles"] for span in builds), default=0),
        "profiles.self_s": self_time["profiles"],
        "pca.fit_s": total(*PCA_FIT),
        "pca.trajectory_s": total("pca.barycenter_trajectory"),
        "pca.self_s": self_time["pca"],
        "tca.build_tensor_s": total("tca.build_tensor"),
        "tca.rank_scan_s": total("tca.rank_scan"),
        "tca.cp_als_s": cp_als_s,
        "tca.cp_als_calls": len(fits),
        "tca.als_sweeps": sweeps,
        "tca.us_per_sweep": 1e6 * cp_als_s / sweeps if sweeps else 0.0,
        "tca.capped_fit_frac": (sum(span.attrs["capped"] for span in fits) / len(fits)
                                if fits else 0.0),
        "tca.reconstruction_error_s": total("tca.reconstruction_error"),
        "tca.model_similarity_s": total("tca.model_similarity"),
        "tca.self_s": self_time["tca"],
        "metrics.distance_series_s": total("metrics.distance_series"),
        "metrics.heatmap_grid_s": total("metrics.heatmap_grid"),
        "metrics.spread_series_s": total("metrics.spread_series"),
        "metrics.self_s": self_time["metrics"],
        "reports.write_s": total(*REPORT_WRITERS),
        "reports.bytes_written": sum(span.attrs["bytes"] for span in
                                     _outermost(spans, by_id, REPORT_WRITERS)),
        "reports.self_s": self_time["reports"],
        "svgplot.render_s": total(*SVG_RENDER),
        "svgplot.self_s": self_time["svgplot"],
        "cli.self_s": self_time["cli"],
        "trace.spans": len(spans),
    }
