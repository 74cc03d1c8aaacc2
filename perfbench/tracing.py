"""Outside-in tracing: spans and counters recorded around library calls.

Nothing in `src/` knows about this module.  `Tracer.install` replaces
public entry points with wrappers and `Tracer.uninstall` puts the
originals back, so untraced solves run the library exactly as shipped.

A name bound with `from .geometry import X` lives separately in every
module that imports it, so each wrapper is installed in the module that
*calls* the function (`squares.grid_partition`, `ply.grid_partition`,
`halfplanes.complement_region`, ...).  Every solver reaches the LP as
`lpmod.solve_lp`, so one patch of `lp.solve_lp` intercepts all of them.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns


def _lp_call(counts, args, result):
    program = args[0]
    counts["lp.solve_lp.calls"] += 1
    counts["lp.rows"] += len(program.rows)
    counts["lp.cols"] += program.n_vars


def _membership_lp(counts, args, result):
    # build_membership_lp emits the S' rows last, one per monitored point,
    # with the load variable y in the final column
    n_prime = len(args[1])
    rows = result.rows[len(result.rows) - n_prime:] if n_prime else ()
    counts["lp.sprime_rows"] += len(rows)
    counts["lp.sprime_useful"] += sum(1 for r in rows if any(r.coeffs[:-1]))


def _cells(counts, args, result):
    counts["squares.cells"] += len(result)


def _cell_report(counts, args, result):
    counts["squares.cell_reports"] += 1
    counts["squares.quiet_cells"] += result.zero_membership


def _ply_call(counts, args, result):
    counts["ply.calls"] += 1
    counts["ply.squares"] += len(args[0])


def _counter(key):
    def after(counts, args, result):
        counts[key] += 1
    return after


def _segments(counts, args, result):
    counts["halfplanes.segments_built"] += len(result)


def _anchor_context(counts, args, result):
    counts["halfplanes.anchor_contexts"] += 1
    counts["halfplanes.segments_kept"] += len(args[0].segments)


def _graph(counts, args, result):
    counts["halfplanes.graphs_built"] += 1
    counts["halfplanes.graph_vertices"] += len(result.vertices)


def _cycle(counts, args, result):
    counts["halfplanes.cycle_searches"] += 1
    counts["halfplanes.cycles_found"] += result is not None


def _exact_path(counts, args, result):
    counts["halfplanes.exact_calls"] += 1
    counts[f"halfplanes.path.{result.path}"] += 1


# (module, class or None, attribute, span name or None for counters only,
#  counter hook or None)
PATCHES = (
    ("lp", None, "solve_lp", "lp.solve_lp", _lp_call),
    ("lp", None, "build_membership_lp", "lp.build", _membership_lp),
    ("lp", None, "build_size_lp", "lp.build", None),
    ("squares", None, "grid_partition", "squares.grid_partition", _cells),
    ("ply", None, "grid_partition", "squares.grid_partition", _cells),
    ("squares", None, "solve_cell_report", None, _cell_report),
    ("squares", None, "corner_partition", "squares.corner_partition", None),
    ("squares", None, "solve_one_corner", "squares.solve_one_corner", None),
    ("squares", None, "quadrant_greedy_cover", "squares.quadrant_greedy", None),
    ("ply", None, "quadrant_greedy_cover", "squares.quadrant_greedy", None),
    ("ply", None, "ply", "ply.ply", _ply_call),
    ("ply", None, "min_size_cell_cover_approx", "ply.cell_cover", None),
    ("covers", "CoverSolution", "build", "covers.build", _counter("covers.build_calls")),
    ("halfplanes", None, "complement_region", "geometry.complement_region",
     _counter("geometry.complement_region_calls")),
    ("halfplanes", None, "region_subset", "geometry.region_subset",
     _counter("geometry.region_subset_calls")),
    ("halfplanes", None, "face_sample_points", "geometry.face_samples", None),
    ("halfplanes", None, "min_size_halfplane_cover", "halfplanes.min_size_cover", None),
    ("halfplanes", None, "one_stable_local_search", "halfplanes.local_search", None),
    ("halfplanes", "_AnchorContext", "__init__", "halfplanes.anchor_context", _anchor_context),
    ("halfplanes", None, "build_segments", "halfplanes.build_segments", _segments),
    ("halfplanes", "_AnchorContext", "graph", "halfplanes.graph", _graph),
    ("halfplanes", None, "find_winding_cycle", "halfplanes.cycle_search", _cycle),
    ("halfplanes", None, "exact_mmgsc_halfplanes_report", None, _exact_path),
)


class Tracer:
    """Spans (name, start, end, parent) and counters of traced solves.

    Spans of one solve are reduced to per-name self time by `end_solve`,
    so memory stays bounded however long the run is.
    """

    def __init__(self, mc):
        self.mc = mc
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, after=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                record = [name, perf_counter_ns(), 0, stack[-1] if stack else None]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter_ns()
                    stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, cls, attr, name, after in PATCHES:
            owner = getattr(self.mc, module)
            if cls is not None:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, after)))
            else:
                setattr(owner, attr, self.wrap(name, raw, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def end_solve(self, scale: float) -> None:
        """Fold the finished solve's spans into per-name self time: a span's
        duration minus the time its direct children cover, times `scale`
        (reference seconds per wall second during the solve)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            self.self_ns[name] += (end - start - inner) * scale
        self.spans.clear()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, solves: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each normalized per traced solve or per call.

    Times are self times in seconds per solve.  A ratio whose base is zero
    (say, S' rows on a workload without S') reads 0.
    """
    c, t = tracer.counts, tracer.self_ns
    per_solve = lambda key: (c[key] / solves, "count/solve")
    self_s = lambda span: (t[span] / 1e9 / solves, "s/solve")
    return {
        "lp.solve_lp.calls": per_solve("lp.solve_lp.calls"),
        "lp.solve_lp.self_s": self_s("lp.solve_lp"),
        "lp.build_s": self_s("lp.build"),
        "lp.rows": (_ratio(c["lp.rows"], c["lp.solve_lp.calls"]), "count/call"),
        "lp.cols": (_ratio(c["lp.cols"], c["lp.solve_lp.calls"]), "count/call"),
        "lp.sprime_useful_frac": (_ratio(c["lp.sprime_useful"], c["lp.sprime_rows"]), "ratio"),
        "squares.grid_partition_s": self_s("squares.grid_partition"),
        "squares.cells": per_solve("squares.cells"),
        "squares.quiet_cells_frac": (
            _ratio(c["squares.quiet_cells"], c["squares.cell_reports"]), "ratio"),
        "squares.corner_partition_s": self_s("squares.corner_partition"),
        "squares.solve_one_corner_s": self_s("squares.solve_one_corner"),
        "squares.quadrant_greedy_s": self_s("squares.quadrant_greedy"),
        "ply.ply_s": self_s("ply.ply"),
        "ply.ply_squares": (_ratio(c["ply.squares"], c["ply.calls"]), "count/call"),
        "ply.cell_cover_s": self_s("ply.cell_cover"),
        "covers.build_s": self_s("covers.build"),
        "covers.build_calls": per_solve("covers.build_calls"),
        "geometry.complement_region_s": self_s("geometry.complement_region"),
        "geometry.complement_region_calls": per_solve("geometry.complement_region_calls"),
        "geometry.region_subset_s": self_s("geometry.region_subset"),
        "geometry.region_subset_calls": per_solve("geometry.region_subset_calls"),
        "geometry.face_samples_s": self_s("geometry.face_samples"),
        "halfplanes.min_size_cover_s": self_s("halfplanes.min_size_cover"),
        "halfplanes.local_search_s": self_s("halfplanes.local_search"),
        "halfplanes.anchor_context_s": self_s("halfplanes.anchor_context"),
        "halfplanes.anchor_contexts": per_solve("halfplanes.anchor_contexts"),
        "halfplanes.build_segments_s": self_s("halfplanes.build_segments"),
        "halfplanes.segments_built": per_solve("halfplanes.segments_built"),
        "halfplanes.segments_kept_frac": (
            _ratio(c["halfplanes.segments_kept"], c["halfplanes.segments_built"]), "ratio"),
        "halfplanes.graph_s": self_s("halfplanes.graph"),
        "halfplanes.graphs_built": per_solve("halfplanes.graphs_built"),
        "halfplanes.graph_vertices": per_solve("halfplanes.graph_vertices"),
        "halfplanes.cycle_search_s": self_s("halfplanes.cycle_search"),
        "halfplanes.cycles_found_frac": (
            _ratio(c["halfplanes.cycles_found"], c["halfplanes.cycle_searches"]), "ratio"),
        **{
            f"halfplanes.path.{path}": (
                _ratio(c[f"halfplanes.path.{path}"], c["halfplanes.exact_calls"]), "ratio")
            for path in ("quiet", "small", "minsize", "cycle")
        },
        "solve.unwrapped_s": self_s("solve"),
    }
