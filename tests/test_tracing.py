"""The benchmark's tracer patches library names by string: every name in
its patch table must resolve, every counter hook but the two placeholders'
must run on small solves, and uninstalling must put back the very objects
it replaced."""

import importlib
from pathlib import Path
from types import ModuleType, SimpleNamespace

from conftest import fan_instance, square_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# halfplanes.py keeps these two names as placeholders for the tracer only;
# no solve calls them, so their counter hooks never run
IDLE = {("halfplanes", "complement_region"), ("halfplanes", "region_subset")}


def _tracing():
    """perfbench/tracing.py as a module, from its source: no bytecode
    cache is written beside it."""
    module = ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_patch_table_resolves_and_uninstalls():
    tracing = _tracing()
    modules = {module for module, _cls, _attr, _name, _after in tracing.PATCHES}
    mc = SimpleNamespace(**{m: importlib.import_module(f"membercover.{m}") for m in modules})

    class Recording(tracing.Tracer):
        """A tracer that counts the runs of each counter hook, in the
        order `install` wraps them, which is the patch table's."""

        def __init__(self, mc):
            super().__init__(mc)
            self.runs = []

        def wrap(self, name, fn, after=None):
            if after is None:
                return super().wrap(name, fn, after)
            hook = len(self.runs)
            self.runs.append(0)

            def counted(counts, args, result):
                self.runs[hook] += 1
                after(counts, args, result)

            return super().wrap(name, fn, counted)

    owners = []
    for module, cls, attr, _name, _after in tracing.PATCHES:
        owner = getattr(mc, module)
        owner = getattr(owner, cls) if cls is not None else owner
        owners.append((owner, attr, owner.__dict__[attr]))
    tracer = Recording(mc)
    try:
        tracer.install()
        points, sprime, squares = square_instance(3)
        mc.squares.solve_mmgsc_squares_report(points, sprime, squares)
        cover, _report = mc.ply.solve_mpgsc(points, squares)
        # the ply solve sweeps its cover as `ply._grid_ply`, so the ply hook
        # runs on a direct call
        mc.ply.ply([q for q in squares if q.id in cover.ids])
        # the escalation refuses k = 1 and 2 by the cycle search; the
        # decision at its k accepts on a cycle
        report = mc.halfplanes.exact_mmgsc_halfplanes_report(*fan_instance(1))
        assert report.path == "additive"
        assert mc.halfplanes._HalfplaneInstance(*fan_instance(1)).decide(report.k).path == "cycle"
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in owners)
    hooked = [(module, attr) for module, _cls, attr, _name, after in tracing.PATCHES if after]
    assert len(hooked) == len(tracer.runs)
    assert {entry for entry, runs in zip(hooked, tracer.runs) if not runs} == IDLE
    # the membership LP held S' rows, and some cell needed an LP
    assert tracer.counts["lp.sprime_rows"] > 0
    assert tracer.counts["squares.quiet_cells"] < tracer.counts["squares.cell_reports"]
