"""Source checks that keep documentation and options honest.

* docs/TELEMETRY.md is the one table of telemetry events: every event
  name ``src/`` emits is a row there, every row is emitted, and each
  row lists the fields its emit calls pass.
* Every field of :class:`~repro.serve.ServeConfig` and
  :class:`~repro.core.trainer.TrainConfig` is read somewhere in
  ``src/``: an option nothing reads silently does nothing.
* Every function, class and method defined in ``src/repro`` is named
  somewhere else in ``src/``, or is on an allowlist: a definition only
  the tests call is a code path the program does not run.
* Every runtime dependency in ``pyproject.toml`` is imported by
  ``src/repro``: an unused one is an install cost for nothing.
* Every public fused kernel in :mod:`repro.autodiff.ops` has a
  primitive-op oracle in ``tests/oracles.py``, the simplest path a
  kernel must keep beating end to end to stay.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.trainer import TrainConfig
from repro.serve import ServeConfig

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"

#: Functions that pass their second positional argument on to
#: ``telemetry.emit`` as the event name, with the fields they add to
#: the keywords of the call.
EMITTERS = {"emit": (), "_note": ("boundary", "kind")}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def _literals(node):
    """String constants an event-name expression can evaluate to."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literals(node.body) | _literals(node.orelse)
    return set()


def _emit_calls():
    """``(event, fields, open_ended)`` per emit call with a literal
    event name; ``open_ended`` when the call also splats ``**fields``."""
    for _, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) \
                else getattr(func, "attr", None)
            if name not in EMITTERS or len(node.args) < 2:
                continue
            fields = set(EMITTERS[name])
            fields |= {k.arg for k in node.keywords if k.arg is not None}
            open_ended = any(k.arg is None for k in node.keywords)
            for event in _literals(node.args[1]):
                yield event, fields, open_ended


def _emitted_events():
    """Literal event names passed to an emitter, plus string defaults of
    ``event`` parameters (``autodiff.profile(event="profile")``)."""
    events = {event for event, _, _ in _emit_calls()}
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args.args
                defaults = node.args.defaults
                for arg, default in zip(args[len(args) - len(defaults):],
                                        defaults):
                    if arg.arg == "event":
                        events |= _literals(default)
    return events


def _table():
    """``{event: documented field names}`` from docs/TELEMETRY.md."""
    text = (ROOT / "docs" / "TELEMETRY.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \|", text, flags=re.MULTILINE)
    table = {}
    for event, cell in rows:
        assert event not in table, f"duplicate row {event}"
        table[event] = {word for quoted in re.findall(r"`([^`]*)`", cell)
                        for word in re.findall(r"\w+", quoted)}
    return table


class TestTelemetryTable:
    def test_every_emitted_event_is_a_row_and_every_row_is_emitted(self):
        rows = set(_table())
        emitted = _emitted_events()
        assert emitted, "found no emit call in src/"
        assert sorted(emitted - rows) == [], \
            "events emitted but missing from docs/TELEMETRY.md"
        assert sorted(rows - emitted) == [], \
            "docs/TELEMETRY.md rows that src/ never emits"

    def test_rows_list_the_fields_src_passes(self):
        """A field passed but not documented, or documented but passed
        by no call (e.g. a removed field left in the table), fails."""
        table = _table()
        passed, open_ended = {}, set()
        for event, fields, splat in _emit_calls():
            passed.setdefault(event, set()).update(fields)
            if splat:
                open_ended.add(event)
        for event, fields in passed.items():
            missing = sorted(fields - table[event])
            assert missing == [], f"{event}: undocumented {missing}"
            if event not in open_ended:
                stale = sorted(table[event] - fields)
                assert stale == [], f"{event}: never passed {stale}"


def _is_config(node) -> bool:
    """``config.x``, ``cfg.x`` or ``<anything>.config.x``: how ``src/``
    holds both configs.  ``self.x`` and ``args.x`` do not count, so an
    unrelated attribute of the same name cannot hide a dead field."""
    if isinstance(node, ast.Name):
        return node.id in ("config", "cfg")
    return isinstance(node, ast.Attribute) and node.attr == "config"


def _config_reads():
    reads = set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load) \
                    and _is_config(node.value):
                reads.add(node.attr)
    return reads


@pytest.mark.parametrize("config", [ServeConfig, TrainConfig],
                         ids=lambda c: c.__name__)
def test_every_config_field_is_read(config):
    reads = _config_reads()
    unread = [f.name for f in dataclasses.fields(config)
              if f.name not in reads]
    assert unread == [], f"{config.__name__} fields nothing reads"


# ----------------------------------------------------------------------
# Reference scan
# ----------------------------------------------------------------------
#: Definitions nothing in ``src/`` names, with the caller outside
#: ``src/`` or the doc that publishes each (the file must name it).
PUBLISHED = {
    "repro.autodiff.module.Module.num_parameters":
        "benchmarks/test_table1_configs.py",
    "repro.autodiff.tensor.detect_anomaly": "benchmarks/chaos_smoke.py",
    "repro.core.config.paper_af": "benchmarks/test_table1_configs.py",
    "repro.core.config.paper_bf": "benchmarks/test_table1_configs.py",
    "repro.core.shardexec.ShardedExecution": "benchmarks/shard_smoke.py",
    "repro.experiments.figures.distance_analysis":
        "benchmarks/test_fig11_13_distance.py",
    "repro.experiments.figures.proximity_sweep":
        "benchmarks/test_fig14_proximity.py",
    "repro.experiments.figures.time_of_day_analysis":
        "benchmarks/test_fig8_10_time_of_day.py",
    "repro.faultinject.NaNGradInjector": "benchmarks/chaos_smoke.py",
    "repro.faultinject.corrupt_file": "benchmarks/chaos_smoke.py",
    "repro.faultinject.drift_histograms": "benchmarks/chaos_smoke.py",
    "repro.faultinject.drop_cells": "benchmarks/chaos_smoke.py",
    "repro.faultinject.kill_once": "benchmarks/chaos_smoke.py",
    "repro.faultinject.poison_nan": "benchmarks/chaos_smoke.py",
    "repro.graph.sharding.chebyshev_hops": "benchmarks/shard_smoke.py",
    "repro.graph.sharding.plan_shards": "benchmarks/shard_smoke.py",
    "repro.histograms.blocksparse.BlockSparseODTensor.from_dense":
        "docs/SHARDING.md",
    "repro.histograms.blocksparse.BlockSparseODTensor.to_dense":
        "benchmarks/shard_smoke.py",
    "repro.histograms.blocksparse.BlockSparseWindowDataset":
        "benchmarks/shard_smoke.py",
    "repro.histograms.blocksparse.build_block_sparse_od_tensors":
        "benchmarks/shard_smoke.py",
    "repro.histograms.histogram.HistogramSpec.mean_speed":
        "examples/travel_time_reservation.py",
    "repro.histograms.travel_time.TravelTimeDistribution.quantile":
        "examples/travel_time_reservation.py",
    "repro.histograms.travel_time.travel_time_distribution":
        "examples/travel_time_reservation.py",
    "repro.metrics.calibration.expected_calibration_error":
        "examples/forecast_calibration.py",
    "repro.metrics.calibration.ranked_probability_score":
        "examples/forecast_calibration.py",
    "repro.metrics.calibration.sharpness":
        "examples/forecast_calibration.py",
    "repro.metrics.calibration.trip_outcomes":
        "examples/forecast_calibration.py",
    "repro.serve.ForecastWorkerPool.segment_names":
        "benchmarks/serve_smoke.py",
    "repro.serve_shm.leaked_segments": "benchmarks/serve_smoke.py",
    "repro.serve_shm.slot_bytes_for": "benchmarks/serve_smoke.py",
    "repro.trips.datasets.metro_dataset": "benchmarks/shard_smoke.py",
    "repro.trips.traffic.LatentTrafficField.context_series":
        "docs/PAPER_MAPPING.md",
    "repro.trips.trip.Trip": "e2ebench/workloads.py",
    "repro.viz.histogram_bars": "examples/quickstart.py",
}

#: Reference implementations and test harnesses: nothing in ``src/``
#: names them, and the named test checks the program against each.  An
#: entry stays while that test uses it; any other definition that only
#: tests call is deleted with its tests, not listed.
REFERENCES = {
    "repro.autodiff.gradcheck.check_gradients": "tests/test_autodiff_ops.py",
    "repro.autodiff.ops.sigmoid": "tests/oracles.py",
    "repro.graph.energy.dirichlet_energy_numpy":
        "tests/test_graph_energy.py",
    "repro.graph.laplacian.chebyshev_basis": "tests/test_graph_chebconv.py",
    "repro.metrics.divergence.emd_flow": "tests/test_metrics_divergence.py",
    "repro.telemetry.read_events": "tests/test_telemetry.py",
}


def _definitions(tree, prefix):
    """``(qualified name, name)`` of every function, class and method in
    a module (nested ones included), dunder methods excepted."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualname = f"{prefix}.{node.name}"
            if not (node.name.startswith("__")
                    and node.name.endswith("__")):
                yield qualname, node.name
            yield from _definitions(node, qualname)
        else:
            yield from _definitions(node, prefix)


def _exported(tree):
    """Nodes inside ``__all__ = ...`` assignments: listing a name for
    export is not a use of it."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                exported.update(map(id, ast.walk(node.value)))
    return exported


def _names(tree):
    """Every name a module uses: identifiers, attributes, imported
    names and identifier-like strings (``getattr``), except the strings
    of ``__all__``."""
    exported = _exported(tree)
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _unreferenced():
    """Qualified names of the definitions nothing in ``src/`` names.  A
    package ``__init__.py`` only re-exports, so its names do not count."""
    defined, used = [], set()
    for path, tree in _trees():
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        defined.extend(_definitions(tree, module))
        if path.name != "__init__.py":
            used.update(_names(tree))
    return {qualname for qualname, name in defined if name not in used}


class TestReferenceScan:
    def test_every_definition_is_named_in_src_or_allowlisted(self):
        unlisted = sorted(_unreferenced() - set(PUBLISHED) - set(REFERENCES))
        assert unlisted == [], (
            "defined in src/repro but named nowhere else in src/; call "
            "it, delete it, or allowlist it with its outside caller")

    def test_allowlists_are_current(self):
        """An entry whose definition is gone or now has a caller in
        ``src/`` is stale; an entry's file must name it."""
        unreferenced = _unreferenced()
        allowlisted = {**PUBLISHED, **REFERENCES}
        stale = sorted(set(allowlisted) - unreferenced)
        assert stale == [], "allowlist entries to remove"
        for qualname, where in allowlisted.items():
            name = qualname.rsplit(".", 1)[-1]
            assert re.search(rf"\b{name}\b", (ROOT / where).read_text()), (
                f"{where} does not name {qualname}")


#: Distribution names whose import name differs.
IMPORT_NAMES = {"scikit-learn": "sklearn"}


def _imported_modules():
    """Top-level module names that ``src/repro`` imports."""
    modules = set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def test_every_runtime_dependency_is_imported():
    tomllib = pytest.importorskip("tomllib")     # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    requirements = project["project"]["dependencies"]
    assert requirements, "pyproject.toml lists no runtime dependency"
    imported = _imported_modules()
    unused = []
    for requirement in requirements:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
        module = IMPORT_NAMES.get(name, name.replace("-", "_"))
        if module not in imported:
            unused.append(requirement)
    assert unused == [], "runtime dependencies nothing in src/ imports"


def test_every_fused_kernel_has_an_oracle():
    """``OPS_KERNELS`` names exactly the public ``fused_*`` ops, and each
    has its oracle under the same name."""
    from repro.autodiff import ops
    from tests import oracles
    kernels = {name for name, value in vars(ops).items()
               if name.startswith("fused_") and callable(value)}
    assert kernels == set(oracles.OPS_KERNELS)
    for name in oracles.OPS_KERNELS:
        assert callable(getattr(oracles, name, None)), name
