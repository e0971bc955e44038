"""Hygiene checks on the benchmark harness (without running it)."""

import ast
import os
import re
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("test_*.py"))


class TestBenchmarkHygiene:
    def test_every_paper_artifact_has_a_benchmark(self):
        names = {path.stem for path in BENCH_FILES}
        assert "test_table1_configs" in names
        assert "test_table2_overall" in names
        assert "test_fig7_sparseness" in names
        assert "test_fig8_10_time_of_day" in names
        assert "test_fig11_13_distance" in names
        assert "test_fig14_proximity" in names
        assert "test_ablations" in names

    @pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
    def test_parses_with_docstring(self, path):
        tree = ast.parse(path.read_text())
        doc = ast.get_docstring(tree)
        assert doc, f"{path.name} lacks a docstring"

    @pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
    def test_every_test_uses_benchmark_fixture(self, path):
        """--benchmark-only skips tests without the fixture; a bench test
        that forgot it would silently never run."""
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and node.name.startswith("test_"):
                args = {a.arg for a in node.args.args}
                assert "benchmark" in args, (
                    f"{path.name}::{node.name} misses the benchmark "
                    "fixture")

    def test_runner_script_executable(self):
        script = BENCH_DIR.parent / "run_benchmarks.sh"
        assert script.exists()
        assert os.access(script, os.X_OK)

    def test_conftest_smoke_mode_documented(self):
        conftest = (BENCH_DIR / "conftest.py").read_text()
        assert "REPRO_BENCH_SCALE" in conftest
        assert "smoke" in conftest

    def test_every_swept_script_exists_with_docstring(self):
        """Every ``python3 <script>`` the sweep runs must exist and say
        what it gates: a renamed or deleted gate must fail here, not
        halfway through a sweep."""
        root = BENCH_DIR.parent
        script = (root / "run_benchmarks.sh").read_text()
        gates = re.findall(r"^\s*python3\s+(\S+\.py)\b", script,
                           flags=re.MULTILINE)
        assert gates, "run_benchmarks.sh runs no python3 script"
        for gate in gates:
            path = root / gate
            assert path.exists(), f"{gate} is run by the sweep but missing"
            assert ast.get_docstring(ast.parse(path.read_text())), (
                f"{gate} lacks a docstring")

    def test_engine_gates_wired_into_sweep(self):
        """The serving parity gate must run (and be able to fail) the
        benchmark sweep: serve_smoke.py compares served forecasts
        against forecast_latest bitwise and exits non-zero on a
        mismatch."""
        script = (BENCH_DIR.parent / "run_benchmarks.sh").read_text()
        gate = "serve_smoke.py"
        lines = [line for line in script.splitlines()
                 if line.startswith(f"python3 benchmarks/{gate}")]
        assert lines, f"{gate} not wired into the sweep"
        assert lines[0].rstrip().endswith("|| exit 1")
        source = (BENCH_DIR / gate).read_text()
        assert "serving diverged from forecast_latest" in source, (
            f"{gate} no longer fails on a served != forecast_latest "
            "mismatch")
        assert "forecast_latest" in source
        assert "sys.exit(main())" in source

    def test_serve_gate_wired_into_sweep(self):
        """The serving regression gate (parity with forecast_latest,
        cache speedup, throughput floor) must run in the sweep."""
        script = (BENCH_DIR.parent / "run_benchmarks.sh").read_text()
        assert "serve_smoke.py" in script
        gate = BENCH_DIR / "serve_smoke.py"
        assert gate.exists()
        assert ast.get_docstring(ast.parse(gate.read_text()))

    def test_serve_smoke_reports_required_sections(self):
        """BENCH_SERVE.json must keep its parity/cache/throughput
        sections and the fields the dashboards read."""
        source = (BENCH_DIR / "serve_smoke.py").read_text()
        tree = ast.parse(source)
        report_keys = {
            key.value
            for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        for section in ("parity", "cache", "throughput", "transport",
                        "shedding"):
            assert section in report_keys, (
                f"serve smoke report lost its '{section}' section")
        for field in ("cold_ms", "hit_ms", "speedup", "forecasts_per_sec",
                      "p50_ms", "p99_ms", "p99_warm_ms", "shm_ms",
                      "pickle_ms", "bit_identical", "leaked_segments",
                      "shed", "shed_full", "shed_deadline",
                      "healthy_after"):
            assert field in source, (
                f"serve smoke report lost its '{field}' field")
        assert "forecast_latest" in source, (
            "the parity gate must compare against forecast_latest")

    def test_serve_smoke_enforces_transport_and_shed_floors(self):
        """The shm-vs-pickle speedup floor and the overload shed
        scenario are load-bearing: losing either silently would let
        the zero-copy data plane regress to a slow pickle path."""
        source = (BENCH_DIR / "serve_smoke.py").read_text()
        assert "MIN_SHM_SPEEDUP" in source
        assert "leaked_segments" in source, (
            "the transport gate must assert no /dev/shm segment "
            "survives pool close")
        assert "ShedError" in source, (
            "the overload scenario must observe ShedError sheds")
        script = (BENCH_DIR.parent / "run_benchmarks.sh").read_text()
        assert "shm" in script, (
            "run_benchmarks.sh must document the shm transport gate")

    def test_shard_gate_wired_into_sweep(self):
        """The block-sparse sharding gate (exact-mode bit-parity with
        dense, metro-scale budgeted epoch) must run in the sweep."""
        script = (BENCH_DIR.parent / "run_benchmarks.sh").read_text()
        assert "shard_smoke.py" in script
        gate = BENCH_DIR / "shard_smoke.py"
        assert gate.exists()
        assert ast.get_docstring(ast.parse(gate.read_text()))

    def test_e2e_correctness_gate_wired_into_sweep(self):
        """One short pipeline-metro run of the end-to-end benchmark must
        run in the sweep and be able to fail it (its output checks:
        pool ≡ in-process predict, shard budget, finite normalized
        forecasts)."""
        script = (BENCH_DIR.parent / "run_benchmarks.sh").read_text()
        gate = [line for line in script.splitlines()
                if line.startswith("python3 e2ebench/run.py")]
        assert gate, "e2ebench gate not wired into the sweep"
        assert "--workload pipeline-metro" in gate[0]
        assert gate[0].rstrip().endswith("|| exit 1")
        assert (BENCH_DIR.parent / "e2ebench" / "run.py").exists()

    def test_shard_smoke_reports_required_sections(self):
        """BENCH_SHARD.json must keep its parity/metro sections and the
        fields the scaling claims rest on."""
        source = (BENCH_DIR / "shard_smoke.py").read_text()
        tree = ast.parse(source)
        report_keys = {
            key.value
            for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        for section in ("parity", "metro", "storage", "forward", "epoch"):
            assert section in report_keys, (
                f"shard smoke report lost its '{section}' section")
        for field in ("losses_bit_identical", "weights_bit_identical",
                      "rng_bit_identical", "max_shard_peak_bytes",
                      "budget_bytes", "dense_seconds", "sharded_seconds",
                      "occupancy", "serve_seconds"):
            assert field in source, (
                f"shard smoke report lost its '{field}' field")


def _load_spans():
    """``e2ebench/spans.py`` as a module, imported from its file."""
    import importlib.util
    path = BENCH_DIR.parent / "e2ebench" / "spans.py"
    spec = importlib.util.spec_from_file_location("e2ebench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _proximity(n, rng):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def _af_step_labels(n_origins, n_dests, mode):
    """Op labels one AF training step reports to the op profiler."""
    from repro.autodiff import profile
    from repro.core import AdvancedFramework, ShardedExecution, af_loss
    from repro.graph import chebyshev_hops, plan_shards

    rng = np.random.default_rng(3)
    w_o = _proximity(n_origins, rng)
    w_d = w_o if n_dests == n_origins else _proximity(n_dests, rng)
    model = AdvancedFramework(w_o, w_d, 5, np.random.default_rng(7),
                              rank=3, rnn_hidden=6, rnn_order=2)
    if mode is not None:
        plan = plan_shards(w_o, n_shards=2, hops=chebyshev_hops([3, 3]))
        model.set_sharding(ShardedExecution(plan, mode=mode))
    histories = rng.uniform(size=(2, 3, n_origins, n_dests, 5))
    histories[:, :, :2] = 0.0                 # empty slices to collapse
    targets = rng.uniform(size=(2, 1, n_origins, n_dests, 5))
    masks = (rng.uniform(size=(2, 1, n_origins, n_dests)) < 0.5) * 1.0
    with profile() as profiler:
        prediction, r, c = model(histories, 1)
        af_loss(prediction, targets, masks, r, c, w_o, w_d).backward()
    return set(profiler.as_dict())


@pytest.mark.parametrize("n_origins,n_dests,mode,stage_op", [
    (10, 10, None, "fused_gcnn_stage"),
    (10, 12, None, "fused_gcnn_stage"),
    (10, 10, "exact", "_exact_run"),
    (10, 10, "blocked", "_blocked_run")],
    ids=["dense-twin", "single-side", "exact", "blocked"])
def test_af_step_op_labels_are_booked(n_origins, n_dests, mode, stage_op):
    """Every op an AF training step runs is booked to a stage or to
    glue in the benchmark's span tables, so a kernel refactor cannot
    move time into the unmapped bucket unnoticed."""
    spans = _load_spans()
    booked = {op for ops in spans.STAGE_OPS.values() for op in ops}
    booked |= set(spans.GLUE_OPS)
    labels = _af_step_labels(n_origins, n_dests, mode)
    assert stage_op in labels
    assert stage_op in spans.STAGE_OPS["core.factorize"]
    assert labels <= booked, f"unbooked op labels: {labels - booked}"


def test_paper_scale_e2e_gate_wired_into_sweep():
    """A short traced pipeline-paper run (served ≡ forecast_latest, the
    stage buckets summing to the profiler total) must be able to fail
    the sweep."""
    script = (BENCH_DIR.parent / "run_benchmarks.sh").read_text()
    gate = [line for line in script.splitlines()
            if line.startswith("python3 e2ebench/run.py")
            and "--workload pipeline-paper" in line]
    assert gate, "pipeline-paper e2ebench gate not wired into the sweep"
    assert "--trace 1" in gate[0]
    assert gate[0].rstrip().endswith("|| exit 1")
