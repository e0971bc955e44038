"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.autodiff import get_default_dtype
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.city == "toy" and args.methods == "nh,bf,af"

    def test_one_dtype_flag(self):
        assert not build_parser().parse_args(["compare"]).float64
        assert build_parser().parse_args(["compare", "--float64"]).float64
        with pytest.raises(SystemExit):     # float32 is the default
            build_parser().parse_args(["compare", "--float32"])

    def test_unknown_city_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--city", "paris"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "ICDE 2020" in out

    def test_sparseness(self, capsys):
        assert main(["sparseness", "--city", "toy", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "min_trips=1" in out

    def test_generate_and_reload(self, tmp_path, capsys):
        out_path = tmp_path / "seq.npz"
        assert main(["generate", "--city", "toy", "--days", "1",
                     "--out", str(out_path)]) == 0
        assert out_path.exists()
        from repro.persistence import load_sequence
        sequence = load_sequence(out_path)
        assert sequence.n_intervals == 96

    def test_compare_fast(self, tmp_path, capsys):
        json_path = tmp_path / "rows.json"
        code = main(["compare", "--city", "toy", "--days", "2",
                     "--methods", "nh", "--s", "3", "--h", "1",
                     "--out", str(json_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "nh" in out
        rows = json.loads(json_path.read_text())["rows"]
        assert rows[0]["method"] == "nh"

    def test_compare_float64_restores_the_default_dtype(self, capsys):
        """``--float64`` applies to the compare run only: an in-process
        caller gets its own dtype back, also on the early error return."""
        assert main(["compare", "--city", "toy", "--days", "1",
                     "--methods", "nh", "--s", "3", "--h", "1",
                     "--float64"]) == 0
        assert get_default_dtype() is np.float32
        assert main(["compare", "--city", "toy", "--days", "1",
                     "--methods", "magic", "--float64"]) == 2
        assert get_default_dtype() is np.float32
        assert "nh" in capsys.readouterr().out

    def test_compare_rejects_unknown_method(self, capsys):
        code = main(["compare", "--city", "toy", "--days", "1",
                     "--methods", "magic"])
        assert code == 2
        assert "unknown methods" in capsys.readouterr().err


class TestHeadroomCommand:
    def test_headroom(self, capsys):
        assert main(["headroom", "--city", "toy", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "headroom" in out and "oracle" in out


class TestServeCommand:
    def test_serve_in_process(self, tmp_path, capsys):
        telemetry = tmp_path / "serve.jsonl"
        code = main(["serve", "--city", "toy", "--days", "2",
                     "--s", "3", "--h", "1", "--epochs", "1",
                     "--max-batches", "2", "--requests", "6",
                     "--checkpoint-dir", str(tmp_path),
                     "--telemetry", str(telemetry)])
        assert code == 0
        out = capsys.readouterr().out
        assert "forecasts in" in out and "cache hits" in out
        assert (tmp_path / "bf-toy.npz").exists()
        from repro.telemetry import read_events
        events = {e["event"] for e in read_events(telemetry)}
        assert "model_load" in events
        assert "serve_request" in events

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 0 and not hasattr(args, "engine")
