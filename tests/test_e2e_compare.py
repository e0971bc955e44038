"""Judging logic of ``benchmarks/e2e_compare.py`` on canned result lines
(no git, no subprocess)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location(
        "e2e_compare", ROOT / "benchmarks" / "e2e_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _load()

END_TO_END = [
    {"name": "train_windows_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower",
     "bound": 0.1},
    {"name": "test_kl", "unit": "nats", "better": "lower", "bound": 0.08},
    {"name": "serve_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.25},
]


def _line(train, rss, kl, correct=True, attempted=100, failed=0):
    """One run's stdout, ending in its result line (no serve metric)."""
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {
                  "train_windows_per_s": {"value": train, "unit": "1/s"},
                  "peak_rss_mib": {"value": rss, "unit": "MiB"},
                  "test_kl": {"value": kl, "unit": "nats"}}}
    return "host: ...\ndetail: {}\n" + json.dumps(result) + "\n"


def _runs(*lines):
    return [compare.parse_result(line) for line in lines]


def _row(verdict, name):
    return next(row for row in verdict["metrics"] if row["name"] == name)


BASE = _runs(_line(16.0, 800.0, 3.90), _line(17.0, 810.0, 3.91),
             _line(15.0, 805.0, 3.92))


class TestParse:
    def test_last_line_is_the_result(self):
        assert compare.parse_result(_line(1.0, 2.0, 3.0))["correct"]

    @pytest.mark.parametrize("stdout", ["", "Traceback ...\nValueError",
                                        "[1, 2]\n"])
    def test_crashed_run_parses_to_none(self, stdout):
        assert compare.parse_result(stdout) is None


class TestJudge:
    def test_within_bounds_passes(self):
        change = _runs(_line(15.5, 790.0, 3.90), _line(16.5, 800.0, 3.91),
                       _line(14.0, 812.0, 3.92))
        verdict = compare.judge(END_TO_END, BASE, change)
        assert verdict["passed"], verdict["problems"]
        train = _row(verdict, "train_windows_per_s")
        assert train["base_median"] == 16.0
        assert train["change_median"] == 15.5
        assert train["worse_by"] == pytest.approx(0.5 / 16.0)
        assert train["base_iqr"] == pytest.approx(1.0)

    def test_metric_neither_side_reports_is_skipped(self):
        verdict = compare.judge(END_TO_END, BASE, BASE)
        assert "serve_p50_ms" not in {r["name"] for r in verdict["metrics"]}

    def test_lower_is_better_breach(self):
        change = _runs(*[_line(16.0, 900.0, 3.9)] * 3)     # RSS +11%
        verdict = compare.judge(END_TO_END, BASE, change)
        assert not verdict["passed"]
        assert not _row(verdict, "peak_rss_mib")["passed"]
        assert _row(verdict, "train_windows_per_s")["passed"]

    def test_higher_is_better_breach(self):
        change = _runs(*[_line(11.0, 805.0, 3.9)] * 3)     # -31%
        verdict = compare.judge(END_TO_END, BASE, change)
        row = _row(verdict, "train_windows_per_s")
        assert not row["passed"]
        assert row["worse_by"] == pytest.approx(5.0 / 16.0)

    def test_a_gain_is_never_a_breach(self):
        change = _runs(*[_line(40.0, 400.0, 1.0)] * 3)
        verdict = compare.judge(END_TO_END, BASE, change)
        assert verdict["passed"]
        assert _row(verdict, "peak_rss_mib")["worse_by"] < 0

    def test_test_metrics_bit_equality_at_matching_seeds(self):
        change = _runs(_line(16.0, 800.0, 3.90), _line(17.0, 810.0, 3.9100001),
                       _line(15.0, 805.0, 3.92))
        row = _row(compare.judge(END_TO_END, BASE, change), "test_kl")
        assert (row["bit_equal"], row["matched"]) == (2, 3)
        assert row["passed"]
        assert "bit_equal" not in _row(
            compare.judge(END_TO_END, BASE, change), "peak_rss_mib")

    def test_more_failed_runs_than_base_fails(self):
        change = _runs(_line(16.0, 800.0, 3.90),
                       _line(17.0, 810.0, 3.91, correct=False),
                       _line(15.0, 805.0, 3.92))
        verdict = compare.judge(END_TO_END, BASE, change)
        assert not verdict["passed"]
        assert verdict["checks"]["change_runs_failed"] == 1

    def test_crashed_change_run_fails(self):
        change = [BASE[0], None, BASE[2]]
        verdict = compare.judge(END_TO_END, BASE, change)
        assert not verdict["passed"]
        assert "lost the value" in _row(verdict, "peak_rss_mib")["reason"]

    def test_larger_failed_share_fails(self):
        change = _runs(_line(16.0, 800.0, 3.90, failed=2),
                       _line(17.0, 810.0, 3.91), _line(15.0, 805.0, 3.92))
        verdict = compare.judge(END_TO_END, BASE, change)
        assert not verdict["passed"]
        assert verdict["checks"]["change_failed_share"] == pytest.approx(
            2 / 300)

    def test_value_missing_on_change_side_fails(self):
        text = _line(16.0, 800.0, 3.9).replace('"value": 800.0',
                                               '"value": null')
        verdict = compare.judge(END_TO_END, BASE,
                                [compare.parse_result(text)] + BASE[1:])
        assert not _row(verdict, "peak_rss_mib")["passed"]

    def test_format_names_every_judged_metric(self):
        verdict = compare.judge(END_TO_END, BASE, BASE)
        table = compare.format_verdict("pipeline-paper", verdict)
        for name in ("train_windows_per_s", "peak_rss_mib", "test_kl"):
            assert name in table
        assert "bit-equal 3/3" in table
        assert "PROBLEM" not in table


TRAIN = END_TO_END[0]
RSS = END_TO_END[1]


def _pairs(base_train, change_train, rss=800.0):
    """Base and change runs of ``len(base_train)`` pairs."""
    return (_runs(*[_line(t, rss, 3.9) for t in base_train]),
            _runs(*[_line(t, rss, 3.9) for t in change_train]))


class TestClaim:
    BASE_TRAIN = [16.0, 15.0, 17.0, 16.5, 15.5, 16.0, 14.0, 18.0, 16.2,
                  15.8]

    def test_nine_wins_beyond_iqr_holds(self):
        change = [t + 4.0 for t in self.BASE_TRAIN]
        change[3] = 16.0                          # one loss: 9/10 wins
        row = compare.judge_claim(TRAIN, *_pairs(self.BASE_TRAIN, change))
        assert (row["wins"], row["pairs"]) == (9, 10)
        assert row["passed"], row.get("reason")
        assert row["gain"] > row["base_iqr"]
        assert "wins 9/10 pairs" in compare.format_claim("paper", row)
        assert "HOLDS" in compare.format_claim("paper", row)

    def test_eight_wins_fails(self):
        change = [t + 4.0 for t in self.BASE_TRAIN]
        change[3] = change[6] = 13.0
        row = compare.judge_claim(TRAIN, *_pairs(self.BASE_TRAIN, change))
        assert row["wins"] == 8
        assert not row["passed"]
        assert "won 8 of 10" in row["reason"]

    def test_ties_count_for_neither_side(self):
        change = [t + 4.0 for t in self.BASE_TRAIN]
        change[0] = self.BASE_TRAIN[0]
        change[1] = self.BASE_TRAIN[1]
        row = compare.judge_claim(TRAIN, *_pairs(self.BASE_TRAIN, change))
        assert row["wins"] == 8
        assert not row["passed"]

    def test_every_pair_won_within_iqr_fails(self):
        change = [t + 0.1 for t in self.BASE_TRAIN]
        row = compare.judge_claim(TRAIN, *_pairs(self.BASE_TRAIN, change))
        assert row["wins"] == 10
        assert not row["passed"]
        assert "IQR" in row["reason"]

    def test_lower_is_better(self):
        base, change = (_runs(*[_line(16.0, rss, 3.9) for rss in values])
                        for values in ([800.0, 805.0, 810.0],
                                       [700.0, 706.0, 709.0]))
        row = compare.judge_claim(RSS, base, change)
        assert row["wins"] == 3 and row["passed"]
        row = compare.judge_claim(RSS, change, base)
        assert row["wins"] == 0 and not row["passed"]

    def test_crashed_change_run_is_not_a_win(self):
        base, change = _pairs(self.BASE_TRAIN,
                              [t + 4.0 for t in self.BASE_TRAIN])
        change[0] = change[1] = None
        row = compare.judge_claim(TRAIN, base, change)
        assert (row["wins"], row["pairs"]) == (8, 10)
        assert not row["passed"]
