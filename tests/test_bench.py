import json

import numpy as np
import pytest

from sigauto import BenchReport, run_bench
from sigauto.bench import BenchPoint, _point, random_walk


class TestPointStatistics:
    def test_median_odd(self):
        point = _point(10, [5, 1, 9] * 11)
        assert point.median_ns == 5.0

    def test_median_even(self):
        point = _point(10, list(range(30)))
        assert point.median_ns == 14.5

    def test_p99_is_near_max(self):
        point = _point(10, list(range(100)))
        assert point.p99_ns == 98.0

    def test_refuses_small_samples(self):
        with pytest.raises(ValueError):
            _point(10, [1] * 29)


def test_random_walk_is_deterministic():
    assert random_walk(50, seed=3) == random_walk(50, seed=3)


def test_failures_detection():
    report = BenchReport(
        update=[BenchPoint(2_000, 30, 100.0, 1.0), BenchPoint(200_000, 30, 400.0, 1.0)],
        build=[BenchPoint(1_000, 30, 1.0, 1.0), BenchPoint(100_000, 30, 10.0, 1.0)],
        forecast=[BenchPoint(2_000, 30, 10.0, 1.0), BenchPoint(200_000, 30, 40.0, 1.0)],
        lookahead=[BenchPoint(1_000, 30, 100.0, 1.0), BenchPoint(100_000, 30, 400.0, 1.0)],
        bandwidth=[BenchPoint(2_000, 30, 20.0, 1.0), BenchPoint(200_000, 30, 2_000.0, 1.0)],
    )
    assert report.build_slope == pytest.approx(0.5)
    assert report.ratio("bandwidth") == 100.0
    problems = report.failures()
    assert len(problems) == 5
    assert any("constancy" in p for p in problems)
    assert any("forecast" in p for p in problems)
    assert any("lookahead" in p for p in problems)
    assert any("bandwidth" in p for p in problems)
    assert any("slope" in p for p in problems)


def test_small_scale_run():
    report = run_bench(update_sizes=(300, 900), build_sizes=(100, 300),
                       update_samples=60, build_samples=30, seed=1)
    assert [p.n for p in report.update] == [300, 900]
    assert [p.n for p in report.forecast] == [300, 900]
    assert [p.n for p in report.build] == [100, 300]
    assert [p.n for p in report.lookahead] == [100, 300]
    assert [p.n for p in report.bandwidth] == [300, 900]
    assert all(p.samples >= 30 for p in
               report.update + report.forecast + report.build + report.lookahead
               + report.bandwidth)
    assert all(report.ratio(series) > 0
               for series in ("update", "forecast", "lookahead", "bandwidth"))


SERIES = {"update": "constancy_ratio", "forecast": "forecast_ratio",
          "lookahead": "lookahead_ratio", "bandwidth": "bandwidth_ratio", "build": None}


def test_report_schema_at_small_sizes():
    """The 12 keys of the JSON report; each ratio and the build slope are
    figures of the points the report carries."""
    report = run_bench(update_sizes=(300, 900), build_sizes=(100, 300),
                       update_samples=60, build_samples=30, seed=1)
    doc = json.loads(json.dumps(report.to_dict()))
    assert set(doc) == {*SERIES, *filter(None, SERIES.values()), "build_slope",
                        "max_ratio", "slope_range"}
    assert len(doc) == 12
    assert doc["max_ratio"] == 3.0 and doc["slope_range"] == [0.8, 1.2]
    for series, ratio in SERIES.items():
        points = doc[series]
        assert all(set(p) == {"n", "samples", "median_ns", "p99_ns"} for p in points)
        if ratio:
            smallest = min(points, key=lambda p: p["n"])
            largest = max(points, key=lambda p: p["n"])
            assert doc[ratio] == largest["median_ns"] / smallest["median_ns"]
    build = doc["build"]
    slope = np.polyfit(np.log10([p["n"] for p in build]),
                       np.log10([p["median_ns"] for p in build]), 1)[0]
    assert doc["build_slope"] == float(slope)
