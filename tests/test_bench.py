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
        build_slope=0.5,
        constancy_ratio=4.0,
        lookahead=[BenchPoint(1_000, 30, 100.0, 1.0), BenchPoint(100_000, 30, 400.0, 1.0)],
        lookahead_ratio=4.0,
    )
    problems = report.failures()
    assert len(problems) == 3
    assert any("constancy" in p for p in problems)
    assert any("lookahead" in p for p in problems)
    assert any("slope" in p for p in problems)


def test_small_scale_run():
    report = run_bench(update_sizes=(300, 900), build_sizes=(100, 300),
                       update_samples=60, build_samples=30, seed=1)
    assert [p.n for p in report.update] == [300, 900]
    assert [p.n for p in report.build] == [100, 300]
    assert [p.n for p in report.lookahead] == [100, 300]
    assert all(p.samples >= 30 for p in report.update + report.build + report.lookahead)
    assert report.constancy_ratio > 0
    assert report.lookahead_ratio > 0
    assert report.to_dict()["build_slope"] == report.build_slope
