import pytest

import workloads


@pytest.mark.parametrize("n, p", [
    (19, 100.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10_000, 99.9), (100_000, 99.99), (10**7, 99.99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    assert workloads.tail_percentile(n) == p


def test_latency_summary_reports_percentile_and_count():
    ms = [float(i) for i in range(1, 1001)]
    s = workloads.latency_summary(ms)
    assert s["tail_percentile"] == 99.0 and s["samples"] == 1000
    assert sum(x > s["tail_ms"] for x in ms) == 10
    assert s["p50_ms"] == pytest.approx(500.5)
