"""Unit tests for fairness, time series and throughput statistics."""

import pytest

from repro.stats import (
    differentiate,
    jain_index,
    resample,
    time_average,
    value_at,
)


class TestJainIndex:
    def test_equal_allocations_are_perfectly_fair(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        # Fig 5.14's "equal" and "single" cases.
        assert jain_index([100.0, 100.0]) == pytest.approx(1.0)
        assert jain_index([42.0]) == pytest.approx(1.0)

    def test_single_hog_approaches_one_over_n(self):
        assert jain_index([100.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_paper_style_two_flows(self):
        # the 2-flow index used in Fig 5.18, and Fig 5.14's "starved" case
        assert jain_index([300.0, 100.0]) == pytest.approx(
            (400.0**2) / (2 * (300.0**2 + 100.0**2))
        )
        assert jain_index([190.0, 10.0]) == pytest.approx(
            (200.0**2) / (2 * (190.0**2 + 10.0**2))
        )

    def test_empty_and_zero_are_vacuously_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_scale_invariance(self):
        xs = [1.0, 2.0, 3.0]
        assert jain_index(xs) == pytest.approx(jain_index([10 * x for x in xs]))

    def test_tiny_allocations_keep_their_index(self):
        # The squares of these underflow; one hog of two is still 1/2.
        assert jain_index([0.0, 8.7e-162]) == pytest.approx(0.5)
        assert jain_index([0.0, 1.1e-162]) == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([-1.0, 1.0])

    def test_worst_case(self):
        # One flow holding everything is the floor: exactly 1/n.
        for n in (1, 2, 4, 7):
            assert jain_index([10.0] + [0.0] * (n - 1)) == pytest.approx(1.0 / n)


class TestTimeSeries:
    SERIES = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]

    def test_value_at_step_semantics(self):
        assert value_at(self.SERIES, -0.5, default=9.0) == 9.0
        assert value_at(self.SERIES, 0.0) == 1.0
        assert value_at(self.SERIES, 0.99) == 1.0
        assert value_at(self.SERIES, 1.0) == 3.0
        assert value_at(self.SERIES, 99.0) == 2.0

    def test_resample_grid(self):
        grid = resample(self.SERIES, 0.0, 2.0, 0.5)
        assert grid == [
            (0.0, 1.0), (0.5, 1.0), (1.0, 3.0), (1.5, 3.0), (2.0, 2.0)
        ]

    def test_resample_validates_step(self):
        with pytest.raises(ValueError):
            resample(self.SERIES, 0.0, 1.0, 0.0)

    def test_differentiate_rates(self):
        cumulative = [(0.0, 0.0), (1.0, 10.0), (3.0, 30.0)]
        assert differentiate(cumulative) == [(1.0, 10.0), (3.0, 10.0)]

    def test_differentiate_handles_zero_dt(self):
        assert differentiate([(1.0, 0.0), (1.0, 5.0)]) == [(1.0, 0.0)]

    def test_time_average_weighs_durations(self):
        # value 1 for 1 s, then 3 for 1 s -> mean 2 over [0, 2]
        assert time_average(self.SERIES, 0.0, 2.0) == pytest.approx(2.0)

    def test_time_average_partial_window(self):
        assert time_average(self.SERIES, 1.0, 2.0) == pytest.approx(3.0)

    def test_time_average_validates_window(self):
        with pytest.raises(ValueError):
            time_average(self.SERIES, 2.0, 1.0)


class TestThroughput:
    def test_sampler_records_series_and_rates(self):
        """The dynamics sampler is a one-watch ``TimeseriesProbe``: an
        immediate first sample, one per interval, rate = delta bytes / dt."""
        from repro.obs import TimeseriesProbe
        from repro.sim import Simulator

        class FakeSink:
            delivered_bytes = 0

        sim = Simulator(seed=1)
        sink = FakeSink()
        probe = TimeseriesProbe(sim, interval=1.0).watch(
            "bytes", lambda: sink.delivered_bytes).start()

        def grow():
            sink.delivered_bytes += 1250  # 10 kbit per second

        for t in (0.5, 1.5, 2.5):
            sim.at(t, grow)
        sim.run(until=3.0)
        probe.stop()
        series = probe.series["bytes"]
        assert series[0] == (0.0, 0.0)
        assert [t for t, _ in series] == [0.0, 1.0, 2.0, 3.0]
        rates = [(t, rate * 8.0 / 1000.0) for t, rate in differentiate(series)]
        assert len(rates) == 3
        assert all(rate == pytest.approx(10.0) for _, rate in rates)
