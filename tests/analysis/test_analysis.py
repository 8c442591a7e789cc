"""Analytical models: Table 2 formulas, scalability math, reporting."""

import math

import pytest

from repro.analysis.peak import (
    ARCH_ORDER,
    FORMULAS,
    PeakModel,
    peak_table,
    write_improvement_over_chained,
)
from repro.analysis.report import (
    render_series,
    render_sparkline,
    render_table,
)
from repro.analysis.scalability import improvement_factor, scaling_efficiency


def model(n=12):
    return PeakModel(n=n, B=10.0, m=60, R=0.003, W=0.003)


def test_table2_read_bandwidth():
    t = peak_table(model())
    assert t["raidx"]["max_bw_read"] == 120
    assert t["raid5"]["max_bw_read"] == 110
    assert t["raid10"]["max_bw_read"] == 120


def test_table2_raidx_write_advantage():
    t = peak_table(model())
    # RAID-x small/large write bandwidth = full nB, double the mirrors.
    assert t["raidx"]["max_bw_large_write"] == pytest.approx(
        2 * t["raid10"]["max_bw_large_write"]
    )
    assert t["raidx"]["max_bw_small_write"] == pytest.approx(
        4 * t["raid5"]["max_bw_small_write"]
    )


def test_table2_small_write_latency():
    t = peak_table(model())
    assert t["raid5"]["t_small_write"] == pytest.approx(0.006)
    for arch in ("raid10", "chained", "raidx"):
        assert t[arch]["t_small_write"] == pytest.approx(0.003)


def test_table2_raidx_large_write_formula():
    m = model()
    t = peak_table(m)
    expected = (
        m.m * m.W / m.n + m.m * m.W / (m.n * (m.n - 1))
    )
    assert t["raidx"]["t_large_write"] == pytest.approx(expected)
    assert t["raidx"]["t_large_write"] < t["raid10"]["t_large_write"]


def test_table2_fault_coverage_row():
    t = peak_table(model())
    assert t["raid10"]["fault_coverage"] == 6
    assert t["raid5"]["fault_coverage"] == 1
    assert t["raidx"]["fault_coverage"] == 1


def test_formulas_cover_all_cells():
    t = peak_table(model())
    for arch in ARCH_ORDER:
        assert set(FORMULAS[arch]) == set(t[arch])


def test_peak_model_validation():
    with pytest.raises(ValueError):
        PeakModel(n=1, B=1, m=1, R=1, W=1)
    with pytest.raises(ValueError):
        PeakModel(n=4, B=0, m=1, R=1, W=1)
    with pytest.raises(ValueError):
        model().row("raid9")


def test_write_improvement_approaches_two():
    small = write_improvement_over_chained(4)
    big = write_improvement_over_chained(1000)
    assert small < big < 2.0
    assert big == pytest.approx(2.0, abs=0.01)


def test_improvement_factor():
    assert improvement_factor(2.0, 10.0) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        improvement_factor(0, 1)


def test_scaling_efficiency_linear_is_one():
    eff = scaling_efficiency([1, 2, 4], [5.0, 10.0, 20.0])
    assert eff == pytest.approx([1.0, 1.0, 1.0])


def test_scaling_efficiency_validation():
    with pytest.raises(ValueError):
        scaling_efficiency([1], [1.0, 2.0])
    with pytest.raises(ValueError):
        scaling_efficiency([], [])


def test_render_table_alignment():
    out = render_table(["a", "bb"], [[1, 2.5], ["xxx", float("nan")]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "-+-" in lines[1]
    assert "-" in lines[3]  # NaN rendered as dash


def test_render_table_row_width_mismatch():
    with pytest.raises(ValueError):
        render_table(["a"], [[1, 2]])


def test_render_series():
    out = render_series("x", [1, 2], {"s": [10.0, 20.0]}, title="T")
    assert out.startswith("T")
    assert "20.00" in out


def test_render_sparkline():
    s = render_sparkline([0, 1, 2, 3])
    assert len(s) == 4
    assert render_sparkline([]) == ""
