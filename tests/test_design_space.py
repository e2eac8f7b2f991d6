"""The NAT design-space survey (repro.natcheck.fleet.survey_design_space).

Every cell of the behaviour-axis cross product runs the real NAT Check
protocol once, so the per-column counts and the per-axis sensitivity
buckets are exact.  The full sweep runs once per module.  Table 1's fleet
is a weighted handful of those cells, and the last test pins that.
"""

import math

import pytest

from repro.nat.behavior import NatBehavior
from repro.natcheck.client import NatCheckConfig
from repro.natcheck.fleet import (
    DESIGN_SPACE_AXES,
    DESIGN_SPACE_COLUMNS,
    DESIGN_SPACE_SIZE,
    VENDOR_SPECS,
    check_device,
    device_behavior,
    device_fingerprint,
    run_fleet,
    survey_design_space,
)


@pytest.fixture(scope="module")
def survey():
    return survey_design_space()


def _trials(buckets):
    return {column["trials"] for columns in buckets.values() for column in columns.values()}


def _successes(buckets):
    """``{option: (udp, udp_hairpin, tcp, tcp_hairpin) successes}``."""
    return {
        option: tuple(columns[name]["successes"] for name, _ in DESIGN_SPACE_COLUMNS)
        for option, columns in buckets.items()
    }


class TestDesignSpace:
    def test_space_size_is_axis_product(self):
        assert DESIGN_SPACE_SIZE == math.prod(
            len(options) for options in DESIGN_SPACE_AXES.values()
        )
        # 3 mapping x 4 filtering x 4 tcp_mapping x 3 tcp_refusal x 2 x 2
        assert DESIGN_SPACE_SIZE == 576


class TestSurveyDesignSpace:
    def test_column_counts_are_exact(self, survey):
        assert survey["cells"] == DESIGN_SPACE_SIZE
        assert {
            name: (column["successes"], column["trials"])
            for name, column in survey["columns"].items()
        } == {
            "udp": (192, 576),
            "udp_hairpin": (288, 576),
            "tcp": (128, 576),
            "tcp_hairpin": (96, 576),
        }
        assert survey["columns"]["udp"]["rate"] == 192 / 576

    def test_mapping_buckets(self, survey):
        # Only EIM punches UDP.
        assert _trials(survey["sensitivity"]["mapping"]) == {576 // 3}
        assert _successes(survey["sensitivity"]["mapping"]) == {
            "endpoint-independent": (192, 96, 64, 48),
            "address-dependent": (0, 96, 32, 24),
            "address-and-port-dependent": (0, 96, 32, 24),
        }

    def test_tcp_mapping_buckets(self, survey):
        # "inherit" punches TCP only where the inherited UDP mapping is EIM.
        assert _trials(survey["sensitivity"]["tcp_mapping"]) == {576 // 4}
        assert _successes(survey["sensitivity"]["tcp_mapping"]) == {
            "inherit": (48, 72, 32, 24),
            "endpoint-independent": (48, 72, 96, 72),
            "address-dependent": (48, 72, 0, 0),
            "address-and-port-dependent": (48, 72, 0, 0),
        }

    def test_each_axis_partitions_the_cells(self, survey):
        sensitivity = survey["sensitivity"]
        assert set(sensitivity) == set(DESIGN_SPACE_AXES)
        for axis, options in DESIGN_SPACE_AXES.items():
            buckets = sensitivity[axis]
            assert len(buckets) == len(options)
            for name, _field in DESIGN_SPACE_COLUMNS:
                assert sum(b[name]["trials"] for b in buckets.values()) == survey["cells"]
                assert (
                    sum(b[name]["successes"] for b in buckets.values())
                    == survey["columns"][name]["successes"]
                )


def test_table1_is_fourteen_cells_of_the_design_space():
    """Every Table 1 device's behaviour is a design-space cell (14 distinct
    on seed 42), and every column its NAT Check config ran equals what the
    survey's full-config run of that cell measures."""
    config = NatCheckConfig()
    cells = {}
    behaviors = [
        device_behavior(spec, index) for spec in VENDOR_SPECS for index in range(spec.population)
    ]
    for behavior in behaviors:
        axes = {axis: getattr(behavior, axis) for axis in DESIGN_SPACE_AXES}
        assert all(value in DESIGN_SPACE_AXES[axis] for axis, value in axes.items())
        assert NatBehavior(**axes) == behavior  # nothing set off the axes
        if behavior not in cells:
            seed = device_fingerprint(behavior, config, 42).seed
            cells[behavior] = check_device(behavior, config, seed=seed)
    assert len(cells) == 14

    outcomes = mismatches = 0
    for behavior, report in zip(behaviors, run_fleet(seed=42).all_reports()):
        for _name, field_name in DESIGN_SPACE_COLUMNS:
            measured = getattr(report, field_name)
            if measured is None:
                continue
            outcomes += 1
            mismatches += measured != getattr(cells[behavior], field_name)
    assert (outcomes, mismatches) == (1285, 0)
