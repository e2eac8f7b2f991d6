"""The NAT design-space survey (repro.natcheck.fleet.survey_design_space).

Every cell of the behaviour-axis cross product runs the real NAT Check
protocol once, so the per-column counts and the per-axis sensitivity
buckets are exact.  The full sweep runs once per module.
"""

import math

import pytest

from repro.natcheck.fleet import (
    MONTE_CARLO_AXES,
    MONTE_CARLO_COLUMNS,
    MONTE_CARLO_SPACE,
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
        option: tuple(columns[name]["successes"] for name, _ in MONTE_CARLO_COLUMNS)
        for option, columns in buckets.items()
    }


class TestDesignSpace:
    def test_space_size_is_axis_product(self):
        assert MONTE_CARLO_SPACE == math.prod(
            len(options) for options in MONTE_CARLO_AXES.values()
        )
        # 3 mapping x 4 filtering x 4 tcp_mapping x 3 tcp_refusal x 2 x 2
        assert MONTE_CARLO_SPACE == 576


class TestSurveyDesignSpace:
    def test_column_counts_are_exact(self, survey):
        assert survey["cells"] == MONTE_CARLO_SPACE
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
        assert set(sensitivity) == set(MONTE_CARLO_AXES)
        for axis, options in MONTE_CARLO_AXES.items():
            buckets = sensitivity[axis]
            assert len(buckets) == len(options)
            for name, _field in MONTE_CARLO_COLUMNS:
                assert sum(b[name]["trials"] for b in buckets.values()) == survey["cells"]
                assert (
                    sum(b[name]["successes"] for b in buckets.values())
                    == survey["columns"][name]["successes"]
                )

    def test_cells_caps_the_sweep(self):
        result = survey_design_space(cells=24)
        assert result["cells"] == 24
        for column in result["columns"].values():
            assert column["trials"] == 24

    def test_cells_below_one_is_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                survey_design_space(cells=bad)
