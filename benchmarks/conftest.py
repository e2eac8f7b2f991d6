"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's evaluation artifacts (Table 1,
Figures 1-8) or an ablation of a design choice, asserts the paper's
qualitative shape, and attaches the measured numbers to
``benchmark.extra_info`` so the JSON output doubles as the experiment record.

Run:  pytest benchmarks/ --benchmark-only
"""


def pytest_configure(config):
    # Benchmarks are simulations: a single round is deterministic, so we do
    # not need warmup and can keep rounds low for wall-clock sanity.
    config.option.benchmark_min_rounds = getattr(
        config.option, "benchmark_min_rounds", 5
    )
