"""Benchmark for the §3 data-volume claim: "two-dimensional SI test set
compaction ... reduces test data volume significantly", measured in shift
bits, per group count.
"""

import pytest

from repro.experiments.compaction_study import (
    format_volume_report,
    measure_compaction,
)
from repro.sitest.generator import generate_random_patterns


@pytest.mark.parametrize("soc_name", ["p34392", "p93791"])
def bench_data_volume_study(benchmark, soc_name, request):
    soc = request.getfixturevalue(soc_name)
    patterns = generate_random_patterns(soc, 5_000, seed=1)

    volumes = benchmark.pedantic(
        measure_compaction,
        args=(soc, patterns, (1, 2, 4, 8)),
        kwargs={"seed": 1},
        rounds=1,
        iterations=1,
    )
    print(f"\n{soc_name}:")
    print(format_volume_report(volumes))
    flat = volumes[0]
    best = min(volumes, key=lambda volume: volume.volume_after)
    # The §3 claim: significant volume reduction, and the 2-D scheme (some
    # i > 1) at least matches pure vertical compaction.
    assert flat.volume_after < flat.volume_before / 5
    assert best.volume_after <= flat.volume_after

