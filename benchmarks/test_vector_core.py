"""Benchmark V1 — the default ``fast`` core on the acceptance atlas sweep.

Times the canonical ILP x DRAM-latency atlas (16 cells on the Fermi
GF106 configuration) serially on the ``fast`` core, as the atlas entry
of the CI regression gate.  Byte-identity of ``fast`` against the
``reference`` oracle is pinned by the golden-equivalence suite, not
here.
"""

import pytest

from repro.experiments import Session
from repro.sensitivity import LatencyToleranceAtlas

#: The acceptance sweep: ILP 1-8 against DRAM timings scaled 1-8x on the
#: Fermi GF106 configuration (16 cells).
ATLAS = LatencyToleranceAtlas(
    config="gf106",
    axis="ilp",
    values=(1, 2, 4, 8),
    transform="scale_dram_latency",
    scales=(1.0, 2.0, 4.0, 8.0),
    params={"iters": 32},
)


@pytest.mark.benchmark(group="atlas")
def test_fast_atlas_baseline(benchmark):
    """The fast core on the acceptance atlas, as a gated benchmark."""
    result = benchmark.pedantic(
        lambda: ATLAS.run(session=Session(cache=False, core="fast")),
        rounds=1, iterations=1)
    assert len(result.rows) == len(ATLAS.values)
