"""Each benchmark workload (`bench/workloads.py`) runs once at minimal size,
untraced and traced, so a program change that breaks the benchmark's ops
or its tracer shows in the test suite. The bench files are only read."""
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"

sys.path.insert(0, str(BENCH))  # workloads imports its tracer by name
try:
    import workloads
finally:
    sys.path.remove(str(BENCH))

MINIMAL = workloads.Size(pairs=(("case1_like", 2),), n_deviations=2,
                         setup_repeats=1)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(name, trace, tmp_path):
    run = workloads.run(name, seed=1, seconds=0, trace=trace,
                        scratch=tmp_path, import_s=0.0, size=MINIMAL)
    assert run.attempted >= 1
    assert run.failed == 0
    assert run.metrics
    for metric, value in run.metrics.items():
        assert math.isfinite(value), metric
