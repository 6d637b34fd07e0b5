"""The benchmark's quality values, computed as `perfbench/one_pass.py` computes them.

A speed change must leave every workload's result cost, guarantee width and
step count exactly as they are; a change that means to move them updates
these values and says why.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (result_cost, guarantee_width, steps) per workload
QUALITY = {
    "loop-ideal": (1858.6831325973938, 0.5868268863248206, 355),
    "loop-optim": (736.322867932643, 0.6988285940278075, 100),
    "tube-fig": (27.79339043311281, 5.1046139546182525, 600),
}


@pytest.fixture(scope="module")
def one_pass():
    sys.path.insert(0, str(BENCH))
    try:
        import one_pass
    finally:
        sys.path.remove(str(BENCH))
    return one_pass


@pytest.mark.parametrize("workload", sorted(QUALITY))
def test_quality_is_pinned(one_pass, workload):
    assert sorted(QUALITY) == sorted(one_pass.WORKLOADS)
    work = one_pass.WORKLOADS[workload](one_pass._Library())
    work.run()
    ops, quality = work.results(None)
    assert [op["why"] for op in ops if not op["ok"]] == []
    got = tuple(quality[key] for key in ("result_cost", "guarantee_width", "steps"))
    assert got == QUALITY[workload]
