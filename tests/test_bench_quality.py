"""The benchmark's quality values, computed as `perfbench/one_pass.py` computes them.

A speed change must leave every workload's result cost, guarantee width and
step count exactly as they are, and the bytes of its outputs: each loop
step's control, bound and model endpoints, and each tube's boxes.  A change
that means to move them updates these values and says why.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (result_cost, guarantee_width, steps) per workload
QUALITY = {
    "loop-ideal": (1858.6831325973938, 0.5868268863248206, 355),
    "loop-optim": (736.322867932643, 0.6988285940278075, 100),
    "tube-fig": (27.79339043311281, 5.1046139546182525, 600),
}

# SHA-256 of each workload's outputs, see `output_digest`
OUTPUTS = {
    "loop-ideal": "0ad6531bf6750fbc9546649d863dfe762f5b5d6349252f10809d08333c9f6009",
    "loop-optim": "4587711f2d35a809f34894c1fe7139677496912bb0fae40160f66d1d350445d1",
    "tube-fig": "3a30d34f9348040a57581dc21d85a4f22682a1d2e36b39a88ccc646e819723f5",
}


def output_digest(work):
    """SHA-256 over the float64 bytes of a run's outputs: per loop step its
    u, bound and the lo/hi of its model's B, A+ and A-, in step order; per
    tube its (T+1, n) lo and hi boxes."""
    digest = hashlib.sha256()
    for out in getattr(work, "reports", None) or work.tubes:
        if hasattr(out, "logs"):
            arrays = [a for log in out.logs for a in (
                log.u, log.bound, *(end for box in (log.aff.B, log.aff.Aplus, log.aff.Aminus)
                                    for end in (box.lo, box.hi)))]
        else:
            arrays = out.boxes()
        for a in arrays:
            digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


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
    assert output_digest(work) == OUTPUTS[workload]
