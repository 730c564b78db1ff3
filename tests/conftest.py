"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def simd_target():
    """The SIMD target numpy dispatches to here, "AVX512_SKX" or "AVX2".

    numpy's AVX2 and baseline logs are libm's bit for bit, its AVX-512 logs
    are not; recorded bits exist for these two targets and no other."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    for target in ("AVX512_SKX", "AVX2"):
        if __cpu_features__.get(target):
            return target
    on = sorted(k for k, v in __cpu_features__.items() if v)
    pytest.fail("no recorded bits for numpy's SIMD target on this CPU: "
                "it has neither AVX512_SKX nor AVX2 (enabled: "
                + (", ".join(on) or "none") + ")")
