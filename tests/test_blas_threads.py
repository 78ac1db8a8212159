import os

import conftest


def test_blas_threads_pinned_before_numpy_loads():
    assert not conftest.NUMPY_LOADED_BEFORE_PIN
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ.get(var)
