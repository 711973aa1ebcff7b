"""Fixtures shared by the tests of the stages that fork."""

import multiprocessing

import pytest

from chainkd import procs


@pytest.fixture
def blas_restored():
    """Yield the OpenBLAS (get, set), or None, and check after the test that
    the count is what it was and no process is left running."""
    blas = procs._openblas_threads()
    before = blas[0]() if blas else None
    yield blas
    assert multiprocessing.active_children() == []
    if blas:
        assert blas[0]() == before
