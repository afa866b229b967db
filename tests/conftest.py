"""Fixtures shared by the test modules."""

import pytest

from dualmim import vit


class FakeBlas:
    """Stands in for numpy's OpenBLAS thread-count functions."""

    def __init__(self, threads):
        self.threads = threads
        self.sets = []   # every count the encoder set, in order

    def get(self):
        return self.threads

    def put(self, n):
        self.sets.append(n)
        self.threads = n


@pytest.fixture
def fake_blas(monkeypatch):
    """`fake_blas(n)` makes the encoder see an OpenBLAS on n threads
    (n=None: no OpenBLAS found) and returns the FakeBlas."""
    def make(threads):
        blas = FakeBlas(threads)
        monkeypatch.setattr(vit, "_openblas", lambda: (
            None if threads is None else (blas.get, blas.put)))
        return blas
    return make
