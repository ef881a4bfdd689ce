"""Shared fixtures."""

import pytest

from coulombstar import asympt, rayleigh


@pytest.fixture
def cold_memos():
    """Empty the process-global zeta and eps memos for one test and put
    their previous contents back afterwards."""
    zeta = dict(rayleigh._ZETA)
    eps = list(asympt._CACHE)
    rayleigh._ZETA.clear()
    asympt._CACHE.clear()
    yield
    rayleigh._ZETA.clear()
    rayleigh._ZETA.update(zeta)
    asympt._CACHE[:] = eps
