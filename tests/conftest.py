"""Shared fixtures."""

import pytest

from coulombstar import asympt, rayleigh


@pytest.fixture
def cold_memos():
    """Empty the process-global zeta memo and power table for one test and
    put their previous contents back afterwards."""
    zeta = dict(rayleigh._ZETA)
    powers = list(asympt._POWERS)
    rayleigh._ZETA.clear()
    asympt._POWERS.clear()
    yield
    rayleigh._ZETA.clear()
    rayleigh._ZETA.update(zeta)
    asympt._POWERS[:] = powers
