import numpy as np
import pytest

from corrfact.linalg import DEFAULT_TOL, eigenvalue_bounds, require_hermitian

S = 1.0 / np.sqrt(2.0)

# Rank-2 extreme point of the 3-dimensional elliptope: Gram(e1, e2, (e1+e2)/sqrt(2)).
E3 = np.array([[1.0, 0.0, S], [0.0, 1.0, S], [S, S, 1.0]])
E3_FACTORS = np.array([[1.0, 0.0], [0.0, 1.0], [S, S]])

CHSH = S * np.array([[1.0, 1.0], [1.0, -1.0]])
CHSH_ROWS = np.eye(2)
CHSH_COLS = np.array([[S, S], [S, -S]])


@pytest.fixture
def e3():
    return E3.copy()


@pytest.fixture
def e3_factors():
    return E3_FACTORS.copy()


@pytest.fixture
def chsh():
    return CHSH.copy()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def is_psd(m, tol=DEFAULT_TOL):
    """What the removed linalg.is_psd decided, through the helpers that replaced it."""
    return bool(eigenvalue_bounds(require_hermitian(m, tol)[None])[0][0] >= -tol.psd_tol)
