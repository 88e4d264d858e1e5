"""Helpers shared by the test files."""

import numpy as np
import pytest

from hygec.engine import HygecConfig
from hygec.types import GecState


def gaussian_reproduction_residuals(
    state: GecState, cfg: HygecConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the product identity at the current state.

    Combining the prior-side and likelihood-side x messages should reproduce
    the stored posterior moments once the run has settled. Returns
    (mean_residual, var_residual, clamped) where `clamped` flags elements whose
    variances sit at `cfg`'s clamp bounds (the identity is not expected there).
    """
    prec = 1.0 / state.v_x_pri + 1.0 / state.v_x_lik
    v_comb = 1.0 / prec
    m_comb = v_comb * (state.m_x_pri / state.v_x_pri + state.m_x_lik / state.v_x_lik)
    slack = 1.0 + 1e-6
    clamped = (
        (state.v_x_pri <= cfg.v_min * slack)
        | (state.v_x_pri >= cfg.v_max / slack)
        | (state.v_x_lik <= cfg.v_min * slack)
        | (state.v_x_lik >= cfg.v_max / slack)
        | (state.v_x_pos <= cfg.v_min * slack)
    )
    return np.abs(m_comb - state.x_pos), np.abs(v_comb - state.v_x_pos), clamped


@pytest.fixture
def reproduction_residuals():
    """`gaussian_reproduction_residuals`, for the tests of the product identity."""
    return gaussian_reproduction_residuals
