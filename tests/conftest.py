"""Helpers shared by the test files."""

import numpy as np
import pytest

from hygec.engine import V_MIN, HygecConfig
from hygec.types import GecState


def gaussian_reproduction_residuals(
    state: GecState, cfg: HygecConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals of the product identity at the current state.

    Combining the prior-side and likelihood-side x messages should reproduce
    the stored posterior moments once the run has settled. Returns
    (mean_residual, var_residual, clamped) where `clamped` flags elements whose
    variances sit at the clamp bounds `V_MIN` and `cfg.v_max` (the identity is
    not expected there).
    """
    (m_pri, v_pri), (m_lik, v_lik), (m_post, v_post) = state.x_pri, state.x_lik, state.x_post
    prec = 1.0 / v_pri + 1.0 / v_lik
    v_comb = 1.0 / prec
    m_comb = v_comb * (m_pri / v_pri + m_lik / v_lik)
    slack = 1.0 + 1e-6
    clamped = (
        (v_pri <= V_MIN * slack)
        | (v_pri >= cfg.v_max / slack)
        | (v_lik <= V_MIN * slack)
        | (v_lik >= cfg.v_max / slack)
        | (v_post <= V_MIN * slack)
    )
    return np.abs(m_comb - m_post), np.abs(v_comb - v_post), clamped


@pytest.fixture
def reproduction_residuals():
    """`gaussian_reproduction_residuals`, for the tests of the product identity."""
    return gaussian_reproduction_residuals
