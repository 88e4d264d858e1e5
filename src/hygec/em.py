"""Outer loop learning the sparse rate: alternate full inner recovery runs with
a closed-form update that averages the posterior group activities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoisers import indicator_beliefs
from .engine import HygecConfig, hygec_run
from .types import (
    CONVERGED,
    NUMERICAL_FAILURE,
    GroupStructure,
    InvalidParameter,
    ProblemInstance,
    RecoveryReport,
    _check_numbers,
)

RHO_FLOOR = 1e-6
RATE_TOL = 1e-6  # the stop rule's bound on the rate's last move


@dataclass(frozen=True)
class EmConfig:
    max_outer: int = 20

    def __post_init__(self):
        _check_numbers(self)
        if self.max_outer < 1:
            raise InvalidParameter("max_outer must be positive")


def em_update_rho(
    m_x_lik, v_x_lik, rho: float, groups: GroupStructure, sigma_x_sq: float
) -> float:
    """One M-step: the mean posterior group activity, clipped away from the endpoints.

    The activities are the `indicator_beliefs` at the current rate `rho`, the
    beliefs that acceptance criterion 2 checks against exhaustive enumeration.
    """
    beliefs = indicator_beliefs(m_x_lik, v_x_lik, rho, sigma_x_sq, groups)
    return float(np.clip(np.mean(beliefs), RHO_FLOOR, 1.0 - RHO_FLOOR))


def em_hygec_run(
    inst: ProblemInstance,
    rho_init: float,
    cfg: HygecConfig = HygecConfig(),
    em_cfg: EmConfig = EmConfig(),
) -> tuple[np.ndarray, float, RecoveryReport]:
    """Alternate inner recovery at the current rate with the rate update.

    Each outer iteration runs the inner engine cold, to its own convergence,
    at the current rate, then re-estimates the rate. A cold inner run depends
    only on the rate, so once the M-step moves the rate by at most `RATE_TOL`
    the next inner run would repeat the last one, and the loop stops there; it
    also stops when the outer budget is exhausted. Returns (x_pos, rho_final,
    report): the last inner run's posterior mean and the last M-step's rate.
    """
    if not 0 < rho_init < 1:
        raise InvalidParameter("rho_init must lie in (0, 1)")

    rho = rho_init
    report = RecoveryReport(rho_trace=[rho])
    for _ in range(em_cfg.max_outer):
        m_x_lik, v_x_lik, _, x_pos, inner = hygec_run(inst, rho, cfg)
        report.inner_counts.extend(inner.inner_counts)
        report.nmse_trace.extend(inner.nmse_trace)
        if inner.termination == NUMERICAL_FAILURE:
            report.termination = NUMERICAL_FAILURE
            report.failure = inner.failure
            break
        rho = em_update_rho(m_x_lik, v_x_lik, rho, inst.groups, inst.sigma_x_sq)
        report.rho_trace.append(rho)
        if abs(rho - report.rho_trace[-2]) <= RATE_TOL:
            report.termination = CONVERGED
            break

    return x_pos, rho, report
