"""Inner recovery engine: damped vector-EP sweeps over the linear-mixing part
coupled to scalar activity messages, plus the driver loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .denoisers import (
    Moments,
    channel_posterior,
    extrinsic,
    llr_messages,
    x_posterior_spike_slab,
)
from .ensembles import signal_power
from .oracle import nmse
from .types import (
    CONVERGED,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    GecState,
    HygecError,
    InvalidParameter,
    ProblemInstance,
    RecoveryReport,
)


class FactorizationFailure(HygecError):
    pass


class NonFinite(HygecError):
    pass


@dataclass(frozen=True)
class HygecConfig:
    max_iter: int = 200
    tol: float = 1e-8
    damping: float = 0.7
    v_min: float = 1e-11
    v_max: float = 1e11

    def __post_init__(self):
        if self.max_iter < 1:
            raise InvalidParameter("max_iter must be positive")
        if not self.tol > 0:
            raise InvalidParameter("tol must be positive")
        if not 0 < self.damping <= 1:
            raise InvalidParameter("damping must lie in (0, 1]")
        if not 0 < self.v_min < self.v_max:
            raise InvalidParameter("need 0 < v_min < v_max")


def init_state(inst: ProblemInstance, rho: float, cfg: HygecConfig) -> GecState:
    """Fresh message state: zero means, prior-level variances, activity at rho.

    The z-prior variance is the signal power plus the noise variance, the
    x-side variances rho * sigma_x_sq.

    On the linear channel the z-likelihood message is N(y, noise_var), which
    z_posterior_awgn followed by extrinsic returns for every z-prior message.
    The other likelihood-side messages are placeholders (recomputed before
    first use inside a sweep); their variances start at v_max, uninformative.
    The linear channel's Gram, fixed with its z-likelihood message, is built
    here once; the quantized channel's, which changes every sweep, is not.
    """
    m, n = inst.m, inst.n
    p_z = signal_power(inst.H, rho, inst.sigma_x_sq) + inst.channel.noise_var
    v_x0 = rho * inst.sigma_x_sq
    linear = inst.channel.kind == "linear"
    v_z_lik = np.clip(inst.channel.noise_var, cfg.v_min, cfg.v_max) if linear else cfg.v_max
    return GecState(
        m_z_pri=np.zeros(m),
        v_z_pri=np.full(m, np.clip(p_z, cfg.v_min, cfg.v_max)),
        m_z_lik=np.array(inst.y, dtype=float) if linear else np.zeros(m),
        v_z_lik=np.full(m, v_z_lik),
        m_x_pri=np.zeros(n),
        v_x_pri=np.full(n, np.clip(v_x0, cfg.v_min, cfg.v_max)),
        m_x_lik=np.zeros(n),
        v_x_lik=np.full(n, cfg.v_max),
        rho_hat=np.full(n, rho),
        x_pos=np.zeros(n),
        v_x_pos=np.full(n, np.clip(v_x0, cfg.v_min, cfg.v_max)),
        gram=lmmse_gram(inst.H, np.full(m, v_z_lik)) if linear else None,
    )


def lmmse_gram(H, v_z_lik) -> np.ndarray:
    """H^T diag(1/v_z_lik) H by one BLAS syrk, in LAPACK packed lower storage."""
    scaled = np.asarray(H, dtype=float) / np.sqrt(np.asarray(v_z_lik, dtype=float))[:, None]
    # scaled.T is Fortran-contiguous, so syrk reads it in place: A A^T = scaled^T scaled
    full = blas.dsyrk(1.0, scaled.T, lower=1)
    del scaled  # before packing: the scaled H, square and packed Gram never coexist
    return lapack.dtrttp(full, uplo="L")[0]


def lmmse_block(H, gram, m_z_lik, v_z_lik, m_x_pri, v_x_pri, side):
    """Joint Gaussian combine of the z-side and x-side messages through H.

    With `gram` = `lmmse_gram(H, v_z_lik)`, factors P = H^T D H + diag(1/v_x_pri),
    D = diag(1/v_z_lik), as L L^T and returns the posterior mean and marginal
    variances of one side: side "x" gives (P^-1 r, diag P^-1) with
    r = H^T D m_z_lik + m_x_pri / v_x_pri; side "z" gives (H P^-1 r,
    diag H P^-1 H^T). No inverse of P is formed: diag P^-1 is the column sums
    of squares of L^-1, and diag H P^-1 H^T those of L^-1 H^T.

    The Gram is unpacked into the n x n buffer that is factored in place; f2py
    zero-fills it, so its upper triangle needs no clean. Every call is a direct
    scipy BLAS or LAPACK routine: a numpy matvec would wake numpy's own OpenBLAS
    thread pool, which then spins through scipy's factorizations on the same
    cores. dgemv reads H.T in place, as it is Fortran-ordered for a C-ordered H.
    """
    if side not in ("x", "z"):
        raise InvalidParameter(f"side must be 'x' or 'z', not {side!r}")
    H = np.asarray(H, dtype=float)
    v_x_pri = np.asarray(v_x_pri, dtype=float)
    prec = lapack.dtpttr(H.shape[1], gram, uplo="L")[0]
    prec[np.diag_indices(H.shape[1])] += 1.0 / v_x_pri
    chol, info = lapack.dpotrf(prec, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise FactorizationFailure(f"Cholesky of the LMMSE precision failed (info {info})")
    rhs = blas.dgemv(1.0, H.T, np.asarray(m_z_lik, dtype=float) / v_z_lik)
    rhs += np.asarray(m_x_pri) / v_x_pri
    x_pos = lapack.dpotrs(chol, rhs, lower=1)[0]
    if side == "x":
        factor = lapack.dtrtri(chol, lower=1, overwrite_c=1)[0]  # L^-1; potrf left diag > 0
        return x_pos, np.einsum("ij,ij->j", factor, factor)
    factor, info = lapack.dtrtrs(chol, H.T, lower=1)
    if info != 0:
        raise FactorizationFailure(f"triangular solve with the LMMSE factor failed (info {info})")
    return blas.dgemv(1.0, H.T, x_pos, trans=1), np.einsum("ij,ij->j", factor, factor)


def _damp(new: Moments, old_mean, old_var, damp: float) -> tuple[np.ndarray, np.ndarray]:
    return (
        damp * np.asarray(new.mean) + (1.0 - damp) * old_mean,
        damp * np.asarray(new.var) + (1.0 - damp) * old_var,
    )


def hygec_sweep(state: GecState, inst: ProblemInstance, rho: float, cfg: HygecConfig) -> GecState:
    """One full message-passing sweep, mutating `state` in place.

    Order: z-channel denoise, joint solve to the x side, spike-slab denoise,
    joint solve back to the z side, activity-message refresh. The first sweep
    runs undamped because the stale sides of the state are placeholders.

    On the linear channel the z-likelihood message is the channel itself,
    N(y, noise_var), whatever the z-prior message is; `init_state` sets it and
    its Gram `state.gram`, and no sweep writes either. The sweep skips the
    z-channel denoise and the z-side solve, whose only output would feed that
    denoiser. The quantized channel builds its Gram every sweep from the new
    z-likelihood message. `state.t` counts the sweeps that completed with a
    finite state; a sweep that raises leaves it as it was.
    """
    damp = cfg.damping if state.t > 0 else 1.0
    linear = inst.channel.kind == "linear"

    if not linear:
        z_pos = channel_posterior(inst.channel, inst.y, state.m_z_pri, state.v_z_pri)
        ext = extrinsic(z_pos, Moments(state.m_z_pri, state.v_z_pri), cfg.v_min, cfg.v_max)
        state.m_z_lik, state.v_z_lik = _damp(ext, state.m_z_lik, state.v_z_lik, damp)
    # the z-side message is fixed for the rest of the sweep, so both solves share it
    gram = state.gram if linear else lmmse_gram(inst.H, state.v_z_lik)

    x_pos2, v_x_pos2 = lmmse_block(
        inst.H, gram, state.m_z_lik, state.v_z_lik, state.m_x_pri, state.v_x_pri, "x"
    )
    ext = extrinsic(
        Moments(x_pos2, v_x_pos2), Moments(state.m_x_pri, state.v_x_pri), cfg.v_min, cfg.v_max
    )
    state.m_x_lik, state.v_x_lik = _damp(ext, state.m_x_lik, state.v_x_lik, damp)

    (x_mean, x_var), _pi = x_posterior_spike_slab(
        state.m_x_lik, state.v_x_lik, state.rho_hat, inst.sigma_x_sq
    )
    state.x_pos = x_mean
    state.v_x_pos = np.maximum(x_var, cfg.v_min)  # spike-heavy elements hit zero variance
    ext = extrinsic(
        Moments(state.x_pos, state.v_x_pos),
        Moments(state.m_x_lik, state.v_x_lik),
        cfg.v_min,
        cfg.v_max,
    )
    state.m_x_pri, state.v_x_pri = _damp(ext, state.m_x_pri, state.v_x_pri, damp)

    if not linear:
        z_pos1, v_z_pos1 = lmmse_block(
            inst.H, gram, state.m_z_lik, state.v_z_lik, state.m_x_pri, state.v_x_pri, "z"
        )
        ext = extrinsic(
            Moments(z_pos1, v_z_pos1), Moments(state.m_z_lik, state.v_z_lik), cfg.v_min, cfg.v_max
        )
        state.m_z_pri, state.v_z_pri = _damp(ext, state.m_z_pri, state.v_z_pri, damp)

    state.rho_hat = llr_messages(
        state.m_x_lik, state.v_x_lik, rho, inst.sigma_x_sq, inst.groups
    )

    if not state.all_finite():
        raise NonFinite(f"non-finite message state after sweep {state.t + 1}")
    state.t += 1
    return state


def hygec_run(
    inst: ProblemInstance,
    rho: float,
    cfg: HygecConfig = HygecConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, RecoveryReport]:
    """Run sweeps from a fresh state until the posterior mean stops moving or
    the budget runs out.

    Returns (m_x_lik, v_x_lik, rho_hat, x_pos, report). The report's rate
    trace is [rho] and its one inner count is `state.t`, the completed sweeps.
    Numerical trouble is recorded in report.termination, with its cause and
    sweep in report.failure, rather than raised, so parameter sweeps can keep
    going past divergent configurations.
    """
    if not 0 < rho < 1:
        raise InvalidParameter("rho must lie in (0, 1)")
    state = init_state(inst, rho, cfg)
    report = RecoveryReport(rho_trace=[rho], termination=MAX_ITERATIONS)
    track_nmse = inst.x_true is not None and np.any(np.asarray(inst.x_true) != 0)
    for _ in range(cfg.max_iter):
        x_prev = state.x_pos
        try:
            hygec_sweep(state, inst, rho, cfg)
        except (FactorizationFailure, NonFinite) as exc:
            report.termination = NUMERICAL_FAILURE
            report.failure = f"{type(exc).__name__} in sweep {state.t + 1}: {exc}"
            break
        if track_nmse:
            report.nmse_trace.append(nmse(state.x_pos, inst.x_true))
        if float(np.sum((state.x_pos - x_prev) ** 2)) < cfg.tol * inst.n:
            report.termination = CONVERGED
            break

    report.inner_counts = [state.t]
    return state.m_x_lik, state.v_x_lik, state.rho_hat, state.x_pos, report


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
