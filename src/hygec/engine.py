"""Inner recovery engine: damped vector-EP sweeps over the linear-mixing part
coupled to scalar activity messages, plus the driver loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import lapack
from .denoisers import channel_posterior, extrinsic, llr_messages, x_posterior_spike_slab
from .ensembles import signal_power
from .types import (
    CONVERGED,
    NUMERICAL_FAILURE,
    GecState,
    HygecError,
    InvalidParameter,
    Moments,
    ProblemInstance,
    RecoveryReport,
    _check_numbers,
)

DAMPING = 0.7  # the weight of the new message in every damped refresh
V_MIN = 1e-11  # the floor of every message variance
MAX_ITER = 200  # the sweep budget of one run
TOL = 1e-8  # a run stops once sum((delta x_hat)^2) < TOL * n


class FactorizationFailure(HygecError):
    pass


class NonFinite(HygecError):
    pass


@dataclass(frozen=True)
class HygecConfig:
    v_max: float = 1e11

    def __post_init__(self):
        _check_numbers(self)
        if not self.v_max > V_MIN:
            raise InvalidParameter(f"v_max must exceed V_MIN = {V_MIN:g}")


def init_state(inst: ProblemInstance, rho: float, cfg: HygecConfig) -> GecState:
    """Fresh state of five `Moments` messages: zero means, prior-level variances,
    activity log-odds of rho.

    The z-prior variance is the signal power plus the noise variance, the
    variances of `x_pri` and `x_post` rho * sigma_x_sq, clipped once for both.

    On the linear channel `z_lik` is N(y, noise_var), which z_posterior_awgn
    followed by extrinsic returns for every z-prior message. The other
    likelihood-side messages are placeholders (recomputed before first use
    inside a sweep); their variances start at v_max, uninformative. `gram`, the
    Gram of `z_lik`, is built here on the linear channel, where no sweep writes
    either; on the quantized channel it is None until the first sweep.
    """
    m, n = inst.m, inst.n
    p_z = signal_power(inst.H, rho, inst.sigma_x_sq) + inst.channel.noise_var
    v_x0 = np.clip(rho * inst.sigma_x_sq, V_MIN, cfg.v_max)
    linear = inst.channel.kind == "linear"
    v_z_lik = np.clip(inst.channel.noise_var, V_MIN, cfg.v_max) if linear else cfg.v_max
    return GecState(
        z_pri=Moments(np.zeros(m), np.full(m, np.clip(p_z, V_MIN, cfg.v_max))),
        z_lik=Moments(inst.y if linear else np.zeros(m), np.full(m, v_z_lik)),
        x_pri=Moments(np.zeros(n), np.full(n, v_x0)),
        x_lik=Moments(np.zeros(n), np.full(n, cfg.v_max)),
        x_post=Moments(np.zeros(n), np.full(n, v_x0)),
        llr_hat=np.full(n, np.log(rho) - np.log1p(-rho)),
        gram=lmmse_gram(inst.H, np.full(m, v_z_lik)) if linear else None,
    )


def lmmse_gram(H, v_z_lik) -> np.ndarray:
    """H^T diag(1/v_z_lik) H by LAPACK's dsfrk, in rectangular full packed (RFP) lower
    storage (transr "N"): n(n+1)/2 doubles, with no n x n square on the way."""
    # C-ordered whatever H's layout, so dsfrk reads scaled.T in place: A A^T = scaled^T scaled;
    # beta 0 with overwrite_c writes the result into the zeroed buffer, no copy
    scaled = np.divide(H, np.sqrt(v_z_lik)[:, None], order="C")
    m, n = scaled.shape
    return lapack.dsfrk(n, m, 1.0, scaled.T, 0.0, np.zeros(n * (n + 1) // 2), uplo="L",
                        overwrite_c=1)


def lmmse_block(H, gram, z_lik: Moments, x_pri: Moments, side) -> Moments:
    """Joint Gaussian combine of the z-side and x-side messages through H.

    With `gram` = `lmmse_gram(H, z_lik.var)`, factors P = H^T D H + diag(1/x_pri.var),
    D = diag(1/z_lik.var), as L L^T and returns the posterior mean and marginal
    variances of one side as `Moments`: side "x" gives (P^-1 r, diag P^-1) with
    r = H^T D z_lik.mean + x_pri.mean / x_pri.var; side "z" gives (H P^-1 r,
    diag H P^-1 H^T). No inverse of P is formed: diag P^-1 is the column sums
    of squares of L^-1, and diag H P^-1 H^T those of L^-1 H^T.

    The RFP Gram is unpacked by dtfttr into the n x n buffer that is factored in
    place; f2py zero-fills it, so its upper triangle needs no clean. The
    factorizations are scipy's LAPACK routines, loaded by `_lapack` without the
    scipy.linalg package. The matvecs H^T u and H x are numpy einsums, whose own
    C loops call no BLAS routine: a numpy matmul would wake numpy's OpenBLAS
    thread pool, which then spins through scipy's factorizations on the same
    cores.
    """
    if side not in ("x", "z"):
        raise InvalidParameter(f"side must be 'x' or 'z', not {side!r}")
    prec = lapack.dtfttr(H.shape[1], gram, uplo="L")[0]
    prec[np.diag_indices(H.shape[1])] += 1.0 / x_pri.var
    chol, info = lapack.dpotrf(prec, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise FactorizationFailure(f"Cholesky of the LMMSE precision failed (info {info})")
    rhs = np.einsum("ij,i->j", H, z_lik.mean / z_lik.var) + x_pri.mean / x_pri.var
    x_pos = lapack.dpotrs(chol, rhs, lower=1)[0]
    if side == "x":
        factor = lapack.dtrtri(chol, lower=1, overwrite_c=1)[0]  # L^-1; potrf left diag > 0
        return Moments(x_pos, np.einsum("ij,ij->j", factor, factor))
    factor, info = lapack.dtrtrs(chol, H.T, lower=1)
    if info != 0:
        raise FactorizationFailure(f"triangular solve with the LMMSE factor failed (info {info})")
    return Moments(np.einsum("ij,j->i", H, x_pos), np.einsum("ij,ij->j", factor, factor))


def _refresh(post: Moments, cavity: Moments, old: Moments, damp: float,
             cfg: HygecConfig) -> Moments:
    """The one refresh rule of the sweep: the new outgoing message is `post`
    divided by `cavity` (`extrinsic`, variances clamped to [V_MIN, v_max]),
    blended linearly with the `old` one, weight `damp` on the new."""
    new = extrinsic(post, cavity, V_MIN, cfg.v_max)
    return Moments(damp * new.mean + (1.0 - damp) * old.mean,
                   damp * new.var + (1.0 - damp) * old.var)


def hygec_sweep(state: GecState, inst: ProblemInstance, rho: float, cfg: HygecConfig) -> GecState:
    """One full message-passing sweep, mutating `state` in place.

    Order: z-channel denoise, joint solve to the x side, spike-slab denoise,
    joint solve back to the z side, activity-message refresh. Each of the
    four Gaussian messages it updates is replaced by `_refresh`, weight `DAMPING`
    on the new; `x_post` is the spike-slab posterior floored at `V_MIN`. The first
    sweep runs undamped because the stale sides of the state are placeholders.

    On the linear channel the z-likelihood message is the channel itself,
    N(y, noise_var), whatever the z-prior message is; `init_state` sets it and
    its Gram `state.gram`, and no sweep writes either. The sweep skips the
    z-channel denoise and the z-side solve, whose only output would feed that
    denoiser. The quantized sweep stores each new z-likelihood's Gram there;
    both solves read it. `state.t` counts the sweeps that completed with a
    finite state; a sweep that raises leaves it as it was.
    """
    damp = DAMPING if state.t > 0 else 1.0
    linear = inst.channel.kind == "linear"

    if not linear:
        z_channel = channel_posterior(inst.channel, inst.y, *state.z_pri)
        state.z_lik = _refresh(z_channel, state.z_pri, state.z_lik, damp, cfg)
        state.gram = lmmse_gram(inst.H, state.z_lik.var)

    x_joint = lmmse_block(inst.H, state.gram, state.z_lik, state.x_pri, "x")
    state.x_lik = _refresh(x_joint, state.x_pri, state.x_lik, damp, cfg)

    (x_mean, x_var), _pi = x_posterior_spike_slab(*state.x_lik, state.llr_hat, inst.sigma_x_sq)
    # spike-heavy elements hit zero variance
    state.x_post = Moments(x_mean, np.maximum(x_var, V_MIN))
    state.x_pri = _refresh(state.x_post, state.x_lik, state.x_pri, damp, cfg)

    if not linear:
        z_joint = lmmse_block(inst.H, state.gram, state.z_lik, state.x_pri, "z")
        state.z_pri = _refresh(z_joint, state.z_lik, state.z_pri, damp, cfg)

    state.llr_hat = llr_messages(*state.x_lik, rho, inst.sigma_x_sq, inst.groups)

    if not state.all_finite():
        raise NonFinite(f"non-finite message state after sweep {state.t + 1}")
    state.t += 1
    return state


def nmse(x_hat: np.ndarray, x_true: np.ndarray) -> float | None:
    """Normalized squared error in dB, floored at -300, of two float64 arrays as given;
    None, undefined, for an all-zero truth."""
    denom = float(np.dot(x_true, x_true))
    if denom == 0.0:
        return None
    diff = x_hat - x_true
    ratio = float(np.dot(diff, diff)) / denom
    if ratio <= 1e-30:
        return -300.0
    return 10.0 * float(np.log10(ratio))


def hygec_run(
    inst: ProblemInstance,
    rho: float,
    cfg: HygecConfig = HygecConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, RecoveryReport]:
    """Run sweeps from a fresh state of five `Moments` messages, each updated by
    the one refresh rule `_refresh`, until a sweep's squared step of the posterior
    mean falls below `TOL` * n, or for `MAX_ITER` sweeps.

    Returns (m_x_lik, v_x_lik, llr_hat, x_hat, report): the halves of the
    x-likelihood message, the per-element prior activity log-odds of the last
    sweep, and the posterior mean of x. The report's rate
    trace is [rho] and its one inner count is `state.t`, the completed sweeps.
    Numerical trouble is recorded in report.termination, with its cause and
    sweep in report.failure, rather than raised, so parameter sweeps can keep
    going past divergent configurations.
    """
    if not 0 < rho < 1:
        raise InvalidParameter("rho must lie in (0, 1)")
    state = init_state(inst, rho, cfg)
    report = RecoveryReport(rho_trace=[rho])
    for _ in range(MAX_ITER):
        x_prev = state.x_post.mean
        try:
            hygec_sweep(state, inst, rho, cfg)
        except (FactorizationFailure, NonFinite) as exc:
            report.termination = NUMERICAL_FAILURE
            report.failure = f"{type(exc).__name__} in sweep {state.t + 1}: {exc}"
            break
        if inst.x_true is not None and (err := nmse(state.x_post.mean, inst.x_true)) is not None:
            report.nmse_trace.append(err)
        if float(np.sum((state.x_post.mean - x_prev) ** 2)) < TOL * inst.n:
            report.termination = CONVERGED
            break

    report.inner_counts = [state.t]
    return (*state.x_lik, state.llr_hat, state.x_post.mean, report)

