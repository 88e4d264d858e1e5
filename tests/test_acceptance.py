"""End-to-end acceptance gate.

One test per release criterion. Each test prints a single visible
`PASS <label>: <measured numbers>` line (bypassing capture) before asserting,
so a full run leaves an auditable scorecard even when everything is green.
Wall-clock budgets are part of the criteria and are asserted where stated.
"""

import time
from pathlib import Path

import numpy as np

from hygec.bench import Scenario, build_instance, final_rows, run_scenario, summarize
from hygec.cli import main
from hygec.denoisers import extrinsic
from hygec.em import em_hygec_run
from hygec.engine import HygecConfig, hygec_sweep, init_state
from hygec.oracle import denoiser_parity, enumeration_parity
from hygec.types import Moments

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {label}: {detail}")


def test_denoisers_match_independent_oracles(capsys):
    t0 = time.perf_counter()
    lin_mean, lin_var, q_mean, q_var, ss_worst = denoiser_parity(1000)
    elapsed = time.perf_counter() - t0
    ok = (
        lin_mean < 1e-7 and lin_var < 1e-6
        and q_mean < 1e-7 and q_var < 1e-6
        and ss_worst < 1e-10
        and elapsed < 10.0
    )
    detail = (
        f"linear mean {lin_mean:.2e} var {lin_var:.2e}; "
        f"quantized mean {q_mean:.2e} var {q_var:.2e}; "
        f"spike-slab {ss_worst:.2e}; {elapsed:.1f}s (budget 10s)"
    )
    _report(capsys, "denoiser-oracle-parity", ok, detail)
    assert ok, detail


def test_engine_tracks_exhaustive_posterior_on_small_instances(capsys):
    t0 = time.perf_counter()
    rms, worst, mae, nonconv = enumeration_parity(range(50))
    elapsed = time.perf_counter() - t0
    ok = nonconv == 0 and rms < 1e-2 and mae < 5e-2 and elapsed < 60.0
    detail = (
        f"pooled rms {rms:.2e} (worst seed {worst:.2e}), activity mae {mae:.2e}, "
        f"nonconverged {nonconv}/50; {elapsed:.1f}s (budget 60s)"
    )
    _report(capsys, "exact-enumeration-parity", ok, detail)
    assert ok, detail


def test_learned_rate_matches_known_rate_at_desk_scale(capsys):
    t0 = time.perf_counter()
    scenario = Scenario.from_json(str(SCENARIOS / "iteration_trace_desk.json"))
    finals = final_rows(run_scenario(scenario))
    known = [r for r in finals if r["algorithm"] == "hygec-known-rho"]
    learned = [r for r in finals if r["algorithm"] == "em-hygec"]
    med_known = float(np.median([r["nmse_db"] for r in known if r["nmse_db"] is not None]))
    med_learned = float(np.median([r["nmse_db"] for r in learned if r["nmse_db"] is not None]))
    gap = abs(med_learned - med_known)
    rho_med = float(np.median([r["rho_est"] for r in learned]))
    elapsed = time.perf_counter() - t0
    ok = gap < 1.0 and 0.07 <= rho_med <= 0.13 and med_known < -15.0 and elapsed < 300.0
    detail = (
        f"known-rate median {med_known:.2f} dB, learned-rate median {med_learned:.2f} dB, "
        f"gap {gap:.2f} dB, final rate median {rho_med:.3f}; {elapsed:.0f}s (budget 300s)"
    )
    _report(capsys, "rate-learning-parity", ok, detail)
    assert ok, detail


def test_recovery_degrades_gracefully_with_condition_number(capsys):
    t0 = time.perf_counter()
    scenario = Scenario.from_json(str(SCENARIOS / "condition_sweep_desk.json"))
    summary = summarize(run_scenario(scenario))
    medians = [s["median_nmse_db"] for s in summary]
    failures = sum(s["failures"] for s in summary)
    monotone = all(later >= earlier for earlier, later in zip(medians, medians[1:]))
    elapsed = time.perf_counter() - t0
    ok = monotone and failures == 0 and elapsed < 300.0
    curve = ", ".join(
        f"kappa {s['sweep_value']:g}: {s['median_nmse_db']:.1f} dB" for s in summary
    )
    detail = f"{curve}; failures {failures}; {elapsed:.0f}s (budget 300s)"
    _report(capsys, "condition-number-robustness", ok, detail)
    assert ok, detail


def test_quantized_recovery_tolerates_matrix_mean(capsys):
    t0 = time.perf_counter()
    degradations = {}
    failures = 0
    for name in ("mean_sweep_b2_desk.json", "mean_sweep_b3_desk.json"):
        scenario = Scenario.from_json(str(SCENARIOS / name))
        summary = summarize(run_scenario(scenario))
        failures += sum(s["failures"] for s in summary)
        by_mu = {s["sweep_value"]: s["median_nmse_db"] for s in summary}
        degradations[scenario.bits] = by_mu[0.2] - by_mu[0.0]
    elapsed = time.perf_counter() - t0
    ok = all(d < 6.0 for d in degradations.values()) and failures == 0 and elapsed < 300.0
    detail = (
        ", ".join(f"{b}-bit mean 0->0.2 costs {d:.1f} dB" for b, d in sorted(degradations.items()))
        + f"; failures {failures}; {elapsed:.0f}s (budget 300s)"
    )
    _report(capsys, "matrix-mean-robustness", ok, detail)
    assert ok, detail


def test_rate_update_is_stationary_at_the_true_rate(capsys):
    # self-consistency of the update is only defined when the planted
    # activity rate equals the model rate; binomial scatter in the group
    # indicators otherwise moves the very first update to the empirical
    # rate, so seeds are screened for an exact match (5 of 50 groups)
    t0 = time.perf_counter()
    scenario = Scenario(name="custom", m=200, n=400, k=50, rho=0.1, snr_db=20.0, seeds=(0,))
    accepted, seed = 0, 0
    worst = 0.0
    while accepted < 10 and seed < 200:
        inst = build_instance(scenario, seed, None)
        if int(inst.xi_true.sum()) != 5:
            seed += 1
            continue
        _, _, report = em_hygec_run(inst, 0.1)
        worst = max(worst, float(np.max(np.abs(np.diff(report.rho_trace)))))
        accepted += 1
        seed += 1
    elapsed = time.perf_counter() - t0
    ok = accepted == 10 and worst < 0.02
    detail = f"max |rho(t+1)-rho(t)| {worst:.5f} over {accepted} screened seeds; {elapsed:.0f}s"
    _report(capsys, "rate-update-fixed-point", ok, detail)
    assert ok, detail


def test_message_algebra_identities_hold(capsys, reproduction_residuals):
    t0 = time.perf_counter()
    # dividing a product of two Gaussians by one factor returns the other
    rng = np.random.default_rng(7)
    worst_rt = 0.0
    for _ in range(200):
        cav_v = 10.0 ** rng.uniform(-3, 3)
        fac_v = cav_v * 10.0 ** rng.uniform(-1.3, 1.3)
        cav_m = rng.uniform(-5, 5)
        fac_m = rng.uniform(-5, 5)
        pos_v = 1.0 / (1.0 / cav_v + 1.0 / fac_v)
        pos_m = pos_v * (cav_m / cav_v + fac_m / fac_v)
        ext = extrinsic(Moments(pos_m, pos_v), Moments(cav_m, cav_v), 1e-12, 1e12)
        worst_rt = max(
            worst_rt,
            abs(ext.var - fac_v) / fac_v,
            abs(ext.mean - fac_m) / max(1.0, abs(fac_m)),
        )

    # at a tight fixed point the prior- and likelihood-side messages
    # recombine into the spike-slab posterior on every unclamped element
    cfg = HygecConfig()
    desk = Scenario(name="custom", m=200, n=400, k=20, rho=0.1, snr_db=10.0, seeds=(0,))
    worst_dm = worst_dv = 0.0
    for seed in range(4):
        inst = build_instance(desk, seed, None)
        state = init_state(inst, 0.1, cfg)
        for _ in range(100):
            state = hygec_sweep(state, inst, 0.1, cfg)
        dm, dv, clamped = reproduction_residuals(state, cfg)
        free = ~clamped
        assert free.any()
        worst_dm = max(worst_dm, float(dm[free].max()))
        worst_dv = max(worst_dv, float(dv[free].max()))

    elapsed = time.perf_counter() - t0
    ok = worst_rt < 1e-10 and worst_dm < 1e-6 and worst_dv < 1e-6
    detail = (
        f"round-trip {worst_rt:.2e}; fixed-point residuals mean {worst_dm:.2e} "
        f"var {worst_dv:.2e} over 4 desk runs; {elapsed:.0f}s"
    )
    _report(capsys, "message-algebra-identities", ok, detail)
    assert ok, detail


def test_fixed_seed_csv_output_is_reproducible(tmp_path, capsys):
    t0 = time.perf_counter()
    args = ["run", str(SCENARIOS / "condition_sweep_desk.json"), "--seeds", "0-1"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0

    def strip_wall(text):
        return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())

    rows = len(first.read_text().splitlines()) - 1
    identical = strip_wall(first.read_text()) == strip_wall(second.read_text())
    elapsed = time.perf_counter() - t0
    ok = identical and rows > 0
    detail = f"two runs, {rows} rows, byte-identical after dropping wall_ms: {identical}; {elapsed:.0f}s"
    _report(capsys, "fixed-seed-determinism", ok, detail)
    assert ok, detail
