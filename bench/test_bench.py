"""Tests of the benchmark itself: every check passes real output and rejects
a perturbed copy, the workloads are reproducible, and the tracer restores
what it wraps.

    python -m pytest bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from tracing import COUNT, LAYER_METRICS, SPAN, Target, Tracer, layer_metrics
from workloads import WORKLOADS, Op

CLI = run.load_cli()

A = (2, 1, 0.1)
B = (3, 1, 0.01)


def output(argv) -> str:
    rc, text, err, _ = run.run_op(CLI, argv)
    assert rc == 0, err
    return text


def point_args(point):
    p, l, eps = point
    return ["--p", str(p), "--l", str(l), "--eps", repr(eps)]


def edited(text: str, **changes) -> str:
    report = json.loads(text)
    report.update(changes)
    return json.dumps(report)


# ---------------------------------------------------------------------------
# observables: synthetic reports that satisfy the closed forms


def good_report(point, **changes) -> dict:
    p, l, eps = point
    report = {
        "eta_phi2": checks.eta_closed(p**l, eps),
        "alpha_u": checks.alpha_closed(p**l, eps),
        "one_point_residual": 3e-12,
        "two_point_normalized": 1.0 + 1e-14,
        "u2": 1.3,
        "u4": -0.02,
        "uv_reduced": 0.5,
        "ir_reduced": 3.78,
    }
    report.update(changes)
    return report


def test_observables_check_passes_closed_forms():
    assert checks.check_observables(good_report(A), *A) == []


@pytest.mark.parametrize(
    "changes",
    [
        lambda r: {"eta_phi2": r["eta_phi2"] + 1e-9},
        lambda r: {"alpha_u": r["alpha_u"] * (1 + 1e-9)},
        lambda r: {"one_point_residual": 2e-8},
        lambda r: {"two_point_normalized": 1.0 + 1e-9},
        lambda r: {"u4": 0.02},
    ],
)
def test_observables_check_rejects_perturbed(changes):
    report = good_report(A)
    assert checks.check_observables(good_report(A, **changes(report)), *A)


@pytest.mark.parametrize("key", checks.G_SEED_KEYS)
def test_g_seed_check_rejects_disagreement(key):
    first = good_report(A)
    assert checks.check_g_seed_agreement(first, dict(first)) == []
    second = dict(first)
    second[key] = first[key] * (1 + 1e-7) + 1e-7
    assert checks.check_g_seed_agreement(first, second)


def test_observables_check_passes_real_output():
    text = output(["observables", *point_args(A), "--g-rel", "1.05"])
    assert checks.check_observables(json.loads(text), *A) == []


def test_eta_closed_form_matches_engine():
    report = json.loads(output(["linearize"] + point_args((3, 2, 0.5))))
    assert abs(report["eta_phi2"] - checks.eta_closed(9, 0.5)) < 1e-14


# ---------------------------------------------------------------------------
# dynamics: real output, then one perturbation per check


@pytest.fixture(scope="module")
def dynamics_outputs():
    ops = [op for op in WORKLOADS["dynamics"](7) if op.point in (A, B)]
    return [(op, output(op.argv)) for op in ops]


def replace_output(results, command, point, fn):
    out = []
    for op, text in results:
        if op.command == command and op.point == point:
            text = fn(text)
        out.append((op, text))
    return out


def test_dynamics_outputs_pass(dynamics_outputs):
    assert checks.check_cycle(dynamics_outputs) == []


def _edit_csv(text: str, key: str, fn) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        k, _, v = line.partition(",")
        if k == key:
            lines[i] = f"{k},{fn(float(v))!r}"
    return "\n".join(lines) + "\n"


def _edit_flow_mu(text: str) -> str:
    lines = text.splitlines()
    step, dg, mu, db = lines[5].split(",")
    lines[5] = ",".join([step, dg, repr(float(mu) * (1 + 1e-9)), db])
    return "\n".join(lines) + "\n"


DYNAMICS_PERTURBATIONS = {
    "gamma shell": ("coeffs", lambda t: _edit_csv(t, "gamma_shell_1", lambda v: v * (1 + 1e-10))),
    "S1": ("coeffs", lambda t: _edit_csv(t, "S1", lambda v: 1e-9)),
    "gbar*A1": ("coeffs", lambda t: _edit_csv(t, "gbar", lambda v: v * (1 + 1e-10))),
    "mu_star": ("fixed-point", lambda t: edited(t, mu_star=json.loads(t)["mu_star"] * (1 + 1e-8))),
    "alpha_u": ("linearize", lambda t: edited(t, alpha_u=json.loads(t)["alpha_u"] * (1 + 1e-10))),
    "eta": ("linearize", lambda t: edited(t, eta_phi2=json.loads(t)["eta_phi2"] + 1e-9)),
    "critical mass": ("critical-mass", lambda t: edited(t, mu_c_bisection=json.loads(t)["mu_c_bisection"] * (1 + 1e-6))),
    "intertwining": ("koenigs", lambda t: edited(t, intertwine_residual=1e-9)),
    "semigroup": ("koenigs", lambda t: edited(t, semigroup_residuals=[0.0, 1e-8, 0.0])),
    "flow recurrence": ("flow", _edit_flow_mu),
}


DYNAMICS_CASES = [
    (name, point)
    for name, (command, _) in sorted(DYNAMICS_PERTURBATIONS.items())
    for point in (A, B)
    if any(op.command == command and op.point == point for op in WORKLOADS["dynamics"](7))
]


@pytest.mark.parametrize("name,point", DYNAMICS_CASES)
def test_dynamics_checks_reject_perturbed(dynamics_outputs, name, point):
    command, fn = DYNAMICS_PERTURBATIONS[name]
    perturbed = replace_output(dynamics_outputs, command, point, fn)
    assert perturbed != dynamics_outputs
    assert checks.check_cycle(perturbed)


def test_dynamics_check_needs_coeffs(dynamics_outputs):
    without = [(op, t) for op, t in dynamics_outputs if op.command != "coeffs" or op.point != A]
    assert any("no coeffs output" in e for e in checks.check_cycle(without))


def test_malformed_output_is_a_problem_not_a_crash(dynamics_outputs):
    bad = replace_output(dynamics_outputs, "koenigs", A, lambda t: "{}")
    assert any("malformed output" in e for e in checks.check_cycle(bad))


# ---------------------------------------------------------------------------
# Monte Carlo


@pytest.fixture(scope="module")
def mc_pair():
    argv = ("mc", *point_args(A), "--r", "-1", "--s", "2", "--samples", "2000", "--seed", "11", "--method", "cholesky")
    op = Op(argv=argv, point=A, group="same-seed calls", r=-1)
    return [(op, output(argv)), (op, output(argv))]


def test_mc_outputs_pass(mc_pair):
    assert checks.check_cycle(mc_pair) == []


def test_pairing_shell_sum_matches_engine_at_deeper_cut_off():
    text = output(["mc", *point_args(A), "--r", "-2", "--s", "2", "--samples", "1000", "--seed", "1"])
    assert math.isclose(json.loads(text)["pairing_exact"], checks.pairing_shell_sum(2, 0.1, -2), rel_tol=1e-12)


@pytest.mark.parametrize(
    "fn",
    [
        lambda r: {"max_z_score": 6.0},
        lambda r: {"pairing_mean": r["pairing_exact"] + 6 * r["pairing_stderr"]},
        lambda r: {"pairing_exact": r["pairing_exact"] * (1 + 1e-9)},
    ],
)
def test_mc_checks_reject_perturbed(mc_pair, fn):
    (op, text), second = mc_pair
    assert checks.check_cycle([(op, edited(text, **fn(json.loads(text)))), second])


def test_same_seed_check_rejects_unequal_bytes(mc_pair):
    (op, text), _ = mc_pair
    assert checks.check_cycle([(op, text), (op, text.replace("\n}", " \n}"))])


# ---------------------------------------------------------------------------
# workloads


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_follow_the_seed(name):
    make = WORKLOADS[name]
    assert make(3) == make(3)
    shape = [(op.command, op.point) for op in make(3)]
    assert shape == [(op.command, op.point) for op in make(4)]


def test_workload_inputs_differ_between_seeds():
    for name, make in WORKLOADS.items():
        assert make(3) != make(4), name


# ---------------------------------------------------------------------------
# tracing


def test_tracer_wraps_every_binding_and_restores_it():
    import hrg.observables
    import hrg.rg

    original = hrg.rg.deviation_step
    tracer = Tracer()
    tracer.install()
    try:
        assert hrg.rg.deviation_step is not original
        assert hrg.observables.deviation_step is hrg.rg.deviation_step
        output(["critical-mass", *point_args(A), "--g-rel", "1.05"])
    finally:
        tracer.remove()
    assert hrg.rg.deviation_step is original
    assert hrg.observables.deviation_step is original
    metrics = layer_metrics(tracer, 1)
    assert metrics["dynamics.critical_mass.s"]["value"] > 0
    assert metrics["dynamics.stable_orbit.settle_steps"]["value"] > 0
    assert metrics["rg.bulk_step.calls"]["value"] > 0
    assert metrics["rg.block_step.calls"]["value"] == 0
    assert set(metrics) == {name for name, _, _ in LAYER_METRICS}


def test_tracer_counts_repeat_block_steps():
    from hrg.geometry import make_params
    from hrg.observables import covariance_table, flow_coefficients
    from hrg.rg import BulkVector, DeviationVector

    import hrg.rg

    params = make_params(2, 1, 0.1)
    table = covariance_table(params)
    fc = flow_coefficients(table, params)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        hrg.rg.deviation_step(BulkVector(0.0, 0.0), DeviationVector(beta4_dot=1e-3), fc, table, params)
        hrg.rg.deviation_vacuum(BulkVector(0.0, 0.0), DeviationVector(beta4_dot=1e-3), fc, table, params)
    finally:
        tracer.remove()
    metrics = layer_metrics(tracer, 1)
    assert metrics["rg.block_step.calls"]["value"] == 4
    assert metrics["rg.block_step.repeat_calls"]["value"] == 2


def test_missing_target_is_reported_absent():
    tracer = Tracer(targets=(Target("hrg.rg", "no_such_function", SPAN), Target("hrg.rg", "bulk_step", COUNT)))
    tracer.install()
    tracer.remove()
    assert "rg.no_such_function" in tracer.absent
    assert layer_metrics(tracer, 1)["rg.block_step.calls"]["value"] == 0


# ---------------------------------------------------------------------------
# the command


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(Path(run.BENCH), tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_set_up_probes_get_ready():
    assert 0.0 < run.measure_setup("mc", 1, 1.0) < 60.0
