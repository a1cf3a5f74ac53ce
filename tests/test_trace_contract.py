"""The benchmark's tracer finds every binding it wraps.

`bench/tracing.py` wraps functions of `hrg` by module path and name, and a
name that no longer resolves only turns its metrics into nulls.  This test
loads the tracer from its file, runs one call of each traced kind of
command under it, and requires every target to be present and every metric
to be a finite number.
"""

import importlib.util
import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import hrg.cli  # noqa: F401  (imports every traced module)
from hrg.cli import run_command
from hrg.covariance import covariance_table
from hrg.geometry import make_params
from hrg.rg import flow_coefficients

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _gbar(p, l, eps):
    params = make_params(p, l, eps)
    return flow_coefficients(covariance_table(params), params).gbar


COMMANDS = (
    ["observables", "--p", "2", "--l", "1", "--eps", "0.1", "--g-rel", "1.05"],
    ["koenigs", "--p", "2", "--l", "1", "--eps", "0.1"],
    ["critical-mass", "--p", "3", "--l", "1", "--eps", "0.1", "--g-rel", "0.95"],
    # seeds off the fixed point at small eps: the sweeps and the Koenigs tail
    ["critical-mass", "--p", "3", "--l", "1", "--eps", "0.01", "--g-rel", "1.05"],
    ["flow", "--p", "2", "--l", "1", "--eps", "0.1", "--g", repr(0.95 * _gbar(2, 1, 0.1)), "--steps", "5"],
    ["mc", "--p", "2", "--l", "1", "--eps", "0.1", "--r", "-1", "--samples", "2000"],
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_binding_resolves():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, argv in enumerate(COMMANDS):
            tracer.begin_op(op)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                rc = run_command(argv)
            assert rc == 0, (argv, err.getvalue())
    finally:
        tracer.remove()
    assert tracer.absent == set()
    metrics = tracing.layer_metrics(tracer, 1)
    assert {name for name, _, _ in tracing.LAYER_METRICS} == set(metrics)
    assert [name for name, m in metrics.items() if not isinstance(m["value"], (int, float))] == []
    assert [name for name, m in metrics.items() if not math.isfinite(m["value"])] == []
    assert metrics["dynamics.stable_orbit.settle_steps"]["value"] > 0
    assert metrics["observables.phi2_ir_reduced.terms"]["value"] > 0
    assert metrics["dynamics.psi_fixed_seed.stages"]["value"] > 0
