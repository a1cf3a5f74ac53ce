"""Every function of the package is entered by some command line, or is
pinned by the benchmark's tracer.

A fresh interpreter sets `sys.settrace` and `threading.settrace` before
`import hrg.cli`, so code that runs at import (the graph tables, the
command table) counts, and so do the `hrg mc` worker threads.  It then runs
a fixed list of command lines through `hrg.cli.main`.  Each function
defined under the package that no command entered must appear in
UNREACHED, with the `bench/tracing.py` target that keeps it: the target
itself, or the wrapped function it serves.  Each function there must stay
unentered, so a new unreachable function fails the test, and so does an
entry that a command now reaches.  Each entry's target must still be one
the tracer wraps, so when the benchmark drops a target, its code has to
leave the package.  Reference code that only the tests call lives under
`tests/`.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import hrg

PACKAGE = Path(hrg.__file__).resolve().parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# function -> the tracer target that pins it
UNREACHED = {
    "mc.FieldEnsemble.batches": "mc.FieldEnsemble.batches",
    "rg.block_step": "rg.block_step",
    "rg.second_order_counterterms": "rg.second_order_counterterms",
    "rg.deviation_step": "rg.deviation_step",
    "rg.deviation_vacuum": "rg.deviation_vacuum",
    "rg._deviated_and_bulk": "rg.deviation_step",
    "rg._level_weights": "rg.second_order_counterterms",
    "rg._level_sums": "rg.second_order_counterterms",
    "rg._class_grams": "rg.second_order_counterterms",
    "rg._gamma_apply": "rg.second_order_counterterms",
    "rg._graph_weights": "rg.second_order_counterterms",
    "rg.BlockCouplings.homogeneous": "rg.deviation_step",
    "rg.BlockCouplings.with_deviation": "rg.deviation_step",
    "rg.BlockCouplings.beta": "rg.second_order_counterterms",
    "rg.BlockCouplings.w": "rg.second_order_counterterms",
    "rg.BlockOutput.as_array": "rg.deviation_step",
    "rg.DeviationVector.as_array": "rg.deviation_step",
}

# stdout and stderr are dropped; each command line's exit code is kept
TRACED_RUN = r"""
import io, json, sys, threading
from contextlib import redirect_stderr, redirect_stdout

entered = set()


def tracer(frame, event, arg):
    entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.settrace(tracer)
threading.settrace(tracer)
import hrg.cli

codes = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(hrg.cli.main(argv))
sys.settrace(None)
threading.settrace(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _command_lines(config: Path) -> list:
    """(argv, exit code): every command, with the branches each one takes."""
    return [
        (["coeffs"], 0),
        (["coeffs", "--format", "json"], 0),
        (["flow", "--steps", "3"], 0),
        (["fixed-point"], 0),
        (["linearize"], 0),
        (["critical-mass"], 0),
        (["critical-mass", "--g-rel", "1.05"], 0),
        (["koenigs"], 0),
        (["observables", "--p", "3", "--l", "2"], 0),
        (["observables", "--g-rel", "1.05"], 0),
        (["sweep", "--eps-list", "0.1,2"], 2),
        (["mc", "--samples", "2000", "--r", "-2"], 0),
        (["mc", "--samples", "2000", "--method", "cholesky"], 0),
        (["--config", str(config), "observables"], 0),
        (["--help"], 0),
        (["coeffs", "-h"], 0),
        (["flow", "--p", "4"], 2),
        (["flow", "--bogus", "1"], 2),
    ]


def _defined_functions() -> dict:
    """(file, first line) -> module.qualname of every def under the package;
    the first line is that of the first decorator, as in co_firstlineno."""
    defined = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defined[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return defined


def _tracer_targets() -> set:
    """Labels ("rg.block_step") of the functions `bench/tracing.py` wraps,
    loaded from its file the way tests/test_trace_contract.py loads it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {target.label for target in module.TARGETS}


def test_every_function_is_entered_or_allowlisted(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("eps = 0.05\nobservables.g_rel = 0.95\n")
    lines = _command_lines(config)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, json.dumps([argv for argv, _ in lines])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["codes"] == [code for _, code in lines]
    entered = {tuple(site) for site in result["entered"]}
    defined = _defined_functions()
    assert set(UNREACHED) <= set(defined.values()), "allowlisted names that no longer exist"
    unreached = {name for site, name in defined.items() if site not in entered}
    assert sorted(unreached - set(UNREACHED)) == [], "functions no command enters"
    assert sorted(set(UNREACHED) - unreached) == [], "allowlisted functions a command now enters"
    targets = _tracer_targets()
    assert sorted(set(UNREACHED.values()) - targets) == [], "pinned by names the tracer no longer wraps"
    pinned_targets = {name for name, target in UNREACHED.items() if name == target}
    assert sorted(unreached & targets) == sorted(pinned_targets), "tracer targets no command enters"
