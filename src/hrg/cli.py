"""Command-line front end: parameter sweeps, CSV/JSON emission, regression support.

Grammar: ``hrg [--config FILE] COMMAND [--opt VALUE | --opt=VALUE ...]``.  An
option is named exactly or by a unique prefix (an exact ``--g`` beats the
prefix of ``--g-rel``, and another command's full option name is no prefix:
``sweep`` refuses ``--eps``); given twice, its last value wins; a value
starts with ``-`` only as a float (``--r -2``, ``--mu -inf``);
``-h``/``--help`` prints usage at either level.  Every option can also come
from the config file: it takes its flag, else the config value of
``COMMAND.key``, else that of ``key`` (the option name with ``_`` for
``-``), else its default, through one cast and choices check.  A
``COMMAND.key`` naming no option of COMMAND is refused like the flag; flat
keys and other commands' keys are shared.

Exit codes: 0 success, 2 domain errors and bad arguments or config values
(machine-readable JSON on stderr), 1 internal faults.  Outputs are
byte-deterministic for identical configs: JSON as json.dumps(indent=2, sort_keys=True)
writes it, by a small recursive writer, and floats as their repr in JSON and CSV.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, mc, observables
from .covariance import covariance_table
from .errors import HRGError, IoError
from .geometry import DEFAULT_BOX_BUDGET, make_params
from .rg import BulkVector, bulk_step, flow_coefficients, iterate_bulk

SCHEMA_VERSION = "2"
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null", "True": "true", "False": "false"}


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _json(obj, pad: str) -> str:
    """`obj` as json.dumps(obj, indent=2, sort_keys=True) writes it at the
    indent `pad`, with numpy scalars and arrays read as Python values."""
    if isinstance(obj, (float, np.floating)):
        text = repr(float(obj))  # the shortest round trip; repr(np.float64(x)) names its type
        return _JSON_WORDS.get(text, text)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return _JSON_WORDS[repr(obj)]
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist(), pad)
    inner = pad + "  "
    if isinstance(obj, dict):
        items, ends = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(obj.items())], "{}"
    elif isinstance(obj, (list, tuple)):
        items, ends = [_json(v, inner) for v in obj], "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}" if items else ends


def dump_report(payload: dict) -> str:
    """Serialize a report with a schema tag, byte for byte as json.dumps(indent=2,
    sort_keys=True) would once numpy values are Python ones: floats as their repr."""
    return _json({"schema_version": SCHEMA_VERSION, **payload}, "") + "\n"


def load_report(text: str) -> dict:
    """Parse a report, rejecting unknown schema versions."""
    data = json.loads(text)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise IoError(f"unknown schema version {data.get('schema_version')!r}")
    return data


def read_config(path: str) -> dict:
    """Flat key=value config; dotted keys scope to a subcommand."""
    out = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise IoError(f"bad config line: {line!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    return out


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdigit():
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _float_list(text: str) -> list:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")
    return values


def _emit(out, text: str):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _bulk_from(o):
    """Parameters, scalar covariance table and flow coefficients.  No
    command reads the block matrix, so it is not built, and nothing here
    allocates per box, so the box count is not capped."""
    params = make_params(o["p"], o["l"], o["eps"], None)
    table = covariance_table(params)
    return params, table, flow_coefficients(table, params)


def _cmd_coeffs(o) -> str:
    params, table, fc = _bulk_from(o)
    rows = [
        ("p", params.p),
        ("l", params.l),
        ("L", params.L),
        ("eps", params.eps),
        ("phi_dim", params.phi_dim),
        ("gamma_ball", table.gamma_ball),
    ]
    for i, v in enumerate(table.gamma_shell, start=1):
        rows.append((f"gamma_shell_{i}", v))
    rows += [
        ("C0_zero", table.c0_zero),
        ("S1", table.s_moments[1]),
        ("S2", table.s_moments[2]),
        ("S3", table.s_moments[3]),
        ("S4", table.s_moments[4]),
        ("A1", fc.a1),
        ("A2", fc.a2),
        ("A3", fc.a3),
        ("A4", fc.a4),
        ("A5", fc.a5),
        ("gbar", fc.gbar),
        ("lam_g", fc.lam_g),
        ("lam_mu_free", fc.lam_mu_free),
    ]
    if o["format"] == "json":
        return dump_report({"command": "coeffs", "values": {k: v for k, v in rows}})
    return "quantity,value\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in rows)


def _cmd_flow(o) -> str:
    params, _, fc = _bulk_from(o)
    g, mu, steps = fc.gbar if o["g"] is None else o["g"], o["mu"], o["steps"]
    if mu is None:
        mu = dynamics.critical_mass(g, fc, params, method="sequence")
    orbit, dbs = iterate_bulk(BulkVector(g - fc.gbar, mu), fc, params, steps)
    lines = ["step,delta_g,mu,delta_b"]
    for i in range(steps):
        lines.append(f"{i},{_fmt(orbit[i].delta_g)},{_fmt(orbit[i].mu)},{_fmt(dbs[i])}")
    return "\n".join(lines) + "\n"


def _cmd_fixed_point(o) -> str:
    params, _, fc = _bulk_from(o)
    v = dynamics.find_fixed_point(fc, params)
    image, _ = bulk_step(v, fc, params)
    residual = max(abs(image.delta_g - v.delta_g), abs(image.mu - v.mu))
    return dump_report(
        {
            "command": "fixed-point",
            "delta_g_star": v.delta_g,
            "mu_star": v.mu,
            "gbar": fc.gbar,
            "residual": residual,
        }
    )


def _cmd_linearize(o) -> str:
    params, _, fc = _bulk_from(o)
    v = dynamics.find_fixed_point(fc, params)
    eig = dynamics.unstable_eigenpair(dynamics.jacobian_at(v, fc))
    eta = observables.eta_phi2(eig, params)
    return dump_report(
        {
            "command": "linearize",
            "alpha_u": eig.alpha_u,
            "e_u": [eig.e_u.delta_g, eig.e_u.mu],
            "lam_g": fc.lam_g,
            "mu_star": v.mu,
            "eta_phi2": eta,
            "residuals": {
                "eigen": float(
                    np.linalg.norm(
                        eig.jacobian @ np.array([eig.e_u.delta_g, eig.e_u.mu])
                        - eig.alpha_u * np.array([eig.e_u.delta_g, eig.e_u.mu])
                    )
                )
            },
        }
    )


def _cmd_critical_mass(o) -> str:
    params, _, fc = _bulk_from(o)
    g_rel, g = o["g_rel"], o["g"]
    if g is None:
        g = fc.gbar if g_rel is None else g_rel * fc.gbar
    mu_seq = dynamics.critical_mass(g, fc, params, method="sequence")
    mu_bis = dynamics.critical_mass(g, fc, params, method="bisection")
    return dump_report(
        {
            "command": "critical-mass",
            "g": g,
            "mu_c_sequence": mu_seq,
            "mu_c_bisection": mu_bis,
            "difference": abs(mu_seq - mu_bis),
        }
    )


def _cmd_koenigs(o) -> str:
    params, _, fc = _bulk_from(o)
    z = o["z"]
    v = dynamics.find_fixed_point(fc, params)
    eig = dynamics.unstable_eigenpair(dynamics.jacobian_at(v, fc))
    w = BulkVector(z * eig.e_u.delta_g, z * eig.e_u.mu)
    res = dynamics.koenigs_psi(v, w, fc, params)
    return dump_report(
        {
            "command": "koenigs",
            "z": z,
            "n_used": res.n_used,
            "value": [res.value.delta_g, res.value.mu],
            "intertwine_residual": res.intertwine_residual,
            "quadratic_coeff_estimate": res.quadratic_coeff_estimate,
            "semigroup_residuals": res.semigroup_residuals,
            "double_iteration_residual": res.double_iteration_residual,
        }
    )


def _report_payload(report) -> dict:
    return {
        "eta_phi2": report.eta_phi2,
        "u2": report.u2,
        "u4": report.u4,
        "uv_reduced": report.uv_reduced,
        "ir_reduced": report.ir_reduced,
        "two_point_normalized": report.two_point_normalized,
        "one_point_residual": report.one_point_residual,
        "alpha_u": report.alpha_u,
        "mu_star": report.mu_star,
        "gbar": report.gbar,
        "norms": {
            "z2": report.norms.z2,
            "z0": report.norms.z0,
            "upsilon": report.norms.upsilon,
            "y0": report.norms.y0,
            "kappa": report.norms.kappa,
            "y2": report.norms.y2,
        },
        "error_bands": report.error_bands,
    }


def _cmd_observables(o) -> str:
    params, table, fc = _bulk_from(o)
    g_rel, g = o["g_rel"], o["g"]
    if g is None and g_rel is not None:
        g = g_rel * fc.gbar
    report = observables.full_report(params, g_seed=g, table=table, fc=fc)
    return dump_report({"command": "observables", **_report_payload(report)})


SWEEP_COLUMNS = [
    "eps",
    "alpha_u",
    "eta",
    "eta_over_eps",
    "u2",
    "u4",
    "uv_reduced",
    "ir_reduced",
    "one_point_residual",
    "error",
]


def _sweep_row(p: int, l: int, eps: float):
    """One sweep row; a domain error fills only eps and the error column."""
    try:
        report = observables.full_report(make_params(p, l, eps, box_budget=None))
    except HRGError as exc:
        msg = f"{type(exc).__name__}: {exc}".replace(",", ";")
        return [eps] + [""] * (len(SWEEP_COLUMNS) - 2) + [msg]
    return [
        eps,
        report.alpha_u,
        report.eta_phi2,
        report.eta_phi2 / eps,
        report.u2,
        report.u4,
        report.uv_reduced,
        report.ir_reduced,
        report.one_point_residual,
        "",
    ]


def _cmd_sweep(o) -> tuple:
    if o["eps_list"] is None:
        raise IoError("sweep needs a nonempty --eps-list")
    rows = [_sweep_row(o["p"], o["l"], eps) for eps in o["eps_list"]]
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(x) if not isinstance(x, str) else x for x in row))
    failed = any(row[-1] for row in rows)
    return "\n".join(lines) + "\n", failed


def _cmd_mc(o) -> str:
    params = make_params(o["p"], o["l"], o["eps"], DEFAULT_BOX_BUDGET)
    r, s, n, seed, method = o["r"], o["s"], o["samples"], o["seed"], o["method"]
    ens = mc.sample_hierarchical_field(params, r, s, n, seed, method=method)
    emp, pairing = mc.validate(ens)
    return dump_report(
        {
            "command": "mc",
            "r": r,
            "s": s,
            "samples": n,
            "seed": seed,
            "method": method,
            "max_z_score": emp.max_z_score,
            "pairing_mean": pairing.mean,
            "pairing_stderr": pairing.stderr,
            "pairing_exact": pairing.exact,
        }
    )


class Option(NamedTuple):
    """The cast of an option's text, the text of its default (None: the
    command works one out) and the values it may take (any, if empty)."""

    cast: Callable = str
    default: str | None = None
    choices: tuple = ()


class Command(NamedTuple):
    run: Callable  # option values -> report text, or (text, any row failed)
    summary: str
    options: dict  # config key -> Option
    flags: dict  # flag -> config key; -h and --help -> None


def _command(run, summary, **extra) -> Command:
    """A command with the shared options p, l, eps and out plus `extra`;
    an extra option set to None drops a shared one."""
    options = {"p": Option(int, "2"), "l": Option(int, "1"), "eps": Option(float, "0.1"), "out": Option(), **extra}
    options = {key: opt for key, opt in options.items() if opt is not None}
    flags = {"--" + key.replace("_", "-"): key for key in options}
    return Command(run, summary, options, {**flags, "-h": None, "--help": None})


COMMANDS = {
    "coeffs": _command(_cmd_coeffs, "covariance and flow coefficient table",
                       format=Option(str, "csv", ("csv", "json"))),
    "flow": _command(_cmd_flow, "bulk orbit as CSV", g=Option(float), mu=Option(float),
                     steps=Option(_nonnegative_int, "20")),
    "fixed-point": _command(_cmd_fixed_point, "closed-form fixed point"),
    "linearize": _command(_cmd_linearize, "eigenvalue and eigenvector at the fixed point"),
    "critical-mass": _command(_cmd_critical_mass, "stable-manifold mass above g",
                              g=Option(float), g_rel=Option(float)),
    "koenigs": _command(_cmd_koenigs, "conjugating-map diagnostics", z=Option(float, "1e-4")),
    "observables": _command(_cmd_observables, "full observable report",
                            g=Option(float), g_rel=Option(float)),
    "sweep": _command(_cmd_sweep, "observable sweep over eps values", eps=None, eps_list=Option(_float_list)),
    "mc": _command(_cmd_mc, "Monte Carlo covariance validation", r=Option(int, "-1"),
                   s=Option(int, "1"), samples=Option(int, "20000"), seed=Option(_nonnegative_int, "0"),
                   method=Option(str, "hierarchical", ("hierarchical", "cholesky"))),
}
_TOP_FLAGS = {"--config": "config", "-h": None, "--help": None}
_EVERY_FLAG = {flag for command in COMMANDS.values() for flag in command.flags}


def _usage(name=None) -> str:
    if name is None:
        rows = "".join(f"\n  {cmd:<15}{command.summary}" for cmd, command in COMMANDS.items())
        return f"usage: hrg [-h] [--config FILE] COMMAND [--opt VALUE ...]\n\nhierarchical RG engine\n{rows}\n"
    command = COMMANDS[name]
    shape = {key: "|".join(opt.choices) or key.upper() for key, opt in command.options.items()}
    flags = " ".join(f"[{flag} {shape[key]}]" for flag, key in command.flags.items() if key)
    return f"usage: hrg {name} [-h] {flags}\n\n{command.summary}; options may also come from the config file\n"


def _is_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def _scan(argv, i: int, flags: dict):
    """Read `--opt VALUE` and `--opt=VALUE` from argv[i:] up to the first
    word that is not an option; returns ({config key: text}, index of that
    word), or (None, i) on -h or --help."""
    given = {}
    while i < len(argv) and argv[i].startswith("-"):
        name, eq, text = argv[i].partition("=")
        if name in flags or name in _EVERY_FLAG:  # a full option name is no prefix: sweep refuses --eps
            hits = [name] if name in flags else []
        else:
            hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) != 1:
            raise IoError(f"{'ambiguous' if hits else 'unrecognized'} option {name}")
        key = flags[hits[0]]
        if key is None:
            if eq:
                raise IoError(f"{name} takes no value")
            return None, i
        if not eq:
            i += 1
            if i == len(argv) or argv[i].startswith("-") and not _is_number(argv[i]):
                raise IoError(f"{name} expects a value")
            text = argv[i]
        given[key] = text
        i += 1
    return given, i


def _resolve(name: str, command: Command, given: dict, cfg: dict) -> dict:
    """Each option's value: the flag, else the `name.key` config value, else
    the flat `key` one, else the default, all cast and checked alike."""
    for dotted in cfg:
        scope, _, key = dotted.partition(".")
        if scope == name and key not in command.options:
            raise IoError(f"config key {dotted} is not an option of {name}")
    values = {}
    for key, opt in command.options.items():
        text = given[key] if key in given else cfg.get(f"{name}.{key}", cfg.get(key, opt.default))
        try:
            values[key] = value = None if text is None else opt.cast(text)
            if opt.choices and value not in opt.choices:
                raise ValueError(f"{text!r} is not one of {', '.join(opt.choices)}")
        except ValueError as exc:
            raise IoError(f"bad value for {key}: {exc}") from None
    return values


def run_command(argv) -> int:
    """Execute one CLI invocation; never raises for domain errors."""
    try:
        top, i = _scan(argv, 0, _TOP_FLAGS)
        if top is None:
            sys.stdout.write(_usage())
            return 0
        name = argv[i] if i < len(argv) else ""
        command = COMMANDS.get(name)
        if command is None:
            raise IoError(f"expected a command ({', '.join(COMMANDS)}), got {name!r}")
        given, i = _scan(argv, i + 1, command.flags)
        if given is None:
            sys.stdout.write(_usage(name))
            return 0
        if i < len(argv):
            raise IoError(f"unexpected argument {argv[i]!r}")
        cfg = read_config(top["config"]) if top.get("config") else {}
        values = _resolve(name, command, given, cfg)
        text = command.run(values)
        text, failed = text if isinstance(text, tuple) else (text, False)
        _emit(values["out"], text)
        return 2 if failed else 0
    except HRGError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # internal fault
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
