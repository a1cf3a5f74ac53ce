"""Command-line front end: parameter sweeps, CSV/JSON emission, regression support.

Exit codes: 0 success, 2 domain errors and bad arguments or config values
(machine-readable JSON on stderr), 1 internal faults.  Outputs are
byte-deterministic for identical configs; floats are serialized in their
shortest round-trip form (Python's repr) in both JSON and CSV.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import dynamics, mc, observables
from .covariance import covariance_table
from .errors import HRGError, IoError
from .geometry import DEFAULT_BOX_BUDGET, make_params
from .rg import BulkVector, bulk_step, flow_coefficients, iterate_bulk

SCHEMA_VERSION = "2"


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def dump_report(payload: dict) -> str:
    """Serialize a report with a schema tag; numpy scalars and arrays become
    Python values, so json writes each float as its shortest round-trip repr."""
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)

    def walk(obj):
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(v) for v in obj]
        if isinstance(obj, (float, np.floating)):
            return float(obj)
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, np.ndarray):
            return walk(obj.tolist())
        return obj

    return json.dumps(walk(body), indent=2, sort_keys=True) + "\n"


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


def _fill(args, cfg: dict, command: str, name: str, cast, default):
    """Flag value, else the config value (a dotted key beats the flat one)
    cast and checked, else the default."""
    val = getattr(args, name, None)
    if val is None:
        raw = cfg.get(f"{command}.{name}", cfg.get(name))
        try:
            val = cast(raw) if raw is not None else default
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise IoError(f"config value {name}: {exc}") from None
        setattr(args, name, val)
    return val


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _float_list(text: str) -> list:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as IoError, so they exit 2 with JSON on stderr."""

    def error(self, message):
        raise IoError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parsing leaves it unchanged."""
    parser = _Parser(prog="hrg", description="hierarchical RG engine")
    parser.add_argument("--config", default=None, help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--l", type=int, default=None)
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--format", choices=["csv", "json"], default=None)
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("coeffs", help="covariance and flow coefficient table")
    common(sp)

    sp = sub.add_parser("flow", help="bulk orbit as CSV")
    common(sp)
    sp.add_argument("--g", type=float, default=None)
    sp.add_argument("--mu", type=float, default=None)
    sp.add_argument("--steps", type=_nonnegative_int, default=None)

    sp = sub.add_parser("fixed-point", help="closed-form fixed point")
    common(sp)

    sp = sub.add_parser("linearize", help="eigenvalue and eigenvector at the fixed point")
    common(sp)

    sp = sub.add_parser("critical-mass", help="stable-manifold mass above g")
    common(sp)
    sp.add_argument("--g", type=float, default=None)
    sp.add_argument("--g-rel", dest="g_rel", type=float, default=None)

    sp = sub.add_parser("koenigs", help="conjugating-map diagnostics")
    common(sp)
    sp.add_argument("--z", type=float, default=None)

    sp = sub.add_parser("observables", help="full observable report")
    common(sp)
    sp.add_argument("--g", type=float, default=None)
    sp.add_argument("--g-rel", dest="g_rel", type=float, default=None)

    sp = sub.add_parser("sweep", help="observable sweep over eps values")
    common(sp)
    sp.add_argument("--eps-list", dest="eps_list", type=_float_list, default=None)
    sp.add_argument("--threads", default=None, help="accepted for compatibility; rows run serially")

    sp = sub.add_parser("mc", help="Monte Carlo covariance validation")
    common(sp)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=_nonnegative_int, default=None)
    sp.add_argument("--method", choices=["hierarchical", "cholesky"], default=None)
    return parser


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _params_from(args, cfg, box_budget=DEFAULT_BOX_BUDGET):
    cmd = args.command
    p = _fill(args, cfg, cmd, "p", int, 2)
    l = _fill(args, cfg, cmd, "l", int, 1)
    eps = _fill(args, cfg, cmd, "eps", float, 0.1)
    return make_params(p, l, eps, box_budget)


def _bulk_from(args, cfg):
    """Parameters, scalar covariance table and flow coefficients.  No
    command reads the block matrix, so it is not built, and nothing here
    allocates per box, so the box count is not capped."""
    params = _params_from(args, cfg, None)
    table = covariance_table(params)
    return params, table, flow_coefficients(table, params)


def _cmd_coeffs(args, cfg) -> str:
    params, table, fc = _bulk_from(args, cfg)
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
    if args.format == "json":
        return dump_report({"command": "coeffs", "values": {k: v for k, v in rows}})
    return "quantity,value\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in rows)


def _cmd_flow(args, cfg) -> str:
    params, _, fc = _bulk_from(args, cfg)
    g = _fill(args, cfg, "flow", "g", float, fc.gbar)
    steps = _fill(args, cfg, "flow", "steps", _nonnegative_int, 20)
    mu = _fill(args, cfg, "flow", "mu", float, None)
    if mu is None:
        mu = args.mu = dynamics.critical_mass(g, fc, params, method="sequence")
    orbit, dbs = iterate_bulk(BulkVector(g - fc.gbar, mu), fc, params, steps)
    lines = ["step,delta_g,mu,delta_b"]
    for i in range(steps):
        lines.append(f"{i},{_fmt(orbit[i].delta_g)},{_fmt(orbit[i].mu)},{_fmt(dbs[i])}")
    return "\n".join(lines) + "\n"


def _cmd_fixed_point(args, cfg) -> str:
    params, _, fc = _bulk_from(args, cfg)
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


def _cmd_linearize(args, cfg) -> str:
    params, _, fc = _bulk_from(args, cfg)
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


def _cmd_critical_mass(args, cfg) -> str:
    params, _, fc = _bulk_from(args, cfg)
    g_rel = _fill(args, cfg, "critical-mass", "g_rel", float, None)
    g = _fill(args, cfg, "critical-mass", "g", float, fc.gbar * g_rel if g_rel else fc.gbar)
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


def _cmd_koenigs(args, cfg) -> str:
    params, _, fc = _bulk_from(args, cfg)
    z = _fill(args, cfg, "koenigs", "z", float, 1e-4)
    v = dynamics.find_fixed_point(fc, params)
    eig = dynamics.unstable_eigenpair(dynamics.jacobian_at(v, fc))
    w = BulkVector(z * eig.e_u.delta_g, z * eig.e_u.mu)
    res = dynamics.koenigs_psi(v, w, fc, params)
    semis = dynamics.semigroup_residuals(v, w, fc, params)
    return dump_report(
        {
            "command": "koenigs",
            "z": z,
            "n_used": res.n_used,
            "value": [res.value.delta_g, res.value.mu],
            "intertwine_residual": res.intertwine_residual,
            "quadratic_coeff_estimate": res.quadratic_coeff_estimate,
            "semigroup_residuals": semis,
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


def _cmd_observables(args, cfg) -> str:
    params, table, fc = _bulk_from(args, cfg)
    g_rel = _fill(args, cfg, "observables", "g_rel", float, None)
    g = _fill(args, cfg, "observables", "g", float, None)
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


def _cmd_sweep(args, cfg) -> tuple:
    cmd = "sweep"
    p = _fill(args, cfg, cmd, "p", int, 2)
    l = _fill(args, cfg, cmd, "l", int, 1)
    eps_values = _fill(args, cfg, cmd, "eps_list", _float_list, None)
    if eps_values is None:
        raise IoError("sweep needs a nonempty --eps-list")
    rows = [_sweep_row(p, l, eps) for eps in eps_values]
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(x) if not isinstance(x, str) else x for x in row))
    failed = any(row[-1] for row in rows)
    return "\n".join(lines) + "\n", failed


def _cmd_mc(args, cfg) -> str:
    params = _params_from(args, cfg)
    r = _fill(args, cfg, "mc", "r", int, -1)
    s = _fill(args, cfg, "mc", "s", int, 1)
    n = _fill(args, cfg, "mc", "samples", int, 20000)
    seed = _fill(args, cfg, "mc", "seed", _nonnegative_int, 0)
    method = _fill(args, cfg, "mc", "method", str, "hierarchical")
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


def run_command(argv) -> int:
    """Execute one CLI invocation; never raises for domain errors."""
    try:
        args = _build_parser().parse_args(argv)
        cfg = read_config(args.config) if args.config else {}
        failed = False
        if args.command == "coeffs":
            text = _cmd_coeffs(args, cfg)
        elif args.command == "flow":
            text = _cmd_flow(args, cfg)
        elif args.command == "fixed-point":
            text = _cmd_fixed_point(args, cfg)
        elif args.command == "linearize":
            text = _cmd_linearize(args, cfg)
        elif args.command == "critical-mass":
            text = _cmd_critical_mass(args, cfg)
        elif args.command == "koenigs":
            text = _cmd_koenigs(args, cfg)
        elif args.command == "observables":
            text = _cmd_observables(args, cfg)
        elif args.command == "sweep":
            text, failed = _cmd_sweep(args, cfg)
        elif args.command == "mc":
            text = _cmd_mc(args, cfg)
        else:  # pragma: no cover - argparse enforces the choice
            raise IoError(f"unknown command {args.command!r}")
        _emit(args, text)
        return 2 if failed else 0
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
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
