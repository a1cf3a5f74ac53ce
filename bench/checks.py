"""Output checks for the benchmark's operations.

Every expected value is recomputed here by a route that does not run the
code being timed: closed forms of the truncated flow, the defining shell
series of the covariances, the bulk recurrence applied to the printed
coefficients, and agreement between two commands or two calls.  Nothing is
compared with a stored copy of earlier output.

Each check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import json
import math

# tolerances, each with the margin it leaves over the engine today
ETA_ATOL = 1e-12  # the engine matches the closed form to about 6e-16
ALPHA_RTOL = 1e-12
RESIDUAL_ATOL = 1e-8  # one_point_residual
TWO_POINT_ATOL = 1e-10  # two_point_normalized - 1
G_SEED_TOL = 1e-8  # agreement of two g seeds, relative to max(1, |value|)
SHELL_RTOL = 1e-12
MU_STAR_RTOL = 1e-10
CRITICAL_MASS_RTOL = 1e-8
INTERTWINE_ATOL = 1e-10
SEMIGROUP_ATOL = 1e-9
RECURRENCE_RTOL = 1e-12
MAX_Z_SCORE = 5.0
PAIRING_STDERRS = 5.0
PAIRING_RTOL = 1e-12

G_SEED_KEYS = ("eta_phi2", "u2", "u4", "uv_reduced", "ir_reduced")


# ---------------------------------------------------------------------------
# closed forms written for the benchmark


def phi_dim(eps: float) -> float:
    return (3.0 - eps) / 4.0


def eta_closed(L: int, eps: float) -> float:
    """eta_phi2 = -2 log_L((2 + L^-eps)/3)."""
    return -2.0 * math.log((2.0 + L**-eps) / 3.0) / math.log(L)


def alpha_closed(L: int, eps: float) -> float:
    """Unstable eigenvalue L^((3+eps)/2) (2 + L^-eps)/3."""
    return L ** ((3.0 + eps) / 2.0) * (2.0 + L**-eps) / 3.0


def gamma_shell_series(p: int, l: int, eps: float, shell: int) -> float:
    """Fluctuation covariance on a shell from its defining series.

    Gamma = sum_{n<l} p^(-2 phi n) (1[|x| <= p^n] - p^-3 1[|x| <= p^(n+1)]),
    with shell 0 the unit ball and shell k >= 1 the sphere |x| = p^k.
    """
    x = float(p) ** (-2.0 * phi_dim(eps))
    total = 0.0
    for n in range(l):
        inner = 1.0 if shell <= n else 0.0
        outer = 1.0 if shell <= n + 1 else 0.0
        total += x**n * (inner - float(p) ** -3 * outer)
    return total


def c0_closed(p: int, eps: float, shell: int) -> float:
    """Unit-cut-off covariance on a shell: the defining series summed as
    geometric series, sum_{n>=k} x^n - p^-3 sum_{n>=max(k-1,0)} x^n."""
    x = float(p) ** (-2.0 * phi_dim(eps))
    if shell <= 0:
        return (1.0 - float(p) ** -3) / (1.0 - x)
    return (x**shell - float(p) ** -3 * x ** (shell - 1)) / (1.0 - x)


def pairing_shell_sum(p: int, eps: float, r: int) -> float:
    """Pairing of the unit-box indicator with itself at cut-off index r <= 0.

    In rescaled units the unit box holds n = p^(-3r) lattice boxes of weight
    p^((3 - phi) r) each; a box has p^(3k) - p^(3(k-1)) partners at distance
    p^k for k = 1..-r.
    """
    n_sub = p ** (-3 * r)
    row = c0_closed(p, eps, 0)
    for k in range(1, -r + 1):
        row += (p ** (3 * k) - p ** (3 * (k - 1))) * c0_closed(p, eps, k)
    weight = float(p) ** ((3.0 - phi_dim(eps)) * r)
    return weight**2 * n_sub * row


def gbar_closed(p: int, l: int, eps: float) -> float:
    """Calibrated coupling (L^eps - 1)/A1 with A1 = 36 L^(3 - 4 phi) S2."""
    L = p**l
    s2 = gamma_shell_series(p, l, eps, 0) ** 2
    for k in range(1, l + 1):
        s2 += gamma_shell_series(p, l, eps, k) ** 2 * (p ** (3 * k) - p ** (3 * (k - 1)))
    a1 = 36.0 * L ** (3.0 - 4.0 * phi_dim(eps)) * s2
    return (L**eps - 1.0) / a1


# ---------------------------------------------------------------------------
# parsing


def parse_table(text: str) -> dict:
    """`quantity,value` CSV of `hrg coeffs` as a dict of floats."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "quantity,value":
        raise ValueError("not a coeffs table")
    out = {}
    for line in lines[1:]:
        key, value = line.split(",")
        out[key] = float(value)
    return out


def parse_flow(text: str) -> list:
    """`step,delta_g,mu,delta_b` CSV of `hrg flow` as float rows."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "step,delta_g,mu,delta_b":
        raise ValueError("not a flow table")
    return [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# observables


def check_observables(report: dict, p: int, l: int, eps: float) -> list:
    L = p**l
    bad = []
    eta = eta_closed(L, eps)
    if not abs(report["eta_phi2"] - eta) <= ETA_ATOL:
        bad.append(f"eta_phi2 {report['eta_phi2']!r} != closed form {eta!r}")
    alpha = alpha_closed(L, eps)
    if not _close(report["alpha_u"], alpha, ALPHA_RTOL):
        bad.append(f"alpha_u {report['alpha_u']!r} != closed form {alpha!r}")
    if not abs(report["one_point_residual"]) <= RESIDUAL_ATOL:
        bad.append(f"one_point_residual {report['one_point_residual']!r} exceeds {RESIDUAL_ATOL}")
    if not abs(report["two_point_normalized"] - 1.0) <= TWO_POINT_ATOL:
        bad.append(f"two_point_normalized {report['two_point_normalized']!r} is not 1")
    if not report["u4"] < 0.0:
        bad.append(f"u4 {report['u4']!r} is not negative")
    return bad


def check_g_seed_agreement(first: dict, second: dict) -> list:
    """Physical outputs must not depend on the g seed."""
    bad = []
    for key in G_SEED_KEYS:
        a, b = first[key], second[key]
        if not abs(a - b) <= G_SEED_TOL * max(1.0, abs(a)):
            bad.append(f"{key} differs between g seeds: {a!r} vs {b!r}")
    return bad


# ---------------------------------------------------------------------------
# dynamics


def check_coeffs(table: dict, p: int, l: int, eps: float) -> list:
    L = p**l
    bad = []
    shells = [table["gamma_ball"]] + [table[f"gamma_shell_{k}"] for k in range(1, l + 1)]
    scale = max(abs(v) for v in shells)
    for k, value in enumerate(shells):
        want = gamma_shell_series(p, l, eps, k)
        if not abs(value - want) <= SHELL_RTOL * scale:
            bad.append(f"gamma shell {k} {value!r} != defining series {want!r}")
    mass = abs(shells[0]) + sum(
        abs(shells[k]) * (p ** (3 * k) - p ** (3 * (k - 1))) for k in range(1, l + 1)
    )
    if not abs(table["S1"]) <= SHELL_RTOL * mass:
        bad.append(f"S1 {table['S1']!r} is not 0")
    want = L**eps - 1.0
    if not _close(table["gbar"] * table["A1"], want, ALPHA_RTOL):
        bad.append(f"gbar*A1 {table['gbar'] * table['A1']!r} != L^eps - 1 = {want!r}")
    return bad


def mu_star_closed(table: dict, L: int, eps: float) -> float:
    """Fixed-point mass A2 gbar^2 / (L^((3+eps)/2) - 1 - A3 gbar)."""
    g = table["gbar"]
    return table["A2"] * g * g / (L ** ((3.0 + eps) / 2.0) - 1.0 - table["A3"] * g)


def check_fixed_point(report: dict, table: dict, p: int, l: int, eps: float) -> list:
    want = mu_star_closed(table, p**l, eps)
    if not _close(report["mu_star"], want, MU_STAR_RTOL):
        return [f"mu_star {report['mu_star']!r} != closed form {want!r}"]
    return []


def check_linearize(report: dict, table: dict, p: int, l: int, eps: float) -> list:
    L = p**l
    bad = check_fixed_point(report, table, p, l, eps)
    alpha = alpha_closed(L, eps)
    if not _close(report["alpha_u"], alpha, ALPHA_RTOL):
        bad.append(f"alpha_u {report['alpha_u']!r} != closed form {alpha!r}")
    eta = eta_closed(L, eps)
    if not abs(report["eta_phi2"] - eta) <= ETA_ATOL:
        bad.append(f"eta_phi2 {report['eta_phi2']!r} != closed form {eta!r}")
    return bad


def check_critical_mass(report: dict) -> list:
    a, b = report["mu_c_sequence"], report["mu_c_bisection"]
    if not _close(a, b, CRITICAL_MASS_RTOL):
        return [f"critical masses disagree: sequence {a!r}, bisection {b!r}"]
    return []


def check_koenigs(report: dict) -> list:
    bad = []
    if not report["intertwine_residual"] <= INTERTWINE_ATOL:
        bad.append(f"intertwining residual {report['intertwine_residual']!r} exceeds {INTERTWINE_ATOL}")
    if not all(r <= SEMIGROUP_ATOL for r in report["semigroup_residuals"]):
        bad.append(f"semigroup residuals {report['semigroup_residuals']!r} exceed {SEMIGROUP_ATOL}")
    return bad


def check_flow(rows: list, table: dict, steps: int) -> list:
    """Each row must map to the next under the bulk step built from the
    printed coefficients, and carry the vacuum term of that step."""
    if len(rows) != steps:
        return [f"flow has {len(rows)} rows, expected {steps}"]
    gbar, lam_g, lam_mu = table["gbar"], table["lam_g"], table["lam_mu_free"]
    a1, a2, a3, a4, a5 = (table[f"A{i}"] for i in range(1, 6))
    bad = []
    for i, (dg, mu, db) in enumerate(rows):
        g = gbar + dg
        terms = {"delta_b": (a4 * g * g, a5 * mu * mu)}
        got = {"delta_b": db}
        if i + 1 < len(rows):
            terms["delta_g"] = (lam_g * dg, -a1 * dg * dg)
            terms["mu"] = (lam_mu * mu, -a2 * g * g, -a3 * g * mu)
            got["delta_g"], got["mu"] = rows[i + 1][0], rows[i + 1][1]
        for key, parts in terms.items():
            if not abs(got[key] - sum(parts)) <= RECURRENCE_RTOL * sum(abs(t) for t in parts):
                bad.append(f"flow step {i}: {key} {got[key]!r} breaks the bulk recurrence")
    return bad


# ---------------------------------------------------------------------------
# Monte Carlo


def check_mc(report: dict, p: int, eps: float, r: int) -> list:
    bad = []
    if not report["max_z_score"] <= MAX_Z_SCORE:
        bad.append(f"max_z_score {report['max_z_score']!r} exceeds {MAX_Z_SCORE}")
    gap = abs(report["pairing_mean"] - report["pairing_exact"])
    if not gap <= PAIRING_STDERRS * report["pairing_stderr"]:
        bad.append(f"pairing mean off its exact value by {gap!r} > {PAIRING_STDERRS} stderr")
    want = pairing_shell_sum(p, eps, r)
    if not _close(report["pairing_exact"], want, PAIRING_RTOL):
        bad.append(f"pairing_exact {report['pairing_exact']!r} != shell sum {want!r}")
    return bad


def check_same_bytes(texts: list) -> list:
    if any(t != texts[0] for t in texts[1:]):
        return ["calls with the same seed gave different output"]
    return []


# ---------------------------------------------------------------------------
# one cycle of a workload


NEEDS_TABLE = ("flow", "fixed-point", "linearize")


def check_op(op, text: str, table: dict | None) -> list:
    """Checks of one op's output; `table` is the coeffs output at its point."""
    p, l, eps = op.point
    if op.command in NEEDS_TABLE and table is None:
        return ["no coeffs output at this point to check against"]
    if op.command == "coeffs":
        return check_coeffs(parse_table(text), p, l, eps)
    if op.command == "flow":
        return check_flow(parse_flow(text), table, op.steps)
    if op.command == "fixed-point":
        return check_fixed_point(json.loads(text), table, p, l, eps)
    if op.command == "linearize":
        return check_linearize(json.loads(text), table, p, l, eps)
    if op.command == "critical-mass":
        return check_critical_mass(json.loads(text))
    if op.command == "koenigs":
        return check_koenigs(json.loads(text))
    if op.command == "observables":
        return check_observables(json.loads(text), p, l, eps)
    if op.command == "mc":
        return check_mc(json.loads(text), p, eps, op.r)
    return [f"no check for command {op.command!r}"]


def check_cycle(results: list) -> list:
    """Check one cycle: a list of (Op, stdout) pairs, failed ops left out.

    Per-op checks run on every output; the cross-op checks (coeffs against
    the dynamics commands at the same point, the two g seeds, the same-seed
    MC calls) run on the groups that are complete.
    """
    bad = []
    tables = {}
    for op, text in results:
        if op.command == "coeffs":
            try:
                tables[op.point] = parse_table(text)
            except ValueError:
                pass  # reported by check_op below
    by_group = {}
    for op, text in results:
        try:
            errs = check_op(op, text, tables.get(op.point))
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            errs = [f"malformed output: {type(exc).__name__}: {exc}"]
        bad += [f"{' '.join(op.argv)}: {e}" for e in errs]
        if op.group is not None:
            by_group.setdefault(op.group, []).append((op, text))
    for group, members in sorted(by_group.items()):
        if members[0][0].command == "observables":
            reports = [json.loads(text) for _, text in members]
            for other in reports[1:]:
                bad += [f"{group}: {e}" for e in check_g_seed_agreement(reports[0], other)]
        else:
            bad += [f"{group}: {e}" for e in check_same_bytes([text for _, text in members])]
    return bad
