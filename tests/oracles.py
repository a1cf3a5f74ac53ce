"""Reference solvers that share no code with the closed forms they check."""

import math
from dataclasses import dataclass
from itertools import product
from math import factorial

import mpmath
import numpy as np

from hrg.dynamics import E_PHI2, ManifoldOrbit, find_fixed_point, psi_fixed_seed
from hrg.errors import BoxIndexError, DomainError, HRGError
from hrg.geometry import distance_exponents
from hrg.rg import BlockCouplings, BulkVector, DeviationVector, bulk_step
from hrg.wick import connection_coeff

FD_H = 1e-3  # step of the Richardson second difference of the vacuum term
FD_CHECK_RTOL = 1e-6
CONTRACTION_WINDOW = (20, 30)  # orbit steps whose decay ratios measure_contraction averages


class ResonanceError(HRGError):
    """Linear solve blocked by a (near-)resonant spectrum."""


class SelfCheckError(HRGError):
    """Two evaluation routes disagree beyond tolerance."""


@dataclass(frozen=True)
class BoxIndex:
    """Address of one unit box: l triples of base-p digits, coarsest first."""

    coords: tuple


def all_boxes(params):
    """All L^3 box addresses in lexicographic order (coarsest digits first).

    With this ordering the first p^(3j) boxes are exactly the sub-ball of
    radius p^j around the origin box, for every j <= l.
    """
    return [BoxIndex(coords=flat) for flat in product(range(params.p), repeat=3 * params.l)]


def _check_box(b, params):
    if len(b.coords) != 3 * params.l or any(not (0 <= d < params.p) for d in b.coords):
        raise BoxIndexError(f"bad box address {b.coords} for p={params.p}, l={params.l}")


def block_distance(i, j, params):
    """Tree distance between two unit boxes: p^k with k = l - (common levels)."""
    _check_box(i, params)
    _check_box(j, params)
    for level in range(params.l):
        a = i.coords[3 * level : 3 * level + 3]
        b = j.coords[3 * level : 3 * level + 3]
        if a != b:
            return float(params.p ** (params.l - level))
    return 0.0


def shell_measure(params, k):
    """Haar measure of the shell |x| = p^k, normalized so the unit ball has mass 1."""
    p = float(params.p)
    return p ** (3 * k) * (1.0 - p**-3)


def gamma_series_value(params, shell):
    """Gamma from its defining shell series; independent of gamma_value."""
    p = float(params.p)
    two_phi = 2.0 * params.phi_dim
    s = max(shell, 0)
    total = 0.0
    for n in range(params.l):
        inner = 1.0 if s <= n else 0.0
        outer = 1.0 if s <= n + 1 else 0.0
        total += p ** (-two_phi * n) * (inner - p**-3 * outer)
    return total


def block_matrix(table):
    """The dense L^3 x L^3 block matrix of Gamma: [gamma_ball, *gamma_shell]
    indexed by the distance exponents of each pair of boxes."""
    values = np.array([table.gamma_ball, *table.gamma_shell])
    return values[distance_exponents(table.params.p, table.params.l)]


def fluct_spectrum(table):
    """Eigenvalues of the dense block matrix, ascending."""
    return np.linalg.eigvalsh(block_matrix(table))


C_R_SERIES_RTOL = 1e-16  # c_r_series stops once a term falls below this share (absolute below 1)
PAIRING_SERIES_RTOL = 1e-12  # free_pairing_series stops once a term falls below this share
U4_SERIES_RTOL = 1e-14  # u4_scale_series stops once a term falls below this share


def c_r_series(params, r, shell):
    """C_r on a shell by summing its defining series
    sum_{n >= l r} x^n (1[s <= n] - p^-3 1[s <= n+1]), s = max(shell, l r),
    until the terms fall below C_R_SERIES_RTOL."""
    p = float(params.p)
    two_phi = 2.0 * params.phi_dim
    s = max(shell, params.l * r)
    total = 0.0
    n = params.l * r
    while True:
        term = p ** (-two_phi * n) * ((1.0 if s <= n else 0.0) - p**-3 * (1.0 if s <= n + 1 else 0.0))
        total += term
        n += 1
        if n > s + 1 and p ** (-two_phi * n) < C_R_SERIES_RTOL * max(abs(total), 1.0):
            return total


def free_pairing_series(params, ball_shell=0):
    """The ball's free pairing as vol(ball) times its shell sum, taken
    shell by shell downward until a term falls below PAIRING_SERIES_RTOL
    of the total (and at least 9 shells)."""
    p = float(params.p)
    two_phi = 2.0 * params.phi_dim
    amp = (1.0 - p**-3) / (1.0 - p**-two_phi) - p ** (two_phi - 3.0)
    total = 0.0
    k = ball_shell
    while True:
        term = shell_measure(params, k) * amp * p ** (-two_phi * k)
        total += term
        k -= 1
        if abs(term) < PAIRING_SERIES_RTOL * abs(total) and ball_shell - k > 8:
            return p ** (3 * ball_shell) * total


def u4_scale_series(x, s2, s3, s4, g0):
    """The scale series whose sum times -24 g is u4: the bracket
    s4 x^2q + 6 q s2 g0^2 x^2q + 12 x^q (sum_{n<q} n x^n) s2 g0^2
    + 4 x^q (sum_{n<q} x^n) g0 s3 summed over q >= 0 until a bracket falls
    below U4_SERIES_RTOL of the total."""
    total = 0.0
    inner = 0.0  # sum_{n<q} n x^n, updated incrementally
    q = 0
    while True:
        geom = (1.0 - x**q) / (1.0 - x)
        bracket = (
            s4 * x ** (2 * q)
            + 6.0 * q * s2 * g0**2 * x ** (2 * q)
            + 12.0 * x**q * inner * s2 * g0**2
            + 4.0 * x**q * geom * g0 * s3
        )
        total += bracket
        inner += q * x**q
        q += 1
        if q > 4 and bracket < U4_SERIES_RTOL * total:
            return total


def _terms_below(x, digits):
    """Number of terms after which x^n, 0 < x < 1, has fallen below 10^-(digits + 10)."""
    return int(mpmath.ceil((digits + 10) * mpmath.log(10) / -mpmath.log(x))) + 1


def mp_c_r(params, r, shells, digits=50):
    """C_r on each of `shells` from its defining series at `digits` digits:
    the tails T(k) = sum_{n >= k} x^n, x = p^(-2 phi), summed term by term
    from above the top shell down, give T(s) - p^-3 T(max(s - 1, l r))."""
    with mpmath.workdps(digits):
        p = mpmath.mpf(params.p)
        x = p ** (-2 * mpmath.mpf(params.phi_dim))
        low = params.l * r
        top = max(max(shells), low) + 1
        tail = {top: mpmath.fsum(x**n for n in range(top, top + _terms_below(x, digits)))}
        for k in range(top - 1, low - 1, -1):
            tail[k] = x**k + tail[k + 1]
        out = []
        for shell in shells:
            s = max(shell, low)
            out.append(tail[s] - p**-3 * tail[max(s - 1, low)])
        return out


def mp_free_pairing(params, ball_shell=0, digits=50):
    """The ball's free pairing at `digits` digits: vol(ball) times the sum
    over shells k <= ball_shell of p^3k (1 - p^-3) C_inf(k), term by term."""
    with mpmath.workdps(digits):
        p = mpmath.mpf(params.p)
        two_phi = 2 * mpmath.mpf(params.phi_dim)
        amp = (1 - p**-3) / (1 - p**-two_phi) - p ** (two_phi - 3)
        n = _terms_below(p ** (two_phi - 3), digits)
        shells = range(ball_shell, ball_shell - n, -1)
        total = mpmath.fsum(p ** (3 * k) * (1 - p**-3) * amp * p ** (-two_phi * k) for k in shells)
        return p ** (3 * ball_shell) * total


def mp_u4_total(x, s2, s3, s4, g0, digits=50):
    """The u4 scale series of `u4_scale_series` at `digits` digits from the
    float inputs, with each inner sum taken term by term."""
    with mpmath.workdps(digits):
        x, s2, s3, s4, g0 = (mpmath.mpf(v) for v in (x, s2, s3, s4, g0))
        total = inner = geom = mpmath.mpf(0)
        for q in range(2 * _terms_below(x, digits)):
            total += (s4 + 6 * q * s2 * g0**2) * x ** (2 * q) + (12 * inner * s2 * g0**2 + 4 * geom * g0 * s3) * x**q
            inner += q * x**q
            geom += x**q
        return total


def jacobian_at(v, fc):
    """Analytic 2x2 Jacobian of the bulk step at v."""
    g = fc.gbar + v.delta_g
    return np.array(
        [
            [fc.lam_g - 2.0 * fc.a1 * v.delta_g, 0.0],
            [-2.0 * fc.a2 * g - fc.a3 * v.mu, fc.lam_mu_free - fc.a3 * g],
        ]
    )


def newton_fixed_point(fc, params, tol=1e-12, max_iter=100):
    """Newton iteration for the fixed point of the bulk step, seeded at the origin."""
    v = BulkVector(0.0, 0.0)
    for _ in range(max_iter):
        image, _ = bulk_step(v, fc, params)
        res = np.array([image.delta_g - v.delta_g, image.mu - v.mu])
        if not np.all(np.isfinite(res)):
            raise ArithmeticError(f"Newton iterate diverged at {v}")
        if np.max(np.abs(res)) <= tol:
            return v
        step = np.linalg.solve(jacobian_at(v, fc) - np.eye(2), -res)
        v = BulkVector(v.delta_g + step[0], v.mu + step[1])
    raise ArithmeticError(f"no convergence in {max_iter} Newton steps")


def deep_orbit(g, fc, params):
    """The stable orbit above g by the two sweeps, run until the coupling
    deviation has decayed to 1e-22 with no cap on the depth (and at least
    200 steps), and cut where both components first sit within 256 ulps of
    the fixed point.  The fixed point is appended as its last point, so the
    orbit has settled there."""
    delta_g0 = g - fc.gbar
    lam = abs(fc.lam_g)
    if lam >= 1.0:
        raise DomainError("coupling multiplier not contracting; eps too large")
    v_star = find_fixed_point(fc, params)
    depth = 200
    if lam > 0.0 and delta_g0 != 0.0:
        depth = max(depth, int(np.ceil(np.log(abs(delta_g0) / 1e-22) / -np.log(lam))) + 10)
    dg = [float(delta_g0)]
    for _ in range(depth):
        dg.append(fc.lam_g * dg[-1] - fc.a1 * dg[-1] ** 2)
    gs = (fc.gbar + np.array(dg)).tolist()
    mu = [fc.a2 * gs[-1] ** 2 / (fc.lam_mu_free - 1.0 - fc.a3 * gs[-1])]
    for g_n in reversed(gs[:-1]):
        mu.append((mu[-1] + fc.a2 * g_n**2) / (fc.lam_mu_free - fc.a3 * g_n))
    dg, mu = np.array(dg), np.array(mu[::-1])
    snap = 256.0 * np.finfo(float).eps * max(abs(v_star.mu), fc.gbar)
    settled = (np.abs(dg) <= snap) & (np.abs(mu - v_star.mu) <= snap)
    s = int(np.argmax(settled)) if settled.any() else depth
    return ManifoldOrbit(
        dg=np.append(dg[:s], 0.0), mu=np.append(mu[:s], v_star.mu), v_star=v_star, settle_index=s
    )


def measure_contraction(orbit):
    """Geometric decay ratio of the trajectory's distance to the fixed point,
    averaged over the steps in CONTRACTION_WINDOW that the orbit stores."""
    n_lo, n_hi = CONTRACTION_WINDOW
    n_hi = min(n_hi, orbit.settle_index)
    star = orbit.v_star
    points = [orbit.point(n) for n in range(n_hi + 1)]
    dists = [max(abs(v.delta_g - star.delta_g), abs(v.mu - star.mu)) for v in points]
    ratios = [dists[n + 1] / dists[n] for n in range(n_lo, n_hi) if dists[n] > 0]
    if not ratios:
        raise DomainError("no stored orbit step off the fixed point in the sampled window")
    return float(np.mean(ratios))


def chained_jacobian_walk(orbit, w, fc, alpha_u):
    """alpha_u^-n DF^n(v) w along a settled orbit such as `deep_orbit`, by
    walking y <- J(v_n) y / alpha_u one 2x2 product a step, until successive
    iterates past its settle index agree to 1e-13 of |y|, at any scale of w.
    Returns (limit vector, its mu-component)."""
    y = np.array([w.delta_g, w.mu])
    prev = y.copy()
    for n in range(1, orbit.settle_index + 400):
        y = (jacobian_at(orbit.point(n - 1), fc) @ y) / alpha_u
        settled = np.max(np.abs(y - prev)) <= 1e-13 * np.max(np.abs(y))
        if n > max(2, orbit.settle_index) and settled:
            return BulkVector(float(y[0]), float(y[1])), float(y[1])
        prev = y.copy()
    raise ArithmeticError("chained Jacobians did not settle")


def xi_walk(orbit, fc, alpha_u):
    """Xi_n = grad delta_b(v_n) . alpha_u^-n DF^n E_PHI2 along a settled
    orbit such as `deep_orbit`, by walking the chained Jacobians term by term
    until successive terms past its settle index agree to 1e-14.  Returns
    (xis, xi_inf)."""
    y = np.array([0.0, 1.0])
    xis = []
    n_floor = max(10, orbit.settle_index)
    for n in range(n_floor + 600):
        cur = orbit.point(n)
        grad = np.array([2.0 * fc.a4 * (fc.gbar + cur.delta_g), 2.0 * fc.a5 * cur.mu])
        xis.append(float(grad @ y))
        if n > n_floor and abs(xis[-1] - xis[-2]) < 1e-14 * max(1.0, abs(xis[-1])):
            return xis, xis[-1]
        y = (jacobian_at(cur, fc) @ y) / alpha_u
    raise ArithmeticError("Xi sequence did not settle")


def upsilon_sum(xis, z0):
    """sum_n z0^n Xi_n term by term, with the last term continued as a
    geometric tail."""
    total, weight = 0.0, 1.0
    for xi in xis:
        total += weight * xi
        weight *= z0
    return total + weight * xis[-1] / (1.0 - z0)


def deep_kappa(delta_g0, fc, alpha_u):
    """kappa = prod_j (1 - a3 dg_j / alpha_u) over the coupling orbit from
    delta_g0, run forward with no depth cap until the factors left move it
    by less than 1e-18, as one exponential of an exactly rounded sum of
    log1p terms."""

    def logs():
        x = delta_g0
        for _ in range(10**7):
            if fc.a3 * abs(x) / (alpha_u * (1.0 - abs(fc.lam_g))) < 1e-18:
                return
            yield math.log1p(-fc.a3 * x / alpha_u)
            x = fc.lam_g * x - fc.a1 * x * x
        raise ArithmeticError("coupling orbit not settled within 10**7 steps")

    return math.exp(math.fsum(logs()))


def bulk_step_bisection(delta_g0, fc, params):
    """Critical mass by bisection on the escape side, stepping the full
    two-dimensional `bulk_step` from every trial mass: 0 marks a trial whose
    orbit freezes before it escapes."""
    from hrg.dynamics import ESCAPE_GUARD_FACTOR, ESCAPE_MAX_STEPS
    from hrg.errors import EscapeAmbiguousError

    guard = ESCAPE_GUARD_FACTOR * fc.gbar

    def escape_side(mu0):
        v = BulkVector(delta_g0, mu0)
        for _ in range(ESCAPE_MAX_STEPS):
            if abs(v.mu) > guard:
                return 1 if v.mu > 0 else -1
            nxt, _ = bulk_step(v, fc, params)
            if nxt == v:
                return 0
            v = nxt
        return 0

    lo, hi = -10.0 * fc.gbar, 10.0 * fc.gbar
    side_lo, side_hi = escape_side(lo), escape_side(hi)
    if side_lo == side_hi or side_lo == 0 or side_hi == 0:
        raise EscapeAmbiguousError("initial bracket does not straddle the stable manifold")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if escape_side(mid) == side_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)



def delta_b_value(v, fc):
    """Vacuum term produced by one bulk step from v."""
    g = fc.gbar + v.delta_g
    return fc.a4 * g * g + fc.a5 * v.mu**2


def second_derivative_map(fc, x, y):
    """Bilinear second differential of the bulk step (constant in v)."""
    return np.array(
        [
            -2.0 * fc.a1 * x[0] * y[0],
            -2.0 * fc.a2 * x[0] * y[0] - fc.a3 * (x[0] * y[1] + x[1] * y[0]),
        ]
    )


def theta_vector(fc, alpha_u, e_u, jacobian):
    """Quadratic coefficient of the conjugating map along the unstable line
    of the eigenpair (alpha_u, e_u) of `jacobian`.

    Solves (alpha_u^2 I - J) theta = (1/2) D2[e_u, e_u]; resonance cannot
    occur for the physical flow (alpha_u > 1) but is guarded for synthetic
    coefficient sets.
    """
    e = np.array([e_u.delta_g, e_u.mu])
    rhs = 0.5 * second_derivative_map(fc, e, e)
    m = alpha_u**2 * np.eye(2) - jacobian
    if abs(np.linalg.det(m)) < 1e-14 * max(1.0, alpha_u**4):
        raise ResonanceError("alpha_u^2 resonates with the Jacobian spectrum")
    sol = np.linalg.solve(m, rhs)
    return BulkVector(float(sol[0]), float(sol[1]))


def psi_vacuum_second_derivative(fc, alpha_u, v_star, params):
    """Second z-derivative of the vacuum term along the conjugated unstable
    line z -> psi(v*, z e_u), e_u = E_PHI2, by the defining double iteration and a
    Richardson-extrapolated central second difference at steps FD_H/2 and
    FD_H."""

    def f(z):
        if z == 0.0:
            return delta_b_value(v_star, fc)
        w = BulkVector(z * E_PHI2.delta_g, z * E_PHI2.mu)
        psi, _, _ = psi_fixed_seed(w, fc, params, v_star, alpha_u)
        return delta_b_value(psi, fc)

    def second(hh):
        return (f(hh) - 2.0 * f(0.0) + f(-hh)) / hh**2

    return (4.0 * second(FD_H / 2.0) - second(FD_H)) / 3.0


def uv_reduced_oracle(fc, alpha_u, theta, v_star, params):
    """The ultraviolet piece from the vacuum curvature along the line
    v* + z e_u + z^2 theta, e_u = E_PHI2, checked against the finite difference of
    `psi_vacuum_second_derivative` to FD_CHECK_RTOL (SelfCheckError
    otherwise), over the geometric-series denominator alpha_u^2 - L^3."""
    eg = E_PHI2.delta_g
    g_star = fc.gbar + v_star.delta_g
    curvature = (
        2.0 * fc.a4 * eg**2
        + 2.0 * fc.a5
        + 4.0 * fc.a4 * g_star * theta.delta_g
        + 4.0 * fc.a5 * v_star.mu * theta.mu
    )
    fd = psi_vacuum_second_derivative(fc, alpha_u, v_star, params)
    if abs(fd - curvature) > FD_CHECK_RTOL * max(abs(curvature), 1e-300):
        raise SelfCheckError(f"vacuum second derivative mismatch: analytic {curvature!r} vs fd {fd!r}")
    return curvature / (alpha_u**2 - float(params.L) ** 3)


def point_seed(v):
    """A bulk (delta_g, mu) as a point deviation on (beta4, beta2)."""
    return np.array([v.delta_g, 0.0, v.mu, 0.0, 0.0, 0.0])


def quadratic_step(dq, x):
    """The f = 0 deviation step M x + Q(x, x) of a `DeviationQuadratic`."""
    return dq.m @ x + np.einsum("kij,i,j->k", dq.q, x, x)


def uv_explicit_series(params, table, g_star, q, z, mu_star=0.0):
    """Closed-form q-th explicit couplings and vacuum term for the test
    function z * (unit box indicator).

    Returns (beta_exp, db_exp) with beta_exp mapping k=1..4; the quartic and
    cubic entries vanish identically.  The vacuum term carries a mass
    contribution proportional to mu_star.
    """
    if q < 0:
        raise DomainError("q must be nonnegative")
    L = float(params.L)
    phi = params.phi_dim
    s2 = table.s_moments[2]
    s3 = table.s_moments[3]
    s4 = table.s_moments[4]
    g0 = table.gamma_ball
    x = L ** (-2 * phi)
    inner = sum(n * x**n for n in range(q))
    geom = (1.0 - x**q) / (1.0 - x)
    beta_exp = {
        4: 0.0,
        3: 0.0,
        2: 6.0 * q * x**q * z**2 * g_star * s2,
        1: z**3 * g_star * L ** (-q * phi) * (4.0 * geom * s3 + 12.0 * inner * s2 * g0),
    }
    db_exp = (
        -(z**4)
        * g_star
        * (x ** (2 * q) * s4 + 6.0 * x ** (2 * q) * q * s2 * g0**2 + 12.0 * x**q * inner * s2 * g0**2 + 4.0 * x**q * geom * g0 * s3)
        - z**2 * mu_star * x**q * s2
    )
    return beta_exp, db_exp


def stein_ir_reduced(dq, e_u):
    """The infrared sum for any linear map M, with no use of its structure:
    A = sum a_q a_q^T from the Kronecker form of the Stein equation
    A = a_0 a_0^T + M A M^T, with a_0 the point seed of e_u, then
    sum b_q = (I - M)^-1 Q(A) and the value 2 (c.sum b_q + R(A))."""
    a0 = point_seed(e_u)
    n = a0.size
    a_sum = np.linalg.solve(np.eye(n * n) - np.kron(dq.m, dq.m), np.outer(a0, a0).ravel()).reshape(n, n)
    b_sum = np.linalg.solve(np.eye(n) - dq.m, np.einsum("kij,ij->k", dq.q, a_sum))
    return 2.0 * float(dq.c @ b_sum + np.sum(dq.r * a_sum))


def resolvent_one_point_ir(dq, e_u, scale):
    """Infrared part of the one-point residual, c.(I - M)^-1 a_0 with
    a_0 = scale times the point seed of e_u, by a dense solve and one step
    of iterative refinement: the pivoted LU alone lands up to 1.3e-15 off a
    50-digit value for p <= 11, l <= 3, the refined solve within 2.8e-16."""
    a0 = scale * point_seed(e_u)
    lhs = np.eye(a0.size) - dq.m
    x = np.linalg.solve(lhs, a0)
    x += np.linalg.solve(lhs, a0 - lhs @ x)
    return float(dq.c @ x)


def mp_ir_reduced(dq, digits=50):
    """The infrared closed form 2 (c.b + r22 a), a = 1 / (1 - m22^2),
    b = (I - M)^-1 q[:, 2, 2] a, evaluated at `digits` digits from the
    float M, q, c and r: the exact value the double evaluation rounds."""
    with mpmath.workdps(digits):
        a = 1 / (1 - mpmath.mpf(dq.m[2, 2]) ** 2)
        lhs = mpmath.eye(6) - mpmath.matrix(dq.m.tolist())
        b = mpmath.lu_solve(lhs, mpmath.matrix(dq.q[:, 2, 2].tolist()) * a)
        return 2 * (mpmath.fsum(mpmath.mpf(c) * b[k] for k, c in enumerate(dq.c.tolist())) + mpmath.mpf(dq.r[2, 2]) * a)


def dense_graph_tensor_quadratic(v_bk, fc, table, params):
    """(M, Q, c, R) of the f = 0 deviation step and vacuum at v_bk from the
    dense graph tensor t[out, u, v, m]: outputs (beta4, beta3, beta2, beta1,
    w5, w6, delta_b), couplings (beta4, beta3, beta2, beta1, w5, w6) and
    powers m = 0..4 of G.  Vertices beta_d1 and beta_d2 joined by m lines,
    with no leg left on G f, give Wick order k the weight
    d1! d2! / (a1! a2! m!) connection_coeff(a1, a2, k) / 2 times
    L^-((a1 + a2) phi) c0^((a1 + a2 - k) // 2), a_i = d_i - m, negated in
    the coupling outputs; the W graphs 12 beta4^T G beta3 and
    8 beta4^T G beta4 feed w5 and w6.  t is symmetrized in (u, v) and
    contracted by einsum with the moments S_m and the bulk couplings h,
    and by a matmul with gamma_ball^m."""
    L = float(params.L)
    phi = params.phi_dim
    c0 = table.c0_zero
    t = np.zeros((7, 6, 6, 5))
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            for m in range(1, min(d1, d2) + 1):
                a1, a2 = d1 - m, d2 - m
                base = factorial(d1) * factorial(d2) / (factorial(a1) * factorial(a2) * factorial(m))
                for k in range(5):
                    cc = connection_coeff(a1, a2, k)
                    if cc:
                        w = 0.5 * base * cc * L ** (-(a1 + a2) * phi) * c0 ** ((a1 + a2 - k) // 2)
                        t[4 - k if k else 6, 4 - d1, 4 - d2, m] = -w if k else w
    t[4, 0, 1, 1] = 12.0 * L ** (-5 * phi)
    t[5, 0, 0, 1] = 8.0 * L ** (-6 * phi)
    t = (t + t.swapaxes(1, 2)) / 2.0
    h = np.array([fc.gbar + v_bk.delta_g, 0.0, v_bk.mu, 0.0, 0.0, 0.0])
    s_m = np.array([0.0, 0.0] + [table.s_moments[j] for j in range(2, 5)])  # S_1 = 0 exactly
    lin = 2.0 * np.einsum("oijm,m,i->oj", t, s_m, h)
    lin[:6] += np.diag(L ** (3 - phi * np.array([4.0, 3.0, 2.0, 1.0, 5.0, 6.0])) / params.n_boxes)
    quad = t @ table.gamma_ball ** np.arange(5)
    return lin[:6], quad[:6], lin[6], quad[6]


def dense_powers(table):
    """Elementwise powers G^m, m = 1..4, of the dense L^3 x L^3 block matrix."""
    G = block_matrix(table)
    return {m: G**m for m in range(1, 5)}


def dense_counterterms(bc, gpow, table, params):
    """The block counterterms (dbeta1, dbeta2, w5_out, w6_out, f_out) with
    every graph a product through the dense matrices gpow[m] = G^m."""
    G = gpow[1]
    L = float(params.L)
    phi = params.phi_dim
    c0 = table.c0_zero
    gf = G @ bc.f

    dbeta1 = {k: 0.0 for k in range(5)}
    for k in range(5):
        for b in range(1, 5 - k):
            coef = factorial(k + b) / (factorial(k) * factorial(b))
            dbeta1[k] -= coef * L ** (-k * phi) * float(np.sum(bc.beta(k + b) * gf**b))

    dbeta2 = {k: 0.0 for k in range(5)}
    pairs = [(a, b) for b in range(1, 5) for a in range(0, 5 - b)]
    for a1, b1 in pairs:
        for a2, b2 in pairs:
            for m in range(1, min(b1, b2) + 1):
                left = bc.beta(a1 + b1) * gf ** (b1 - m)
                right = bc.beta(a2 + b2) * gf ** (b2 - m)
                graph = float(left @ gpow[m] @ right)
                base = (
                    factorial(a1 + b1)
                    * factorial(a2 + b2)
                    / (factorial(a1) * factorial(a2) * factorial(m) * factorial(b1 - m) * factorial(b2 - m))
                )
                for k in range(5):
                    cc = connection_coeff(a1, a2, k)
                    dbeta2[k] += (
                        0.5 * base * cc * L ** (-(a1 + a2) * phi) * c0 ** ((a1 + a2 - k) // 2) * graph
                    )
    for k in range(5):
        for b in range(1, 7):
            if k + b in (5, 6):
                coef = factorial(k + b) / (factorial(k) * factorial(b))
                dbeta2[k] += coef * L ** (-k * phi) * float(np.sum(bc.w(k + b) * gf**b))

    w6_out = L ** (3 - 6 * phi) * float(np.mean(bc.w6)) + 8.0 * L ** (-6 * phi) * float(bc.beta4 @ G @ bc.beta4)
    w5_out = (
        L ** (3 - 5 * phi) * float(np.mean(bc.w5))
        + 6.0 * L ** (-5 * phi) * float(bc.w6 @ gf)
        + 12.0 * L ** (-5 * phi) * float(bc.beta4 @ G @ bc.beta3)
        + 48.0 * L ** (-5 * phi) * float(np.sum(bc.beta4 * (G @ bc.beta4) * gf))
    )
    f_out = L ** (3 - phi) * float(np.mean(bc.f))
    return dbeta1, dbeta2, w5_out, w6_out, f_out


def dense_block_outputs(bc, gpow, table, params):
    """(beta4, beta3, beta2, beta1, w5, w6, f, delta_b) of one block step
    through the dense counterterms."""
    L = float(params.L)
    dbeta1, dbeta2, w5_out, w6_out, f_out = dense_counterterms(bc, gpow, table, params)
    betas = [
        L ** (3 - k * params.phi_dim) * float(np.mean(bc.beta(k))) - dbeta1[k] - dbeta2[k] for k in (4, 3, 2, 1)
    ]
    return np.array(betas + [w5_out, w6_out, f_out, dbeta1[0] + dbeta2[0]])


def dense_deviation_quadratic(v_bk, fc, table, params):
    """(M, Q, c, R) of the f = 0 deviation step and vacuum at v_bk,
    polarized from 28 dense block steps: the bulk block, +-e_i for the
    linear and diagonal terms and e_i + e_j for the cross terms, each
    deviation scaled by size.

    The step is exactly quadratic, so every size gives the same map in
    exact arithmetic.  In floating point the linear part carries the
    rounding of the deviated outputs divided by size: at unit size it
    reached 3e-12 of c at (3, 2, 0.05) against a 50-digit evaluation, at
    1/16 it stays below 2e-13 over p^(3l) <= 729.
    """
    size = 1.0 / 16.0
    gpow = dense_powers(table)
    hom = BlockCouplings.homogeneous(params, fc.gbar + v_bk.delta_g, v_bk.mu)

    def outputs(dv):
        out = dense_block_outputs(hom.with_deviation(DeviationVector(*dv)), gpow, table, params)
        return np.append(out[:6], out[7])

    n = 6
    eye = size * np.eye(n)
    base = outputs(np.zeros(n))
    plus = [outputs(e) - base for e in eye]
    minus = [outputs(-e) - base for e in eye]
    lin = (np.stack(plus, axis=1) - np.stack(minus, axis=1)) / (2.0 * size)
    quad = np.zeros((n + 1, n, n))
    for i in range(n):
        quad[:, i, i] = (plus[i] + minus[i]) / 2.0
        for j in range(i):
            # step(e_i + e_j) - step(e_i) - step(e_j) = 2 Q(e_i, e_j)
            both = outputs(eye[i] + eye[j]) - base
            quad[:, i, j] = quad[:, j, i] = (both - plus[i] - plus[j]) / 2.0
    quad /= size**2
    return lin[:n], quad[:n], lin[n], quad[n]


def reference_hierarchical_batch(params, levels, b, rng):
    """The hierarchical sampler before fusion: the finest scale fills the
    array, then each coarser scale and the common tail are added over the
    whole batch.  Draws the stream in the same order as `hrg.mc`."""
    p = params.p
    phi = params.phi_dim
    n = p ** (3 * levels)
    base = p**3
    if levels == 0:
        x = np.zeros((b, 1))
    else:
        xi = rng.standard_normal((b, n)).reshape(b, n // base, base)
        xi -= xi.mean(axis=2, keepdims=True)
        x = np.ascontiguousarray(xi.reshape(b, n))
    for scale in range(1, levels):
        parents = n // base ** (scale + 1)
        xi = rng.standard_normal((b, parents, base))
        xi -= xi.mean(axis=2, keepdims=True)
        vals = float(p) ** (-scale * phi) * xi.reshape(b, parents * base)
        x.reshape(b, parents * base, base**scale)[...] += vals[:, :, None]
    v_tail = (1.0 - float(p) ** -3) * float(p) ** (-2 * levels * phi) / (1.0 - float(p) ** (-2 * phi))
    x += np.sqrt(v_tail) * rng.standard_normal((b, 1))
    return x


def reference_batches(ens):
    """The ensemble's batches, drawn whole one after another."""
    from hrg.mc import BATCH_SIZE, _cholesky_factor

    chol = _cholesky_factor(ens.params, ens.levels) if ens.method == "cholesky" else None
    done = idx = 0
    while done < ens.n_samples:
        b = min(BATCH_SIZE, ens.n_samples - done)
        rng = np.random.Generator(np.random.Philox(key=(int(ens.seed) << 32) + idx))
        if ens.method == "hierarchical":
            yield reference_hierarchical_batch(ens.params, ens.levels, b, rng)
        else:
            yield rng.standard_normal((b, ens.n_boxes)) @ chol.T
        done += b
        idx += 1


def reference_class_aggregates(x, p, levels):
    """Per-sample sums of x_i * x_j over each distance class, over the whole batch."""
    b, n = x.shape
    base = p**3
    out = np.empty((b, levels + 1))
    out[:, 0] = np.sum(x * x, axis=1)
    sq_prev = out[:, 0]
    sums = x
    for d in range(1, levels + 1):
        sums = sums.reshape(b, n // base**d, base).sum(axis=2)
        sq = np.sum(sums**2, axis=1)
        out[:, d] = sq - sq_prev
        sq_prev = sq
    return out


def reference_validate(ens):
    """`hrg.mc.validate` as one serial loop over `reference_batches`."""
    from hrg.covariance import c_r_value
    from hrg.mc import EmpiricalCovariance, PairingEstimate, exact_pairing

    p = ens.params.p
    levels = ens.levels
    n_boxes = ens.n_boxes
    n = ens.n_samples

    agg = np.zeros(levels + 1)
    agg2 = np.zeros(levels + 1)
    n_sub = int(float(p) ** (-3 * ens.r))
    weight = float(p) ** ((3 - ens.params.phi_dim) * ens.r)
    pair_sum = 0.0
    pair_sum2 = 0.0
    for batch in reference_batches(ens):
        a = reference_class_aggregates(batch, p, levels)
        agg += a.sum(axis=0)
        agg2 += (a**2).sum(axis=0)
        t = (weight * batch[:, :n_sub].sum(axis=1)) ** 2
        pair_sum += t.sum()
        pair_sum2 += (t**2).sum()

    counts = np.empty(levels + 1)
    counts[0] = n_boxes
    for k in range(1, levels + 1):
        counts[k] = n_boxes * (p ** (3 * k) - p ** (3 * (k - 1)))
    mean_agg = agg / n
    var_agg = np.maximum(agg2 / n - mean_agg**2, 0.0)
    class_means = mean_agg / counts
    class_se = np.sqrt(var_agg / n) / counts
    class_exact = np.array([c_r_value(ens.params, 0, k) for k in range(levels + 1)])
    diffs = class_means - class_exact
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(class_se > 0, np.abs(diffs) / class_se, np.where(diffs == 0.0, 0.0, np.inf))
    emp = EmpiricalCovariance(
        class_means=class_means,
        class_exact=class_exact,
        class_se=class_se,
        max_z_score=float(np.max(z)),
    )
    mean = pair_sum / n
    var = max(pair_sum2 / n - mean**2, 0.0)
    return emp, PairingEstimate(mean=mean, stderr=float(np.sqrt(var / n)), exact=exact_pairing(ens.params, ens.r))
