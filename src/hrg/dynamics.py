"""Fixed point, eigen-structure, stable manifold, and partial linearization
of the bulk flow.

The truncated flow is two dimensional and exactly solvable: the fixed point
sits on the invariant line delta_g = 0, and the Jacobian there is lower
triangular, so the coupling direction contracts with multiplier 2 - L^eps
and the mass direction (0, 1) expands with the unstable eigenvalue
lam_mu_free - a3 gbar.  Orbits on the stable manifold are represented by
the sequence solution with boundary data on both ends, not by naive forward
iteration: forward iteration amplifies the seed's rounding error along the
unstable direction and leaves the manifold after a few dozen steps.  The
coupling recurrence does not involve the mass, and the mass recurrence is
linear once the coupling orbit is known, so the solution is one forward
sweep in delta_g and one backward sweep in mu, kept as two arrays over a
fixed short depth: deep enough that the upsilon terms past it are
negligible and that the backward sweep's frozen start has died out.  The
bisection oracle for the critical mass uses the same split: one lazy coupling
sweep, then one tight float loop over the mass alone for each trial.

The Jacobians along the orbit are lower triangular too, so the
chained-Jacobian limits of the partial linearization are cumulative
products over the stored orbit, times the product over the rest of it.
In X = delta_g / gbar the coupling map is X -> lam_g X - (1 - lam_g) X^2,
because a1 gbar = 1 - lam_g, so that rest is a one-parameter orbit sum:
the Koenigs (Schroder) coordinate of this map, the paper's partial
linearization in one dimension, sums it as a power series, with no depth
cap on small eps.  The conjugating map of the partial linearization is
then closed form, psi(v, w) = v* + (ell(v) . w) e_u with ell the row of
that limit, because at the fixed point a mass deviation is multiplied by
exactly alpha_u at each step; the paper's defining double iteration checks
it once per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, repeat

import numpy as np

from .errors import (
    BlowUpError,
    ConvergenceError,
    DomainError,
    EscapeAmbiguousError,
    ManifoldRadiusError,
    NoGapError,
    OffManifoldError,
)
from .geometry import ModelParams
from .rg import BLOWUP_GUARD, BulkVector, FlowCoefficients, bulk_step

E_PHI2 = BulkVector(0.0, 1.0)

MANIFOLD_RADIUS = 0.5  # relative to gbar
ESCAPE_GUARD_FACTOR = 1e3
ESCAPE_MAX_STEPS = 10_000
MEMBERSHIP_ATOL = 1e-10
PSI_TOL = 1e-12  # Cauchy tolerance between stages of the double iteration
PSI_MAX_STAGES = 2000
UPSILON_CUT = 1e-17  # z0^N: share of upsilon the orbit points past N may carry
SWEEP_RTOL = 2.0**-60  # alpha_u^-D: share of the frozen-tail start left in mu_0..mu_N
KOENIGS_RTOL = 2.0**-60  # the tail series stops once two terms in a row fall below this share of it
KOENIGS_MAX_TERMS = 64
KOENIGS_MAX_STEPS = 10_000  # exact coupling steps the tail may take before its series converges
SEMIGROUP_SHIFTS = (1, 2, 3)


@dataclass(frozen=True)
class EigenData:
    """Unstable eigenvalue and direction of the linearized flow."""

    alpha_u: float
    e_u: BulkVector
    lam_g: float
    jacobian: np.ndarray


@dataclass(frozen=True)
class KoenigsResult:
    value: BulkVector
    n_used: int
    intertwine_residual: float
    quadratic_coeff_estimate: float
    double_iteration_residual: float
    semigroup_residuals: list


def _diff(a: BulkVector, b: BulkVector) -> float:
    return max(abs(a.delta_g - b.delta_g), abs(a.mu - b.mu))


def find_fixed_point(fc: FlowCoefficients, params: ModelParams) -> BulkVector:
    """Exact fixed point of the truncated flow: delta_g = 0 on the invariant
    line, and mu solves mu = lam_mu_free mu - a2 gbar^2 - a3 gbar mu."""
    denom = fc.lam_mu_free - 1.0 - fc.a3 * fc.gbar
    if denom <= 0.0:
        raise DomainError("unstable multiplier too close to 1; fixed-point formula invalid")
    return BulkVector(0.0, fc.a2 * fc.gbar**2 / denom)


def jacobian_at(v: BulkVector, fc: FlowCoefficients) -> np.ndarray:
    """Analytic 2x2 Jacobian of the bulk step at v."""
    g = fc.gbar + v.delta_g
    return np.array(
        [
            [fc.lam_g - 2.0 * fc.a1 * v.delta_g, 0.0],
            [-2.0 * fc.a2 * g - fc.a3 * v.mu, fc.lam_mu_free - fc.a3 * g],
        ]
    )


def unstable_eigenpair(j: np.ndarray) -> EigenData:
    """Eigenpair of a lower triangular Jacobian whose mass entry dominates:
    alpha_u = J[1, 1] with e_u = (0, 1), and lam_g = J[0, 0]."""
    if j[0, 1] != 0.0:
        raise NoGapError("Jacobian is not lower triangular")
    if abs(j[1, 1]) <= abs(j[0, 0]):
        raise NoGapError("mass eigenvalue does not dominate; no unstable direction (0, 1)")
    return EigenData(
        alpha_u=float(j[1, 1]), e_u=BulkVector(0.0, 1.0), lam_g=float(j[0, 0]), jacobian=j.copy()
    )


# ---------------------------------------------------------------------------
# stable manifold: sequence solution and the Koenigs tail of the coupling orbit


@dataclass(frozen=True, eq=False)
class ManifoldOrbit:
    """Orbit on the stable manifold: dg[n] and mu[n] for n = 0..settle_index,
    the stored depth M.  Past M the orbit is reached only through the
    Koenigs tail of `mass_products`, unless it has settled: its last stored
    point is the fixed point itself, where it stays."""

    dg: np.ndarray
    mu: np.ndarray
    v_star: BulkVector
    settle_index: int

    @property
    def settled(self) -> bool:
        return self.dg[-1] == 0.0 and self.mu[-1] == self.v_star.mu

    def point(self, n: int) -> BulkVector:
        if n <= self.settle_index:
            return BulkVector(float(self.dg[n]), float(self.mu[n]))
        if self.settled:
            return self.v_star
        raise IndexError(f"orbit point {n} lies past the stored depth {self.settle_index}")

    @property
    def mu0(self) -> float:
        return self.point(0).mu


def _sweep_depth(alpha_u: float, L: float) -> int:
    """M = N + D with z0^N <= UPSILON_CUT, z0 = alpha_u / L^3, so the
    upsilon terms past N are negligible, and alpha_u^-D <= SWEEP_RTOL, so the
    frozen-tail start of the backward mass sweep cannot reach mu_0..mu_N."""
    n = math.ceil(math.log(UPSILON_CUT) / math.log(alpha_u / L**3))
    d = math.ceil(math.log(SWEEP_RTOL) / -math.log(alpha_u))
    return n + d


def _require_in_radius(delta_g0: float, fc: FlowCoefficients) -> None:
    if not abs(delta_g0) <= MANIFOLD_RADIUS * fc.gbar:  # NaN lies outside too
        raise ManifoldRadiusError(
            f"|g - gbar| = {abs(delta_g0):.3e} outside radius {MANIFOLD_RADIUS * fc.gbar:.3e}"
        )


def stable_orbit(g: float, fc: FlowCoefficients, params: ModelParams) -> ManifoldOrbit:
    """Critical trajectory above the coupling g, by two direct sweeps over
    the depth M of `_sweep_depth`, at most 80 steps for p <= 11, l <= 3.

    The coupling component runs forward from its boundary value; the mass
    component, linear once the couplings are known, runs backward from the
    frozen fixed-point tail at depth M, so the solution cannot drift off
    the manifold the way a forward orbit does.  What lies past M enters
    only kappa, which `mass_products` takes from the Koenigs series of the
    coupling orbit.  A seed at the fixed point is the settled orbit of
    depth 0.
    """
    delta_g0 = g - fc.gbar
    _require_in_radius(delta_g0, fc)
    if abs(fc.lam_g) >= 1.0:
        raise DomainError("coupling multiplier not contracting; eps too large")
    v_star = find_fixed_point(fc, params)
    if delta_g0 == 0.0:
        return ManifoldOrbit(dg=np.zeros(1), mu=np.array([v_star.mu]), v_star=v_star, settle_index=0)
    depth = _sweep_depth(fc.lam_mu_free - fc.a3 * fc.gbar, float(params.L))
    dg = [float(delta_g0)]
    for _ in range(depth):
        dg.append(fc.lam_g * dg[-1] - fc.a1 * dg[-1] ** 2)
    gs = (fc.gbar + np.array(dg)).tolist()
    mu = [fc.a2 * gs[-1] ** 2 / (fc.lam_mu_free - 1.0 - fc.a3 * gs[-1])]
    for g_n in reversed(gs[:-1]):
        mu.append((mu[-1] + fc.a2 * g_n**2) / (fc.lam_mu_free - fc.a3 * g_n))
    return ManifoldOrbit(dg=np.array(dg), mu=np.array(mu[::-1]), v_star=v_star, settle_index=depth)


def critical_mass(g: float, fc: FlowCoefficients, params: ModelParams, method: str = "sequence") -> float:
    """Mass on the stable manifold above the coupling g.

    sequence: boundary value of the solved critical trajectory.
    bisection: bisect the starting mass on the orbit escape criterion.
    """
    delta_g0 = g - fc.gbar
    _require_in_radius(delta_g0, fc)
    if method == "sequence":
        return stable_orbit(g, fc, params).mu0
    if method == "bisection":
        return _critical_mass_bisection(delta_g0, fc, params)
    raise DomainError(f"unknown method {method!r}")


def _critical_mass_bisection(delta_g0: float, fc: FlowCoefficients, params: ModelParams) -> float:
    """Bisect the starting mass on the escape side of its orbit.

    The coupling orbit is swept once, lazily and in doubling chunks, up to
    where it freezes or fails the BLOWUP_GUARD test.  Each escape test then
    iterates the mass alone, with the float operations of `bulk_step` in its
    order, so the result and the BlowUpError guards, raised at the same
    step, are those of stepping `bulk_step` itself.
    """
    guard = ESCAPE_GUARD_FACTOR * fc.gbar
    lam_mu, cut = fc.lam_mu_free, min(guard, BLOWUP_GUARD)
    steps = []  # (delta_g_n, a2 g_n^2, a3 g_n) while the coupling still moves
    dg = delta_g0  # delta_g at step len(steps), the first one not in steps
    frozen = None  # (a2 g^2, a3 g) at every step from len(steps) on, once delta_g stays put

    def sweep():
        nonlocal dg, frozen
        for _ in range(min(len(steps) + 16, ESCAPE_MAX_STEPS - len(steps))):
            if not abs(dg) <= BLOWUP_GUARD:  # NaN fails too
                return
            g = fc.gbar + dg
            nxt = fc.lam_g * dg - fc.a1 * dg**2
            if nxt == dg:
                frozen = (fc.a2 * g * g, fc.a3 * g)
                return
            steps.append((dg, fc.a2 * g * g, fc.a3 * g))
            dg = nxt

    def outside(dg: float, mu: float) -> int:
        # mu has left [-cut, cut], or the coupling dg fails its guard: escape or blow up
        if abs(mu) > guard:
            return 1 if mu > 0 else -1
        raise BlowUpError(f"couplings {dg}, {mu} outside guard {BLOWUP_GUARD}")

    def escape_side(mu: float) -> int:
        # 0 marks a float-exact manifold point whose orbit never escapes
        lam, lo, hi = lam_mu, -cut, cut  # locals, not closure cells, in the loops
        n = 0
        while True:
            for dg_n, a, b in islice(steps, n, None) if n else steps:  # the list itself from step 0: islice costs per item
                if not lo <= mu <= hi:
                    return outside(dg_n, mu)
                mu = lam * mu - a - b * mu
            n = len(steps)
            if n == ESCAPE_MAX_STEPS or frozen is not None:
                break
            if not abs(dg) <= BLOWUP_GUARD:
                return outside(dg, mu)
            sweep()
        for a, b in repeat(frozen, ESCAPE_MAX_STEPS - n):  # none unless the coupling froze
            if not lo <= mu <= hi:
                return outside(dg, mu)
            nxt = lam * mu - a - b * mu
            if nxt == mu:
                return 0
            mu = nxt
        return 0

    lo, hi = -10.0 * fc.gbar, 10.0 * fc.gbar
    side_lo, side_hi = escape_side(lo), escape_side(hi)
    if side_lo == side_hi or side_lo == 0 or side_hi == 0:
        raise EscapeAmbiguousError("initial bracket does not straddle the stable manifold")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        side = escape_side(mid)
        if side == side_lo:
            lo = mid
        else:
            # non-escaping midpoints sit on the manifold to float accuracy
            hi = mid
    return 0.5 * (lo + hi)


def orbit_for_seed(v: BulkVector, fc: FlowCoefficients, params: ModelParams) -> ManifoldOrbit:
    """Shadowed orbit through a seed, verifying it lies on the manifold.

    The manifold is the graph of the critical mass over the coupling; a
    seed whose mass disagrees beyond MEMBERSHIP_ATOL is rejected.
    """
    orbit = stable_orbit(fc.gbar + v.delta_g, fc, params)
    if abs(v.mu - orbit.mu0) > MEMBERSHIP_ATOL * max(1.0, abs(orbit.mu0)):
        raise OffManifoldError(
            f"seed mass {v.mu!r} differs from the manifold value {orbit.mu0!r}"
        )
    return orbit


# ---------------------------------------------------------------------------
# partial linearization


def _psi_stage(v: BulkVector, w: BulkVector, alpha_u: float, n: int, fc, params) -> BulkVector:
    scale = alpha_u**-n
    cur = BulkVector(v.delta_g + scale * w.delta_g, v.mu + scale * w.mu)
    for _ in range(n):
        cur, _ = bulk_step(cur, fc, params)
    return cur


def psi_fixed_seed(
    w: BulkVector,
    fc: FlowCoefficients,
    params: ModelParams,
    v_star: BulkVector,
    alpha_u: float | None = None,
):
    """Defining double iteration seeded at the fixed point.

    Successive stages are compared in the Cauchy sense; once rounding of
    the fixed point starts re-amplifying (stage differences grow instead of
    shrinking), or a stage leaves the BLOWUP_GUARD box, the best stage is
    returned.  Returns (value, n_used, achieved_difference).
    """
    if alpha_u is None:
        alpha_u = unstable_eigenpair(jacobian_at(v_star, fc)).alpha_u
    prev = None
    best = None
    best_diff = np.inf
    best_n = 0
    grow = 0
    for n in range(PSI_MAX_STAGES):
        try:
            cur = _psi_stage(v_star, w, alpha_u, n, fc, params)
        except BlowUpError:
            if best is None:
                raise
            return best, best_n, best_diff
        if prev is not None:
            d = _diff(cur, prev)
            if d < PSI_TOL:
                return cur, n, d
            if d < best_diff:
                best, best_diff, best_n = cur, d, n
                grow = 0
            elif d > 10.0 * best_diff:
                grow += 1
                if grow >= 3:
                    return best, best_n, best_diff
        prev = cur
    raise ConvergenceError(f"no Cauchy convergence within {PSI_MAX_STAGES} stages")


def transport_along(
    orbit: ManifoldOrbit, w: BulkVector, fc: FlowCoefficients, alpha_u: float, q: int
) -> BulkVector:
    """alpha_u^-q times the q-step chained Jacobian along the orbit, applied
    to w, one float step of the lower triangular `jacobian_at` at a time."""
    y_g, y_mu = w.delta_g, w.mu
    for v in map(orbit.point, range(q)):
        g = fc.gbar + v.delta_g
        j10, j11 = -2.0 * fc.a2 * g - fc.a3 * v.mu, fc.lam_mu_free - fc.a3 * g
        y_g, y_mu = (fc.lam_g - 2.0 * fc.a1 * v.delta_g) * y_g / alpha_u, (j10 * y_g + j11 * y_mu) / alpha_u
    return BulkVector(y_g, y_mu)


def koenigs_value(
    v: BulkVector,
    w: BulkVector,
    fc: FlowCoefficients,
    params: ModelParams,
    orbit: ManifoldOrbit | None = None,
    alpha_u: float | None = None,
):
    """Conjugating map psi(v, w) = v* + (0, kappa) in closed form, with
    kappa = ell . w the `t_infinity` limit of w along the orbit through v:
    at the fixed point the double iteration multiplies a mass deviation by
    exactly alpha_u at each step.  Returns (value, row ell)."""
    if orbit is None:
        orbit = orbit_for_seed(v, fc, params)
    _, kappa, row = t_infinity(v, w, fc, params, orbit=orbit, alpha_u=alpha_u)
    return BulkVector(orbit.v_star.delta_g, orbit.v_star.mu + kappa), row


def koenigs_psi(v: BulkVector, w: BulkVector, fc: FlowCoefficients, params: ModelParams) -> KoenigsResult:
    """Conjugating map at (v, w) with its checks, from one orbit, one
    eigenpair and the row ell at v.

    The values at w, w / alpha_u and w / 2 follow from the row by
    linearity.  It is checked by one `bulk_step` of psi(v, w / alpha_u)
    (intertwining), by the rows at later orbit points (`semigroup_residuals`),
    and by the double iteration of (0, ell . w), which shares no code with
    it and whose stage count is n_used.
    """
    orbit = orbit_for_seed(v, fc, params)
    alpha = unstable_eigenpair(jacobian_at(orbit.v_star, fc)).alpha_u
    value, row = koenigs_value(v, w, fc, params, orbit=orbit, alpha_u=alpha)
    base = orbit.v_star
    shrunk = BulkVector(base.delta_g, base.mu + _apply(row, BulkVector(w.delta_g / alpha, w.mu / alpha)))
    half_mu = base.mu + _apply(row, BulkVector(0.5 * w.delta_g, 0.5 * w.mu))
    wnorm = max(abs(w.delta_g), abs(w.mu))
    quad = 2.0 * abs(value.mu - 2.0 * half_mu + base.mu) / wnorm**2 if wnorm > 0 else 0.0
    fixed, n_used, _ = psi_fixed_seed(BulkVector(0.0, _apply(row, w)), fc, params, v_star=base, alpha_u=alpha)
    return KoenigsResult(
        value=value,
        n_used=n_used,
        intertwine_residual=_diff(bulk_step(shrunk, fc, params)[0], value),
        quadratic_coeff_estimate=quad,
        double_iteration_residual=_diff(fixed, value),
        semigroup_residuals=semigroup_residuals(orbit, w, fc, params, alpha, row),
    )


def _one_minus_power(lam: float, k: int) -> float:
    """1 - lam^k, without cancellation for lam near +1 or -1."""
    if lam == 0.0:
        return 1.0
    m = math.expm1(k * math.log(abs(lam)))  # |lam|^k - 1
    return -m if lam > 0.0 or k % 2 == 0 else 2.0 + m


def kappa_tail_log(x: float, fc: FlowCoefficients, alpha_u: float) -> float:
    """log prod_{n>=0} (1 - c X_n) over the coupling orbit X_0 = x,
    X_{n+1} = f(X_n) = lam_g X_n - q X_n^2 in X = delta_g / gbar, with
    q = a1 gbar (= 1 - lam_g) and c = a3 gbar / alpha_u.

    The sum T(x) solves T(x) - T(f(x)) = log(1 - c x).  The composition
    matrix of f is triangular with diagonal lam_g^k, so the coefficients of
    T = sum_k t_k x^k follow one by one:
    t_k (1 - lam_g^k) = -c^k / k + sum_{k/2 <= j < k} t_j C(j, k-j) lam_g^(2j-k) (-q)^(k-j).
    This is the orbit sum in the Koenigs coordinate y = h(x), expanded in x:
    it needs no inverse Koenigs function and holds at lam_g = 0 too.  The
    series stops once two terms in a row fall below KOENIGS_RTOL of the sum,
    and is accepted only if it satisfies its functional equation at x to
    rounding; otherwise one exact coupling step moves x closer to 0.
    """
    lam, q, c = fc.lam_g, fc.a1 * fc.gbar, fc.a3 * fc.gbar / alpha_u
    t = [0.0]
    exact = 0.0  # the logs of the exact steps taken
    for _ in range(KOENIGS_MAX_STEPS):
        if x == 0.0:
            return exact
        total = size = 0.0
        small = 0
        for k in range(1, KOENIGS_MAX_TERMS + 1):
            if k == len(t):
                s = -(c**k) / k
                for j in range((k + 1) // 2, k):
                    s += t[j] * math.comb(j, k - j) * lam ** (2 * j - k) * (-q) ** (k - j)
                t.append(s / _one_minus_power(lam, k))
            term = t[k] * x**k
            total += term
            size += abs(term)
            small = small + 1 if abs(term) <= KOENIGS_RTOL * abs(total) else 0
            if small == 2:
                fx = lam * x - q * x * x
                image = sum(t[j] * fx**j for j in range(1, k + 1))
                residual = math.log1p(-c * x) + image - total
                if abs(residual) <= 8.0 * k * np.finfo(float).eps * (size + abs(image)):
                    return exact + total
                break
        exact += math.log1p(-c * x)
        x = lam * x - q * x * x
    raise DomainError(f"Koenigs series of the coupling tail not converged within {KOENIGS_MAX_STEPS} steps")


def mass_products(orbit: ManifoldOrbit, fc: FlowCoefficients, alpha_u: float) -> tuple:
    """(P, kappa): alpha_u^-n DF^n E_PHI2 = (0, P_n), with
    P_n = prod_{j<n} (lam_mu_free - a3 g_j) / alpha_u for n = 0..M, the
    stored depth, and kappa = P_inf = P_M exp(T), T from `kappa_tail_log`
    at the orbit's last coupling.

    With alpha_u = lam_mu_free - a3 gbar the factors are 1 - a3 dg_j / alpha_u,
    taken as a running sum of log1p: built as written they are each about
    an ulp of alpha_u off.
    """
    logs = np.append(0.0, np.cumsum(np.log1p(-fc.a3 * orbit.dg[:-1] / alpha_u)))
    tail = kappa_tail_log(float(orbit.dg[-1]) / fc.gbar, fc, alpha_u)
    return np.exp(logs), math.exp(float(logs[-1]) + tail)


def _apply(row: tuple, w: BulkVector) -> float:
    """kappa = K w_mu + E w_g for the row (E, K) of `t_infinity`."""
    e, k = row
    return k * w.mu if w.delta_g == 0.0 else k * w.mu + e * w.delta_g


def t_infinity(
    v: BulkVector,
    w: BulkVector,
    fc: FlowCoefficients,
    params: ModelParams,
    orbit: ManifoldOrbit | None = None,
    alpha_u: float | None = None,
) -> tuple:
    """Limit of alpha_u^-n DF^n(v) w along the orbit of v.

    Returns (limit vector, kappa, row): the limit is kappa (0, 1), and the
    row (E, K) gives kappa = K w_mu + E w_g.  With P and P_inf from
    `mass_products`, c_n = J_10(v_n) / alpha_u and
    D_n = prod_{j<n} J_00(v_j) / alpha_u, K = P_inf and
    E = sum_n c_n D_n P_inf / P_{n+1}, one float loop.  Past the stored
    depth M the terms shrink by lam_g / alpha_u each and are summed as a
    geometric tail from term M, where D_M, of order (lam_g / alpha_u)^M, is
    already far below the rounding of the sum.  E is None, and not summed,
    for a w with no coupling part.
    """
    if orbit is None:
        orbit = orbit_for_seed(v, fc, params)
    if alpha_u is None:
        alpha_u = unstable_eigenpair(jacobian_at(orbit.v_star, fc)).alpha_u
    products, p_inf = mass_products(orbit, fc, alpha_u)
    e = None
    if w.delta_g != 0.0:
        weights = [p_inf / p for p in products[1:].tolist()] + [1.0 / (1.0 - fc.lam_g / alpha_u)]
        e, d = 0.0, 1.0
        for dg, mu, weight in zip(orbit.dg.tolist(), orbit.mu.tolist(), weights):
            e += (-2.0 * fc.a2 * (fc.gbar + dg) - fc.a3 * mu) / alpha_u * d * weight
            d *= (fc.lam_g - 2.0 * fc.a1 * dg) / alpha_u
    kappa = _apply((e, p_inf), w)
    return BulkVector(0.0, kappa), kappa, (e, p_inf)


def semigroup_residuals(orbit: ManifoldOrbit, w: BulkVector, fc, params, alpha_u: float, row: tuple) -> list:
    """Residuals of the conjugation semigroup identity
    psi(v_0, w) = psi(v_q, alpha_u^-q DF^q(v_0) w) at SEMIGROUP_SHIFTS: the
    `t_infinity` row at each distinct orbit start, applied to the
    `transport_along` image of w, against the row at v_0 applied to w."""
    rows = {0: row}
    out = []
    for q in SEMIGROUP_SHIFTS:
        k = min(q, orbit.settle_index)  # a settled orbit stays at its last point, where one row serves
        if k not in rows:
            shifted = ManifoldOrbit(orbit.dg[k:], orbit.mu[k:], orbit.v_star, orbit.settle_index - k)
            rows[k] = t_infinity(orbit.point(k), w, fc, params, orbit=shifted, alpha_u=alpha_u)[2]
        out.append(abs(_apply(rows[k], transport_along(orbit, w, fc, alpha_u, q)) - _apply(row, w)))
    return out
