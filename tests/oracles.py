"""Reference solvers that share no code with the closed forms they check."""

import numpy as np

from hrg.dynamics import jacobian_at
from hrg.rg import BulkVector, bulk_step


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

