"""Reference implementations that tests compare the library against."""

import mpmath
import numpy as np

from starsis.model import ModelParams, StarlikeTopology, as_level_state


def step_level3(d, params: ModelParams, topo: StarlikeTopology) -> np.ndarray:
    """Dedicated 3-level form of the reduced map, written out coordinate by coordinate."""
    if topo.k != 3:
        raise ValueError("step_level3 requires a 3-level topology")
    d = as_level_state(d, topo)
    a, b = params.a, params.b
    n1, n2 = topo.branching
    x, y, z = d[..., 0], d[..., 1], d[..., 2]
    return np.stack(
        [
            1.0 - (1.0 - a * x) * (1.0 - b * y) ** n1,
            1.0 - (1.0 - a * y) * (1.0 - b * x) * (1.0 - b * z) ** n2,
            1.0 - (1.0 - a * z) * (1.0 - b * y),
        ],
        axis=-1,
    )


def fixed_point_mp(a, b, branching, dps=50):
    """Nontrivial fixed point of the level map at dps digits, as float64.

    The map is written in its plain product form, 1 - (1 - a d_m)(...).  From
    the all-ones state it takes 8 map steps, then Newton with a dense LU
    solve until the relative step is below 10^(-dps/2).  Convergence is
    quadratic, so the error then sits at the floor: 10^-dps times the
    condition number (about 1 / epsilon next to the threshold) over d,
    because 1 - q cancels at small d.  At dps = 50 that is below 1e-25 down
    to epsilon = 1e-10, far below float64's 1e-16.  a and b are the given
    doubles, exactly.
    """
    n = [int(v) for v in branching]
    k = len(n) + 1
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def survival(d):
            q = [1 - a * d[m] for m in range(k)]
            for m in range(k - 1):
                q[m] *= (1 - b * d[m + 1]) ** n[m]
                q[m + 1] *= 1 - b * d[m]
            return q

        d = [mpmath.mpf(1)] * k
        for _ in range(8):
            d = [1 - q for q in survival(d)]
        for _ in range(500):
            q = survival(d)
            jac = mpmath.matrix(k, k)
            for m in range(k):
                jac[m, m] = q[m] * a / (1 - a * d[m]) - 1
                if m > 0:
                    jac[m, m - 1] = q[m] * b / (1 - b * d[m - 1])
                if m < k - 1:
                    jac[m, m + 1] = q[m] * n[m] * b / (1 - b * d[m + 1])
            step = mpmath.lu_solve(jac, mpmath.matrix([1 - q[m] - d[m] for m in range(k)]))
            d = [d[m] - step[m] for m in range(k)]
            if max(abs(step[m]) / d[m] for m in range(k)) < mpmath.mpf(10) ** (-dps // 2):
                break
        else:
            raise AssertionError("mpmath Newton did not converge")
        residual = max(abs(1 - q - x) for q, x in zip(survival(d), d))
        assert min(d) > 0 and residual < mpmath.mpf(10) ** (5 - dps)
        return np.array([float(x) for x in d])
