"""The one-point closest-point polish, kept as a reference for the batched
solver in the match and symmetry tests."""
import numpy as np


def one_point_closest(germ, domain, target, x0, iters=30):
    """The one-point closest-point polish that `damped_gauss_newton`
    batches: min_x |f(x) - target|, clamped to domain."""
    def jacobian(x, h=1e-6):
        cols = []
        for i in range(len(x)):
            dp = x.copy(); dm = x.copy()
            dp[i] += h; dm[i] -= h
            cols.append((germ(tuple(dp)) - germ(tuple(dm))) / (2 * h))
        return np.stack(cols, axis=1)

    x = np.asarray(x0, float)
    lam = 1e-8
    best = (np.linalg.norm(germ(tuple(x)) - target), x)
    for _ in range(iters):
        r = germ(tuple(x)) - target
        J = jacobian(x)
        try:
            step = np.linalg.solve(J.T @ J + lam * np.eye(len(x)), -J.T @ r)
        except np.linalg.LinAlgError:
            break
        xn = np.array([min(max(x[i] + step[i], domain[i].lo), domain[i].hi)
                       for i in range(len(x))])
        rn = np.linalg.norm(germ(tuple(xn)) - target)
        if rn < best[0]:
            best = (rn, xn)
            x = xn
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e6:
                break
    return best
