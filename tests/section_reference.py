"""The per-sample section solve, kept as a reference for the batched one
in `normalform._solve_sections`."""
import numpy as np

from frontalforge.normalform import NormalFormError, _station


def solve_section(germ, u0: float, fr, vs, tol=1e-12):
    """Newton continuation of (f(u, v) - c(u0)) . e = 0 for u = A(v): one
    scalar Newton per sample, in order of |v|, each seeded from the nearest
    solved sample no farther from v = 0.  Returns A and the section in
    (n, b) coordinates, shapes (nv,) and (nv, 2)."""
    e = fr.e
    base = fr.point
    out_u = np.empty(len(vs))
    out_sigma = np.empty((len(vs), 2))
    order = np.argsort(np.abs(vs), kind="stable")
    guesses = {}
    for idx in order:
        v = vs[idx]
        ukey = min((k for k in guesses if abs(vs[k]) <= abs(v)),
                   key=lambda k: abs(vs[k] - v), default=None)
        u = guesses[ukey] if ukey is not None else u0
        for _ in range(60):
            j = germ.jet((u, v), 1)
            F = float((j.value - base) @ e)
            if abs(F) < tol:
                break
            dF = float(j.partial(1, 0) @ e)
            if abs(dF) < 1e-14:
                raise NormalFormError(
                    f"section continuation stalled at (u={u}, v={v})")
            u -= F / dF
        else:
            raise NormalFormError(
                f"section solve at station u0={u0}, v={v} did not converge "
                f"in 60 Newton steps: |F| = {abs(F):.3e} >= tol {tol:.1e}")
        guesses[idx] = u
        val = germ((u, v)) - base
        out_u[idx] = u
        out_sigma[idx] = (float(val @ fr.n), float(val @ fr.b))
    return out_u, out_sigma


def reference_sections(germ, us, vs, tol=1e-12):
    """Per station of `us`: the frame and theta from the station's jet,
    then A and sigma from `solve_section`.  Returns (thetas, A, sigma) of
    shapes (len(us),), (len(us), len(vs)) and (len(us), len(vs), 2)."""
    thetas, A, sigma = [], [], []
    for u0 in us:
        fr, _, _, theta, _, _ = _station(germ, u0)
        a, s = solve_section(germ, u0, fr, vs, tol)
        thetas.append(theta)
        A.append(a)
        sigma.append(s)
    return np.array(thetas), np.array(A), np.array(sigma)
