"""The plane-curve normal as a chain of symbolic derivatives, kept as a
reference for the one normal field in the match tests.

At a point where |c'| is at most 1e-12, the normal is the rotated first
derivative c^(k+1), up to the twelfth, longer than 1e-9.  Signs are
continued along 513 nodes of the domain, a node with no normal taking
that of the nearest node with one (the lower on a tie), and anchored at
the right end; a point takes the sign that agrees with its nearest node.
"""
import numpy as np


class DiffChainNormal:
    def __init__(self, map_, domain):
        self.var = map_.variables[0]
        self.dmaps = [map_.diff(self.var)]
        self.ts = domain.grid(513)
        raw = np.array([self.raw(t) for t in self.ts])
        valid = np.flatnonzero(~np.isnan(raw[:, 0]))
        signs = [1.0]
        for dot in np.sum(raw[valid[1:]] * raw[valid[:-1]], axis=1):
            signs.append(-signs[-1] if dot < 0 else signs[-1])
        nus = np.full_like(raw, np.nan)
        nus[valid] = raw[valid] * np.array(signs)[:, None]
        for i in np.flatnonzero(np.isnan(nus[:, 0])):
            nus[i] = nus[valid[np.argmin(np.abs(valid - i))]]
        self.nus = -nus if signs[-1] < 0 else nus

    def raw(self, t):
        """The rotated unit c' at t, or at a cusp the rotated first long
        derivative; NaN where none up to the twelfth is."""
        for k in range(12):
            if k == len(self.dmaps):
                self.dmaps.append(self.dmaps[-1].diff(self.var))
            d = np.asarray(self.dmaps[k]((float(t),)), dtype=float)
            raw = np.array([-d[1], d[0]])
            if np.linalg.norm(raw) > (1e-12 if k == 0 else 1e-9):
                return raw / np.linalg.norm(raw)
        return np.full(2, np.nan)

    def cusp_rule(self, t) -> bool:
        """Whether the normal at t comes from past c'."""
        return not np.linalg.norm(self.dmaps[0]((float(t),))) > 1e-12

    def __call__(self, t):
        """The oriented unit normal at t."""
        i = int(np.argmin(np.abs(self.ts - t)))
        nu = self.raw(t)
        if np.isnan(nu[0]):
            return self.nus[i].copy()
        return -nu if nu @ self.nus[i] < 0 else nu
