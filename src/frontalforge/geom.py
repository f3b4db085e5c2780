"""Rigid motions of 3-space and the distinguished frame at a singular point."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Isometry", "Plane", "Line", "GermFrame", "make_reflection",
    "make_rotation180", "LABEL_TO_CASE", "GeomError",
]

I3 = np.eye(3)


class GeomError(Exception):
    pass


def _unit(v, what="vector"):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise GeomError(f"cannot normalize a vanishing {what}")
    return v / n


@dataclass(frozen=True)
class Plane:
    anchor: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))
        object.__setattr__(self, "normal", _unit(self.normal, "plane normal"))


@dataclass(frozen=True)
class Line:
    anchor: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))
        object.__setattr__(self, "direction", _unit(self.direction, "line direction"))


@dataclass(frozen=True)
class Isometry:
    """Rigid motion x -> Q x + b with orthogonal Q."""

    Q: np.ndarray
    b: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if Q.shape != (3, 3) or b.shape != (3,):
            raise GeomError("isometry needs a 3x3 matrix and a 3-vector")
        if np.max(np.abs(Q @ Q.T - I3)) > 1e-10:
            raise GeomError("matrix is not orthogonal")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.Q.T + self.b

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: x -> self(other(x))."""
        return Isometry(self.Q @ other.Q, self.Q @ other.b + self.b)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.Q))

    def to_json(self):
        """12 reals: row-major Q then b."""
        return [float(x) for x in self.Q.reshape(-1)] + [float(x) for x in self.b]

    @classmethod
    def from_json(cls, data) -> "Isometry":
        arr = np.asarray(data, dtype=float)
        if arr.shape != (12,):
            raise GeomError("isometry JSON payload must hold 12 reals")
        return cls(arr[:9].reshape(3, 3), arr[9:])

    @classmethod
    def identity(cls) -> "Isometry":
        return cls(I3.copy(), np.zeros(3))


def make_reflection(plane: Plane) -> Isometry:
    n = plane.normal
    Q = I3 - 2.0 * np.outer(n, n)
    b = 2.0 * float(plane.anchor @ n) * n
    return Isometry(Q, b)


def make_rotation180(line: Line) -> Isometry:
    d = line.direction
    Q = 2.0 * np.outer(d, d) - I3
    b = line.anchor - Q @ line.anchor
    return Isometry(Q, b)


@dataclass(frozen=True)
class GermFrame:
    """Orthonormal right-handed frame (tangent, normal, conormal) at a point.

    tangent is the unit singular-image tangent, normal the unit limiting
    normal, conormal = tangent x normal.  cusp_direction, when set, points
    into the image of the sectional cusp (a positive multiple of +-conormal).
    """

    origin: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    cusp_direction: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        t = _unit(self.tangent, "tangent")
        nu = _unit(self.normal, "normal")
        if abs(t @ nu) > 1e-8:
            raise GeomError("frame tangent and normal are not orthogonal")
        object.__setattr__(self, "tangent", t)
        object.__setattr__(self, "normal", nu)
        if self.cusp_direction is not None:
            object.__setattr__(self, "cusp_direction",
                               _unit(self.cusp_direction, "cusp direction"))

    @property
    def conormal(self) -> np.ndarray:
        return np.cross(self.tangent, self.normal)

    # the four Theorem-style candidate fixtures at this frame
    def plane_pi0(self) -> Plane:
        """Limiting tangent plane: through the origin, orthogonal to nu."""
        return Plane(self.origin, self.normal)

    def plane_pi1(self) -> Plane:
        """Normal plane of the singular image: orthogonal to the tangent."""
        return Plane(self.origin, self.tangent)

    def plane_pi2(self) -> Plane:
        """span{nu, tangent}: orthogonal to the conormal."""
        return Plane(self.origin, self.conormal)

    def line_l2(self) -> Line:
        """Co-normal line Pi0 meet Pi1."""
        return Line(self.origin, self.conormal)

    def candidate_isometries(self):
        """label -> candidate symmetry, in deterministic order."""
        return {
            "refl_Pi0": make_reflection(self.plane_pi0()),
            "refl_Pi1": make_reflection(self.plane_pi1()),
            "refl_Pi2": make_reflection(self.plane_pi2()),
            "rot180_l2": make_rotation180(self.line_l2()),
        }


LABEL_TO_CASE = {
    "refl_Pi0": "i",
    "refl_Pi1": "ii",
    "refl_Pi2": "iii",
    "rot180_l2": "iv",
}
