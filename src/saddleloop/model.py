"""Hamiltonian families and perturbation data.

Two quadratic Hamiltonian vector fields are supported, both carrying a
two-saddle loop on the zero level set:

* ``NORMAL_FORM``: H(x, y) = x*(y^2 + a*x^2 - 3*(a-1)*x + 3*(a-2)),
  one real parameter ``a``.  For a in (-1, 2) the center (1, 0) is
  surrounded by a loop through the saddles (0, +-sqrt(3*(2-a))); for
  a in (0, 2) a second center ((a-2)/a, 0) sits left of the y-axis.
  Series constructions downstream additionally reject a in {0, 2}
  (the closed-form series coefficients divide by a and (a-2)); global statements about
  the whole family also exclude a in {-1, 3}.

* ``APPENDIX_ELLIPSE``: H(x, y) = y*(x^2 + y^2/12 - 1), perturbed by
  epsilon * ((16 + c*x - pi*sqrt(3)*y)*y + mu1 + mu2*y) in the ydot
  component, with c > 16 so the two saddle traces have opposite signs.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

SQRT3 = math.sqrt(3.0)


class Family(enum.Enum):
    NORMAL_FORM = "normal_form"
    APPENDIX_ELLIPSE = "appendix_ellipse"


class Annulus(enum.Enum):
    """Period annulus tag.

    SIGMA_PLUS is the annulus bounded above by the loop at energy 0 and
    below by the primary center (right center for the normal form, upper
    center for the appendix family).  SIGMA_MINUS is the normal-form
    annulus around the second center, energies (0, t1].
    """

    SIGMA_PLUS = "plus"
    SIGMA_MINUS = "minus"


class HamiltonianError(ValueError):
    pass


@dataclass(frozen=True)
class HamiltonianSpec:
    """Which family, plus its parameter."""

    family: Family
    a: float = 1.0
    c: float = 17.0

    def __post_init__(self):
        if self.family is Family.APPENDIX_ELLIPSE:
            if not self.c > 16.0:
                raise HamiltonianError(
                    f"appendix family requires c > 16, got c={self.c}"
                )
        if not math.isfinite(self.a) or not math.isfinite(self.c):
            raise HamiltonianError("parameters must be finite")

    @property
    def two_saddle_loop(self) -> bool:
        """True when a monodromic two-saddle loop exists at energy 0."""
        if self.family is Family.APPENDIX_ELLIPSE:
            return True
        return -1.0 < self.a < 2.0

    def eval_H(self, x: float, y: float) -> float:
        # written out rather than evaluated from coefficients: its bits
        # fix every section chart and census grid
        if self.family is Family.NORMAL_FORM:
            a = self.a
            return x * (y * y + a * x * x - 3.0 * (a - 1.0) * x + 3.0 * (a - 2.0))
        return y * (x * x + y * y / 12.0 - 1.0)

    def grad_H_coeffs(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(H_x, H_y) as quadratic coefficient tuples ordered as
        (1, x, y, x^2, x*y, y^2)."""
        if self.family is Family.NORMAL_FORM:
            a = self.a
            return ((3.0 * (a - 2.0), -6.0 * (a - 1.0), 0.0, 3.0 * a, 0.0, 1.0),
                    (0.0, 0.0, 0.0, 0.0, 2.0, 0.0))
        return ((0.0, 0.0, 0.0, 0.0, 2.0, 0.0),
                (-1.0, 0.0, 0.0, 1.0, 0.0, 0.25))


@dataclass(frozen=True)
class CriticalPoint:
    xy: tuple[float, float]
    energy: float
    kind: str  # "center" | "saddle"


@dataclass(frozen=True)
class CriticalData:
    """Critical points and their energies for one spec.

    ``saddles`` is empty when the saddle pair is complex (normal form,
    a >= 2).  ``center1`` is present only when the second center exists
    (normal form, a in (0, 2)).
    """

    center0: CriticalPoint
    saddles: tuple[CriticalPoint, ...]
    center1: CriticalPoint | None
    two_saddle_loop: bool
    t_saddle: float = 0.0


def critical_data(spec: HamiltonianSpec) -> CriticalData:
    if spec.family is Family.APPENDIX_ELLIPSE:
        center = CriticalPoint((0.0, 2.0), -4.0 / 3.0, "center")
        saddles = (
            CriticalPoint((-1.0, 0.0), 0.0, "saddle"),
            CriticalPoint((1.0, 0.0), 0.0, "saddle"),
        )
        return CriticalData(center, saddles, None, True)

    a = spec.a
    center0 = CriticalPoint((1.0, 0.0), a - 3.0, "center")
    if a < 2.0:
        ys = math.sqrt(3.0 * (2.0 - a))
        saddles = (
            CriticalPoint((0.0, -ys), 0.0, "saddle"),
            CriticalPoint((0.0, ys), 0.0, "saddle"),
        )
    else:
        saddles = ()  # complex pair
    center1 = None
    if 0.0 < a < 2.0:
        xc = (a - 2.0) / a
        t1 = (a + 1.0) * (a - 2.0) ** 2 / a**2
        center1 = CriticalPoint((xc, 0.0), t1, "center")
    return CriticalData(center0, saddles, center1, spec.two_saddle_loop)


@dataclass(frozen=True)
class MelnikovCoeffs:
    """Coefficients of M_k(t) = alpha*J0 + beta*J1 + gamma*J_{-1}.

    ``order_k`` is the order of the first non-vanishing Melnikov
    function; at order one the x^{-1} term cannot occur, so gamma must
    be zero there.
    """

    alpha: float
    beta: float
    gamma: float = 0.0
    order_k: int = 1

    def __post_init__(self):
        if self.order_k < 1:
            raise ValueError(f"order_k must be >= 1, got {self.order_k}")
        if self.order_k == 1 and self.gamma != 0.0:
            raise ValueError("gamma must be 0 when order_k == 1")

    @property
    def all_zero(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.0 and self.gamma == 0.0


@dataclass(frozen=True)
class PerturbationSpec:
    """(epsilon, mu1, mu2) for the appendix family perturbation."""

    epsilon: float
    mu1: float = 0.0
    mu2: float = 0.0


# --- config plumbing ----------------------------------------------------

_FAMILY_NAMES = {
    "normal_form": Family.NORMAL_FORM,
    "appendix_ellipse": Family.APPENDIX_ELLIPSE,
    "appendix": Family.APPENDIX_ELLIPSE,
}


def spec_from_config(cfg: dict) -> HamiltonianSpec:
    """Build a HamiltonianSpec from a JSON-style dict.

    Expected fields: ``family`` plus ``a`` (normal form) or ``c``
    (appendix).  Unknown fields raise, naming the field.
    """
    if "family" not in cfg:
        raise HamiltonianError("config missing required field 'family'")
    name = str(cfg["family"]).lower()
    if name not in _FAMILY_NAMES:
        raise HamiltonianError(f"unknown family {cfg['family']!r}")
    family = _FAMILY_NAMES[name]
    allowed = {"family", "a"} if family is Family.NORMAL_FORM else {"family", "c"}
    extra = set(cfg) - allowed
    if extra:
        raise HamiltonianError(
            f"unexpected config field(s) for {name}: {sorted(extra)}"
        )
    if family is Family.NORMAL_FORM:
        return HamiltonianSpec(family, a=float(cfg.get("a", 1.0)))
    return HamiltonianSpec(family, c=float(cfg.get("c", 17.0)))


def spec_from_json(path: str | Path) -> HamiltonianSpec:
    with open(path) as fh:
        return spec_from_config(json.load(fh))
