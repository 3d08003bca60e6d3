"""Hamiltonian families, their slice geometry and perturbation data.

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
  component, with c > 16 so the two saddle traces have opposite signs;
  ``c`` belongs to the perturbation (``PerturbationSpec.c``).

Everything that tells the families apart lives here.  Each level set
H = t solves to branch^2(u) = t/u + r(u) over the slice axis u (x for
the normal form, y for the appendix family), with the quadratic r of
``HamiltonianSpec.slice_r``.  That quadratic and the annulus's center
are all ``slice_span`` reads to place the ovals on the axis: they run
out from the center to the root of r beyond it, the loop end.
``section_ends`` puts each annulus's transversal section on the same
axis.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Family(enum.Enum):
    NORMAL_FORM = "normal_form"
    APPENDIX_ELLIPSE = "appendix_ellipse"


class Annulus(enum.Enum):
    """Period annulus tag.

    SIGMA_PLUS is the annulus bounded above by the loop at energy 0 and
    below by the primary center (right center for the normal form, upper
    center for the appendix family).  SIGMA_MINUS is the normal-form
    annulus around the second center, energies (0, t1).  Either holds
    the energies strictly between its center's (``CriticalData.center_of``)
    and the loop's.
    """

    SIGMA_PLUS = "plus"
    SIGMA_MINUS = "minus"


def require_finite(what: str, *values: float) -> None:
    """Reject nan and infinite input: a ValueError naming ``what``."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite, got {values}")


class OvalRangeError(ValueError):
    """Energy or annulus outside what the spec carries."""


@dataclass(frozen=True)
class HamiltonianSpec:
    """Which family, plus its parameter."""

    family: Family
    a: float = 1.0

    def __post_init__(self):
        require_finite("parameter a", self.a)

    @property
    def two_saddle_loop(self) -> bool:
        """True when a monodromic two-saddle loop exists at energy 0."""
        if self.family is Family.APPENDIX_ELLIPSE:
            return True
        return -1.0 < self.a < 2.0

    @property
    def slice_axis(self) -> str:
        """Coordinate the ovals are graphs over: 'x' (normal form) or
        'y' (appendix); the sections lie on the same axis."""
        return "x" if self.family is Family.NORMAL_FORM else "y"

    def slice_r(self) -> tuple[float, float, float]:
        """(r0, r1, r2) of r(u) = r2*u^2 + r1*u + r0, where every oval
        H = t solves branch^2(u) = t/u + r(u) on the slice axis."""
        if self.family is Family.NORMAL_FORM:
            return -3.0 * (self.a - 2.0), 3.0 * (self.a - 1.0), -self.a
        return 1.0, 0.0, -1.0 / 12.0

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


# the appendix family has no parameter: this is its one spec
APPENDIX_SPEC = HamiltonianSpec(family=Family.APPENDIX_ELLIPSE)


@dataclass(frozen=True)
class CriticalPoint:
    xy: tuple[float, float]
    energy: float


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

    def center_of(self, annulus: Annulus) -> CriticalPoint:
        """The center that the annulus surrounds."""
        center = self.center0 if annulus is Annulus.SIGMA_PLUS else self.center1
        if center is None:
            raise OvalRangeError("SigmaMinus exists only for the normal form "
                                 "with a in (0, 2)")
        return center


def critical_data(spec: HamiltonianSpec) -> CriticalData:
    if spec.family is Family.APPENDIX_ELLIPSE:
        center = CriticalPoint((0.0, 2.0), -4.0 / 3.0)
        saddles = (CriticalPoint((-1.0, 0.0), 0.0),
                   CriticalPoint((1.0, 0.0), 0.0))
        return CriticalData(center, saddles, None)

    a = spec.a
    center0 = CriticalPoint((1.0, 0.0), a - 3.0)
    if a < 2.0:
        ys = math.sqrt(3.0 * (2.0 - a))
        saddles = (CriticalPoint((0.0, -ys), 0.0),
                   CriticalPoint((0.0, ys), 0.0))
    else:
        saddles = ()  # complex pair
    center1 = None
    if 0.0 < a < 2.0:
        xc = (a - 2.0) / a
        t1 = (a + 1.0) * (a - 2.0) ** 2 / a**2
        center1 = CriticalPoint((xc, 0.0), t1)
    return CriticalData(center0, saddles, center1)


def slice_span(spec: HamiltonianSpec, annulus: Annulus) -> tuple[float, float]:
    """(u_c, u_r) on the slice axis: the center the annulus surrounds and
    the root of r (``HamiltonianSpec.slice_r``) nearest it on the far
    side from u = 0.  Every oval of the annulus crosses the axis once
    between 0 and u_c and once between u_c and u_r."""
    center = critical_data(spec).center_of(annulus)
    if annulus is Annulus.SIGMA_PLUS and not spec.two_saddle_loop:
        raise OvalRangeError(f"no two-saddle loop for a={spec.a}; "
                             "SigmaPlus undefined")
    uc = center.xy[0 if spec.slice_axis == "x" else 1]
    # r(u_c + v) = r2*v^2 + s1*v + s0, whose roots q/r2 and s0/q are
    # free of cancellation (s0/q alone when r2 == 0)
    r0, r1, r2 = spec.slice_r()
    s0, s1 = (r2 * uc + r1) * uc + r0, 2.0 * r2 * uc + r1
    disc = s1 * s1 - 4.0 * r2 * s0
    q = -0.5 * (s1 + math.copysign(math.sqrt(max(disc, 0.0)), s1))
    vs = (s0 / q, q / r2) if r2 != 0.0 else (s0 / q,)
    beyond = [v for v in vs if v * uc > 0.0]
    if disc < 0.0 or not beyond:
        raise OvalRangeError(f"r(u) has no real root beyond u_c={uc} "
                             f"for a={spec.a}")
    return uc, uc + min(beyond, key=abs)


def section_ends(spec: HamiltonianSpec, annulus: Annulus) -> tuple[float, float]:
    """(center end, loop end) of the annulus's transversal section on the
    slice axis.  Normal form: from the center out to the root of r on
    y = 0, so SigmaPlus is {(x, 0): 1 <= x < x1} and SigmaMinus
    {(x, 0): x_left < x <= (a-2)/a}.  Appendix: {(0, y): 0 < y <= 2},
    from the center down to the lower connection."""
    center, root = slice_span(spec, annulus)
    return center, 0.0 if spec.family is Family.APPENDIX_ELLIPSE else root


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
        require_finite("alpha, beta, gamma", self.alpha, self.beta, self.gamma)
        if self.order_k < 1:
            raise ValueError(f"order_k must be >= 1, got {self.order_k}")
        if self.order_k == 1 and self.gamma != 0.0:
            raise ValueError("gamma must be 0 when order_k == 1")

    @property
    def all_zero(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.0 and self.gamma == 0.0


@dataclass(frozen=True)
class PerturbationSpec:
    """(epsilon, mu1, mu2, c) of the appendix family perturbation
    epsilon*((16 + c*x - pi*sqrt(3)*y)*y + mu1 + mu2*y); c > 16 makes
    the two saddle traces differ in sign."""

    epsilon: float
    mu1: float = 0.0
    mu2: float = 0.0
    c: float = 17.0

    def __post_init__(self):
        require_finite("epsilon, mu1, mu2", self.epsilon, self.mu1, self.mu2)
        if not (math.isfinite(self.c) and self.c > 16.0):
            raise ValueError(f"appendix perturbation requires c > 16, "
                             f"got c={self.c}")
