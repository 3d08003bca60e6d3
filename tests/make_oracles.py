"""Regenerate the frozen quadrature references in oracle_values.py.

Every value is computed here with mpmath at 50 digits, entirely
independently of the package quadrature: the ovals are factored by
polynomial root-finding and the integrals evaluated with tanh-sinh
quadrature, which absorbs the square-root endpoint singularities.
Run manually and paste the output; the test suite never executes this
file, so the comparison stays one-directional.

    python3 tests/make_oracles.py
"""

from mpmath import findroot, mp, mpf, sqrt, quad, polyroots, pi

mp.dps = 50


def cubic_roots_normal(a, t):
    """Roots of -a x^3 + 3(a-1) x^2 - 3(a-2) x + t = 0 (real, sorted)."""
    roots = polyroots([-a, 3 * (a - 1), -3 * (a - 2), t])
    reals = sorted(r.real for r in roots if abs(r.imag) < mpf("1e-40"))
    if len(reals) != 3:
        raise ValueError(f"expected 3 real roots, got {roots}")
    return reals


def jk_normal(a, t, k, minus=False):
    """J_k(t) = 2 * integral of x^k sqrt(y^2(x)) over the oval interval.

    y^2 = a (x - lo)(hi - x)(x - rho)/x with rho the remaining root.
    The oval is the root pair bracketing the center abscissa: 1 for the
    right annulus, (a-2)/a for the left one.  For a in (-1, 0) all
    three roots are positive, so positional picks go wrong; bracketing
    the center does not.  x^k carries its own sign, so no orientation
    fix-up is needed for the x < 0 ovals.
    """
    a, t = mpf(a), mpf(t)
    r = cubic_roots_normal(a, t)
    xc = (a - 2) / a if minus else mpf(1)
    pairs = [(r[0], r[1], r[2]), (r[1], r[2], r[0])]
    for lo, hi, rho in pairs:
        if lo < xc < hi:
            break
    else:
        raise ValueError(f"no root pair brackets x={xc} for a={a}, t={t}")

    def f(x):
        y2 = a * (x - lo) * (hi - x) * (x - rho) / x
        return x**k * sqrt(abs(y2))

    return 2 * quad(f, [lo, hi])


def jk_loop_normal(a, k, minus=False):
    """Limit J_k(0), finite for k = 0, 1: 2 * int x^k sqrt(r(x)) dx over
    [0, x1] on the right loop, or over [x_left, 0] on the left one
    (a in (0, 2)), where x_left is the negative root of r.  x^k carries
    its own sign, as in jk_normal."""
    a = mpf(a)
    disc = 9 * (a - 1) ** 2 - 12 * a * (a - 2)
    x1 = (3 * (a - 1) + sqrt(disc)) / (2 * a)
    x_left = (3 * (a - 1) - sqrt(disc)) / (2 * a)

    def f(x):
        r = -a * x**2 + 3 * (a - 1) * x - 3 * (a - 2)
        return x**k * sqrt(abs(r))

    return 2 * quad(f, [x_left, 0] if minus else [0, x1])


def appendix_moments(h):
    """(I_y, I_y2) = (contour integral of y dx, of y^2 dx) on the h-oval.

    Oval of y (x^2 + y^2/12 - 1) = h around (0, 2): the two positive
    roots of y^3 - 12 y - 12 h bound it in y, and
    x^2 = (y - lo)(hi - y)(y - rho)/(12 y) with rho < 0.
    Counterclockwise: I_y = -2 int x dy, I_y2 = -4 int y x dy.
    """
    h = mpf(h)
    roots = sorted(r.real for r in polyroots([1, 0, -12, -12 * h]))
    rho, lo, hi = roots

    def xp(y):
        return sqrt(abs((y - lo) * (hi - y) * (y - rho) / (12 * y)))

    i_y = -2 * quad(xp, [lo, hi])
    i_y2 = -4 * quad(lambda y: y * xp(y), [lo, hi])
    return i_y, i_y2


def appendix_zero(mu2, lo, hi):
    """The zero on (lo, hi) of the appendix first-order function
    (16 + mu2) * I_y - pi*sqrt(3) * I_y2, by a bracketed search on the
    moments above."""
    mu2 = mpf(mu2)

    def f(h):
        i_y, i_y2 = appendix_moments(h)
        return (16 + mu2) * i_y - pi * sqrt(3) * i_y2

    return findroot(f, (mpf(lo), mpf(hi)), solver="anderson")


# (annulus, a, t) of the near-loop rows, where the integrand of J_1
# changes on the scale of the slice end next to the saddle: default_grid
# samples at a = 0.7 and a = -0.5, index 3 of geomspace(0.999, 1e-6, 6)
# times the center energy at a = 1.15, t = -1.5e-4 at a = 1, and
# 7.8e-5 times the center energy at a = 0.3
NEAR_LOOP_ROWS = [
    ("SIGMA_PLUS", 0.7, -0.0005731666621278109),
    ("SIGMA_MINUS", 0.7, 0.0003697057015124017),
    ("SIGMA_MINUS", 1.15, 0.0002949217660819588),
    ("SIGMA_PLUS", 1.0, -0.00015),
    ("SIGMA_PLUS", -0.5, -0.0002206910122151129),
    ("SIGMA_MINUS", 0.3, 0.003256066666666666),
]


def emit(label, value, digits=22):
    print(f"    {label}: {mp.nstr(value, digits)},")


def main():
    print("SIGMA_PLUS_TRIPLES = {")
    for a, t in [(1.0, -1.0), (1.0, -0.5), (1.0, -1.9),
                 (-0.5, -1.0), (0.5, -1.0), (1.5, -0.7)]:
        trip = tuple(jk_normal(a, t, k) for k in (-1, 0, 1))
        body = ", ".join(mp.nstr(v, 22) for v in trip)
        print(f"    ({a}, {t}): ({body}),")
    print("}")

    print("SIGMA_MINUS_TRIPLES = {")
    for a, t in [(0.5, 5.0), (0.5, 1.0)]:
        trip = tuple(jk_normal(a, t, k, minus=True) for k in (-1, 0, 1))
        body = ", ".join(mp.nstr(v, 22) for v in trip)
        print(f"    ({a}, {t}): ({body}),")
    print("}")

    print("NEAR_LOOP_TRIPLES = {")
    for annulus, a, t in NEAR_LOOP_ROWS:
        minus = annulus == "SIGMA_MINUS"
        trip = tuple(jk_normal(a, t, k, minus=minus) for k in (-1, 0, 1))
        body = ", ".join(mp.nstr(v, 22) for v in trip)
        print(f"    ({annulus!r}, {a}, {t!r}): ({body}),")
    print("}")

    print("LOOP_LIMITS = {")
    for a in [1.0, 0.5, 1.9, -0.9]:
        j0 = jk_loop_normal(a, 0)
        j1 = jk_loop_normal(a, 1)
        print(f"    {a}: ({mp.nstr(j0, 22)}, {mp.nstr(j1, 22)}),")
    print("}")

    print("SIGMA_MINUS_LOOP_LIMITS = {")
    for a in [0.3, 0.5, 1.0, 1.5, 1.9]:
        j0 = jk_loop_normal(a, 0, minus=True)
        j1 = jk_loop_normal(a, 1, minus=True)
        print(f"    {a}: ({mp.nstr(j0, 22)}, {mp.nstr(j1, 22)}),")
    print("}")

    print("APPENDIX_MOMENTS = {")
    for h in [-0.5, -1.0, -0.05]:
        iy, iy2 = appendix_moments(h)
        print(f"    {h}: ({mp.nstr(iy, 22)}, {mp.nstr(iy2, 22)}),")
    print("}")

    print("APPENDIX_ZEROS = {")
    for mu2, lo, hi in [(0.657, -0.1, -0.01)]:
        z = appendix_zero(mu2, lo, hi)
        print(f"    ({mu2}, {lo}, {hi}): {mp.nstr(z, 22)},")
    print("}")


if __name__ == "__main__":
    main()
