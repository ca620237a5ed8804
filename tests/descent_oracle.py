"""Standalone sympy cross-checks for the descent staircase on R^2 and R^3.

Everything here is computed with sympy expressions and sympy's own
integration -- no code is shared with the package, which works in sparse
rational polynomials and a per-monomial homotopy factor.  The two engines
therefore provide genuinely independent routes to the same numbers.

Conventions match the package: a 1-form P dx + Q dy is the pair (P, Q),
a 2-form R dx^dy is the scalar R, composition acts as (f.g)(p) = f(g(p)),
and the homotopy operator is the radial one centered at the origin,

    (h a)(x)(v_1, ..., v_{k-1}) = Integral_0^1 t^{k-1} a(t x)(x, v_1, ...) dt.

On R^3 a k-form is a dict {index tuple: coefficient}, with indices
0-based and increasing.  The R^3 descent builds each level from the
paper's full right-hand side, every term of d' phi_{i-1}, and does not
use the collapse h.h = 0 that the package's levels rest on.

Run as a script to print the values used as frozen test expectations.
"""

import itertools

import sympy as sp

x, y, t = sp.symbols("x y t")


def pull_zero_form(f, gmap):
    u, v = gmap
    return sp.expand(f.subs({x: u, y: v}, simultaneous=True))


def pull_one_form(form, gmap):
    P, Q = form
    u, v = gmap
    Pc = P.subs({x: u, y: v}, simultaneous=True)
    Qc = Q.subs({x: u, y: v}, simultaneous=True)
    return (
        sp.expand(Pc * sp.diff(u, x) + Qc * sp.diff(v, x)),
        sp.expand(Pc * sp.diff(u, y) + Qc * sp.diff(v, y)),
    )


def h_two_form(R):
    # i(radial)(R dx^dy) = R*(x dy - y dx); scale by Integral t * R(tx, ty) dt.
    s = sp.integrate(t * R.subs({x: t * x, y: t * y}, simultaneous=True), (t, 0, 1))
    return (sp.expand(-y * s), sp.expand(x * s))


def h_one_form(form):
    P, Q = form
    integrand = (
        P.subs({x: t * x, y: t * y}, simultaneous=True) * x
        + Q.subs({x: t * x, y: t * y}, simultaneous=True) * y
    )
    return sp.expand(sp.integrate(integrand, (t, 0, 1)))


def compose_map(f, g):
    u, v = f
    a, b = g
    return (
        sp.expand(u.subs({x: a, y: b}, simultaneous=True)),
        sp.expand(v.subs({x: a, y: b}, simultaneous=True)),
    )


def descent_value(g1, g2):
    """Degree-2 cocycle value at the origin for omega = dx^dy.

    phi0 = -h(dx^dy); phi1(g) = h(phi0 - g*phi0); the value is

        (phi1(g2) - phi1(g1.g2) + g2*phi1(g1)) (0, 0).
    """
    phi0 = tuple(-c for c in h_two_form(sp.Integer(1)))

    def phi1(gmap):
        pulled = pull_one_form(phi0, gmap)
        diff = (sp.expand(phi0[0] - pulled[0]), sp.expand(phi0[1] - pulled[1]))
        return h_one_form(diff)

    total = (
        phi1(g2)
        - phi1(compose_map(g1, g2))
        + pull_zero_form(phi1(g1), g2)
    )
    return sp.Rational(sp.expand(total).subs({x: 0, y: 0}))


def shear_translation_value():
    """c(sigma, T_(0,1)) for sigma: (x, y) -> (x + y^2, y)."""
    sigma = (x + y**2, y)
    step = (x, y + 1)
    return descent_value(sigma, step)


def rotated_shear_pair_value():
    """c(rot90.sigma, sigma.T_(1,-1)): both maps nonlinear, and the last
    one moves the origin, so the value reads a level away from 0."""
    sigma = (x + y**2, y)
    rot90 = (-y, x)
    step = (x + 1, y - 1)
    return descent_value(compose_map(rot90, sigma), compose_map(sigma, step))


def translation_pair_value(a, b):
    """c(T_a, T_b); should equal (a1*b2 - a2*b1)/2."""
    ta = (x + sp.Rational(a[0]), y + sp.Rational(a[1]))
    tb = (x + sp.Rational(b[0]), y + sp.Rational(b[1]))
    return descent_value(ta, tb)


X3 = sp.symbols("x1 x2 x3")


def pull_form(form, gmap):
    """g^*(sum f_I dx_I) = sum_I sum_J (f_I o g) det(dg_I/dx_J) dx_J."""
    sub = dict(zip(X3, gmap))
    jac = sp.Matrix([[sp.diff(u, v) for v in X3] for u in gmap])
    out = {}
    for idx, f in form.items():
        fg = f.subs(sub, simultaneous=True)
        for J in itertools.combinations(range(3), len(idx)):
            minor = jac.extract(list(idx), list(J)).det() if idx else 1
            out[J] = out.get(J, 0) + fg * minor
    return _normal(out)


def h_form(degree, form):
    """Radial homotopy of a degree-k form:
    h(f dx_I) = Integral_0^1 t^(k-1) f(t x) dt * sum_j (-1)^j x_(I_j) dx_(I minus I_j)."""
    if degree == 0:
        return {}
    scale = {v: t * v for v in X3}
    out = {}
    for idx, f in form.items():
        s = sp.integrate(t ** (degree - 1) * f.subs(scale, simultaneous=True), (t, 0, 1))
        for j, axis in enumerate(idx):
            rest = idx[:j] + idx[j + 1 :]
            out[rest] = out.get(rest, 0) + (-1) ** j * X3[axis] * s
    return _normal(out)


def combine(*signed):
    """sum of sign * form over (sign, form) pairs."""
    out = {}
    for sign, form in signed:
        for idx, f in form.items():
            out[idx] = out.get(idx, 0) + sign * f
    return _normal(out)


def _normal(form):
    expanded = {idx: sp.expand(f) for idx, f in form.items()}
    return {idx: f for idx, f in expanded.items() if f != 0}


def compose3(f, g):
    sub = dict(zip(X3, g))
    return tuple(sp.expand(u.subs(sub, simultaneous=True)) for u in f)


def volume_descent_value(g1, g2, g3):
    """Degree-3 cocycle value at the origin for omega = dx1^dx2^dx3, each
    level from the full d':

        phi0 = -h(omega),
        phi1(g) = h(phi0 - g*phi0),
        phi2(g, k) = -h(phi1(k) - phi1(g.k) + k*phi1(g)),
        c = (phi2(g2, g3) - phi2(g1.g2, g3) + phi2(g1, g2.g3) - g3*phi2(g1, g2))(0).
    """
    phi0 = combine((-1, h_form(3, {(0, 1, 2): sp.Integer(1)})))

    def phi1(g):
        return h_form(2, combine((1, phi0), (-1, pull_form(phi0, g))))

    def phi2(g, k):
        dprime = combine((1, phi1(k)), (-1, phi1(compose3(g, k))), (1, pull_form(phi1(g), k)))
        return combine((-1, h_form(1, dprime)))

    total = combine(
        (1, phi2(g2, g3)),
        (-1, phi2(compose3(g1, g2), g3)),
        (1, phi2(g1, compose3(g2, g3))),
        (-1, pull_form(phi2(g1, g2), g3)),
    )
    return sp.Rational(total.get((), sp.Integer(0)).subs({v: 0 for v in X3}))


def r3_shear_triple_value():
    """c(s23, T2, s23.T3) on r3, with s23: (x1, x2, x3) -> (x1 + x2 x3, x2, x3)."""
    x1, x2, x3 = X3
    s23 = (x1 + x2 * x3, x2, x3)
    t2 = (x1, x2 + 1, x3)
    t3 = (x1, x2, x3 + 1)
    return volume_descent_value(s23, t2, compose3(s23, t3))


if __name__ == "__main__":
    print("c(sigma, T(0,1)) =", shear_translation_value())
    print("c(rot90*sigma, sigma*T(1,-1)) =", rotated_shear_pair_value())
    for a, b in [((1, 0), (0, 1)), ((2, 3), (-1, 5)), (("1/2", "1/3"), ("1/5", 1))]:
        got = translation_pair_value(a, b)
        expect = (sp.Rational(a[0]) * sp.Rational(b[1]) - sp.Rational(a[1]) * sp.Rational(b[0])) / 2
        print(f"c(T{a}, T{b}) = {got}  (closed form {expect})")
        assert got == expect, (got, expect)
    print("c(s23, T2, s23*T3) on r3 =", r3_shear_triple_value())
