"""Seeded verification sweeps.

Each suite runs a family of exact identity checks on deterministic
random samples and returns a list of plain dicts (one per check) that
the CLI serializes.  Every residual is an exact rational or an exact
polynomial form; a check passes only when every sampled residual is
identically zero.  There are no tolerances anywhere.

Seeding: each check draws from its own ``random.Random``, seeded with
the suite seed and a fixed stream name (``_rng``).  The stream name is
often not the reported check name (stream ``"ext_d_squared"`` feeds
``ext_d_squared_zero``), and ``cocycle_condition`` samples its words
from the suite seed itself.  A check added under a new stream name never
perturbs the samples of its neighbours, and identical inputs reproduce
identical reports.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from .chains import Chain, boundary, integrate, pushforward, require_cycle
from .cochain import Cochain, F_gamma, delta_prime, f_gamma
from .diffeo import GroupPresentation, PolyDiffeo
from .errors import ScenarioError
from .forms import (
    PolyForm,
    PolyVectorField,
    ext_d,
    interior,
    lie_derivative,
    poincare_h,
    pullback,
    wedge,
)
from .polynomial import Polynomial
from .sampling import (
    nonzero_constant_form,
    random_chain,
    random_constant_form,
    random_form,
    random_fraction,
    random_polynomial,
    random_polynomial_map,
    random_simplex,
    random_vector,
    random_vector_field,
)
from .scenario import ScenarioConfig, parse_tuple
from .serialize import form_to_json
from .zigzag import (
    ZigzagState,
    b_cochain,
    build_phi_sequence,
    closed_form_translation,
    cocycle,
    cocycle_eval,
)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _sample_tuples(group, count, width, max_word_length, seed, name) -> list[tuple]:
    """``count`` tuples of ``width`` words of ``group``, drawn in one call.

    The words' seed is derived from the suite seed and the check ``name``,
    or is ``seed`` itself when ``name`` is None.
    """
    if name is not None:
        seed = int(_rng(seed, name).random() * 10**9)
    words = iter(group.sample_words(count * width, max_word_length, seed))
    return list(zip(*[words] * width))


def _sweep(name, samples, trial, *, rational=False, **extra) -> dict:
    """Run ``trial(k)`` for k in range(samples) and count the failures.

    A trial returns its residual: a form or chain, which fails unless it
    is zero; an exact rational, which fails unless it is 0; or a bool,
    True when the two sides of an identity differ.  Rational sweeps also
    report ``max_abs_residual``, which is 0 when nothing failed or ran.
    """
    failures = 0
    worst = Fraction(0)
    for k in range(samples):
        residual = trial(k)
        if isinstance(residual, (PolyForm, Chain)):
            residual = not residual.is_zero()
        if residual != 0:
            failures += 1
            worst = max(worst, abs(residual))
    out = {"name": name, "samples": samples, "failures": failures, "pass": failures == 0}
    out.update(extra)
    if rational:
        out["max_abs_residual"] = worst
    return out


def _same_form(left, right) -> bool:
    """Form equality that identifies zero forms of different degrees.

    Contracting a form below the chain dimension yields the zero 0-form,
    while the matching side of an identity may carry the nominal degree;
    both represent the zero form, so compare values rather than degrees.
    """
    if left.degree == right.degree:
        return left == right
    return left.is_zero() and right.is_zero()


# -- calculus ----------------------------------------------------------------


def calculus_suite(group: GroupPresentation, samples: int, seed: int) -> list[dict]:
    """Exterior-calculus identities on random forms, fields, and words."""
    dim = group.dim
    checks = []

    rng = _rng(seed, "ext_d_squared")

    def ext_d_squared(_):
        a = random_form(rng, dim, rng.randint(0, dim), 4)
        return ext_d(ext_d(a))

    checks.append(_sweep("ext_d_squared_zero", samples, ext_d_squared))

    rng = _rng(seed, "homotopy")

    def homotopy(_):
        a = random_form(rng, dim, rng.randint(1, dim), 4)
        return ext_d(poincare_h(a)) + poincare_h(ext_d(a)) - a

    checks.append(_sweep("homotopy_identity_positive_degree", samples, homotopy))

    rng = _rng(seed, "homotopy0")

    def homotopy0(_):
        f = random_polynomial(rng, dim, 4)
        recovered = poincare_h(ext_d(PolyForm.from_polynomial(f)))
        expected = PolyForm.from_polynomial(f - Polynomial.constant(dim, f.constant_term()))
        return recovered != expected

    checks.append(_sweep("homotopy_degree_zero", samples, homotopy0))

    rng = _rng(seed, "cartan")

    def cartan(_):
        x = random_vector_field(rng, dim, 2)
        y = random_vector_field(rng, dim, 2)
        a = random_form(rng, dim, rng.randint(1, dim), 2)
        lhs = lie_derivative(x, interior(y, a)) - interior(y, lie_derivative(x, a))
        return lhs != interior(x.bracket(y), a)

    checks.append(_sweep("cartan_bracket_compatibility", samples, cartan))

    rng = _rng(seed, "euler")
    euler = PolyVectorField.euler(dim)

    def euler_grading(_):
        k = rng.randint(0, dim)
        a = random_form(rng, dim, k, 3)
        expected = PolyForm.zero(dim, k)
        for idx, poly in a.components.items():
            for s, piece in poly.homogeneous_parts().items():
                expected = expected + PolyForm(dim, k, {idx: piece}) * (k + s)
        return lie_derivative(euler, a) != expected

    checks.append(_sweep("euler_field_grading", samples, euler_grading))

    rng = _rng(seed, "functorial")

    def functorial(_):
        a = random_form(rng, dim, rng.randint(0, dim), 2)
        phi = random_polynomial_map(rng, dim, dim)
        psi = random_polynomial_map(rng, dim, dim)
        composite = [c.compose(psi) for c in phi]
        return pullback(composite, a) != pullback(psi, pullback(phi, a))

    checks.append(_sweep("pullback_functorial", samples, functorial))

    rng = _rng(seed, "pullback_id")
    identity_map = [Polynomial.variable(dim, i) for i in range(dim)]

    def pullback_identity(_):
        a = random_form(rng, dim, rng.randint(0, dim), 3)
        return pullback(identity_map, a) - a

    checks.append(_sweep("pullback_identity", samples, pullback_identity))

    rng = _rng(seed, "action")
    pairs = _sample_tuples(group, samples, 2, 3, rng.randint(0, 10**9), None)

    def action(k):
        g, h = pairs[k]
        a = random_form(rng, dim, rng.randint(0, dim), 2)
        product = g.compose(h, degree_cap=group.degree_cap)
        return h.pullback_form(g.pullback_form(a)) != product.pullback_form(a)

    checks.append(_sweep("right_action_law", samples, action))

    rng = _rng(seed, "graded")

    def graded(_):
        k = rng.randint(0, dim)
        l = rng.randint(0, dim)
        a = random_form(rng, dim, k, 2)
        b = random_form(rng, dim, l, 2)
        sign = -1 if (k * l) % 2 else 1
        return wedge(a, b) != wedge(b, a) * sign

    checks.append(_sweep("wedge_graded_commutative", samples, graded))

    rng = _rng(seed, "antiderivation")

    def antiderivation(_):
        k = rng.randint(1, dim)
        a = random_form(rng, dim, k, 2)
        b = random_form(rng, dim, rng.randint(0, dim - k), 2)
        x = random_vector_field(rng, dim, 2)
        sign = -1 if k % 2 else 1
        lhs = interior(x, wedge(a, b))
        rhs = wedge(interior(x, a), b)
        if b.degree >= 1:
            # i(X) annihilates functions, so the second Leibniz term only
            # contributes when b has positive degree.
            rhs = rhs + wedge(a, interior(x, b)) * sign
        return lhs != rhs

    checks.append(_sweep("interior_antiderivation", samples, antiderivation))

    return checks


# -- chains and Stokes -------------------------------------------------------


def stokes_suite(dim: int, samples: int, seed: int) -> list[dict]:
    """Exact Stokes' theorem and boundary-of-boundary on random data."""
    rng = _rng(seed, "stokes")

    def stokes(_):
        q = rng.randint(1, dim)
        sigma = random_simplex(rng, dim, q)
        alpha = random_form(rng, dim, q - 1, 4)
        chain = Chain(q, dim, {sigma: Fraction(1)})
        return integrate(ext_d(alpha), chain) - integrate(alpha, boundary(chain))

    checks = [_sweep("stokes_exact", samples, stokes, rational=True)]

    rng = _rng(seed, "ddzero")

    def ddzero(_):
        q = rng.randint(2, dim)
        return boundary(boundary(random_chain(rng, dim, q)))

    checks.append(
        _sweep("boundary_squared_zero", samples if dim >= 2 else 0, ddzero)
    )
    return checks


# -- transgression -----------------------------------------------------------


def _test_cycles(dim: int) -> list[tuple[str, Chain]]:
    cycles = [("point", Chain.point([0] * dim))]
    if dim >= 2:
        def lift(x, y):
            return [x, y] + [0] * (dim - 2)

        cycles.append(
            ("loop", Chain.triangle_loop(lift(0, 0), lift(1, 0), lift(0, 1)))
        )
    return cycles


def fgamma_suite(dim: int, samples: int, seed: int) -> list[dict]:
    """The transgression identities in the translation identification.

    The identities need cycles, so each test cycle is checked once here.
    """
    cycles = _test_cycles(dim)
    for _, gamma in cycles:
        require_cycle(gamma, "transgression chain")

    rng = _rng(seed, "point_id")
    point = cycles[0][1]

    def point_identity(_):
        omega = random_constant_form(rng, dim, rng.randint(0, dim))
        return f_gamma(point, omega) != omega

    checks = [_sweep("point_cycle_identity_on_constants", samples, point_identity)]

    for label, gamma in cycles:
        rng = _rng(seed, f"dG_{label}")

        def d_intertwines(_):
            omega = random_form(rng, dim, rng.randint(0, dim), 3)
            return not _same_form(
                ext_d(f_gamma(gamma, omega)), f_gamma(gamma, ext_d(omega))
            )

        checks.append(_sweep(f"d_intertwines_fgamma_{label}", samples, d_intertwines))

    for label, gamma in cycles:
        rng = _rng(seed, f"dprime_{label}")

        def dprime_intertwines(_):
            theta = random_form(rng, dim, rng.randint(gamma.dim, dim), 2)
            # both sides read c at a, b and a b: cache it
            c = Cochain(1, theta.degree, dim, cache(lambda g: g.pullback_form(theta)))
            lhs = delta_prime(F_gamma(c, gamma))
            rhs = F_gamma(delta_prime(c), gamma)
            a = PolyDiffeo.translation(random_vector(rng, dim))
            b = PolyDiffeo.translation(random_vector(rng, dim))
            return lhs(a, b) != rhs(a, b)

        checks.append(
            _sweep(
                f"delta_prime_intertwines_Fgamma_{label}", samples, dprime_intertwines
            )
        )

    rng = _rng(seed, "equivariance")

    def equivariance(_):
        gamma = cycles[rng.randrange(len(cycles))][1]
        omega = random_form(rng, dim, rng.randint(0, dim), 3)
        mover = PolyDiffeo.translation(random_vector(rng, dim))
        return f_gamma(gamma, mover.pullback_form(omega)) != mover.pullback_form(
            f_gamma(gamma, omega)
        )

    checks.append(_sweep("translation_equivariance", samples, equivariance))

    rng = _rng(seed, "linearity")

    def linearity(_):
        gamma = cycles[rng.randrange(len(cycles))][1]
        k = rng.randint(0, dim)
        w1 = random_form(rng, dim, k, 3)
        w2 = random_form(rng, dim, k, 3)
        scale = random_fraction(rng)
        return f_gamma(gamma, w1 + w2 * scale) != f_gamma(gamma, w1) + f_gamma(
            gamma, w2
        ) * scale

    checks.append(_sweep("linearity_in_the_form", samples, linearity))
    return checks


# -- descent and cocycle -----------------------------------------------------


def _base_residual(state: ZigzagState) -> PolyForm:
    """omega + d phi_0, which is zero when phi_0 is the base primitive."""
    return state.omega + ext_d(state.phis[0]())


def build_suite(state: ZigzagState) -> list[dict]:
    """The cochain ladder with the base primitive verified, and phi_i on the
    first generator repeated i times."""
    m, p = state.m, state.p
    g = state.group.generators[0]
    ladder = [{"level": i, "group_degree": i, "form_degree": m - i - 1} for i in range(p + 1)]
    values = [
        {"level": i, "tuple": [g.label] * i, "value": form_to_json(state.phis[i](*[g] * i))}
        for i in range(1, p + 1)
    ]
    return [
        _sweep(
            "descent_build", 1, lambda _: _base_residual(state), form_degree=m, depth=p,
            ladder=ladder, phi0=form_to_json(state.phis[0]()), sample_values=values,
        )
    ]


def eval_suite(state: ZigzagState, config: ScenarioConfig, exprs) -> list[dict]:
    """The cocycle on the scenario's cycle at one tuple of expressions: a
    value, not an identity, so its one sample cannot fail."""
    needed = state.p + 1
    if not exprs:
        raise ScenarioError("eval-cocycle needs --tuple with p+1 group elements")
    if len(exprs) != needed:
        raise ScenarioError(
            f"eval-cocycle needs exactly {needed} group elements, got {len(exprs)}"
        )
    gs = parse_tuple(exprs, config)
    value = cocycle_eval(state, config.cycle, gs)
    labels = [g.label for g in gs]
    return [_sweep("eval_cocycle", 1, lambda _: 0, tuple=list(exprs), labels=labels, value=value)]


def cocycle_identity_suite(
    state: ZigzagState,
    alpha: Chain,
    samples: int,
    seed: int,
    max_word_length: int,
) -> list[dict]:
    """Base primitive, staircase consistency, the cocycle condition, and
    point independence on at most 50 tuples."""
    checks = [_sweep("base_primitive", 1, lambda _: _base_residual(state))]

    level_samples = min(samples, 25)
    for i in range(1, state.p + 1):
        tuples = _sample_tuples(
            state.group, level_samples, i, max_word_length, seed, f"desc{i}"
        )
        checks.append(
            _sweep(
                f"descent_consistency_level_{i}",
                level_samples,
                lambda k: state.descent_residual(i, tuples[k]),
            )
        )

    dc = state.delta_prime(cocycle(state, alpha))
    tuples = _sample_tuples(state.group, samples, state.p + 2, max_word_length, seed, None)
    checks.append(
        _sweep("cocycle_condition", samples, lambda k: dc(*tuples[k]), rational=True)
    )
    return checks + point_independence_suite(state, min(samples, 50), seed, max_word_length)


# -- closed form -------------------------------------------------------------


def closed_form_suite(state: ZigzagState, samples: int, seed: int) -> list[dict]:
    """Descent vs the exact translation value, for the scenario's form and
    then for fresh random forms of the same dimension and degree."""
    omega = state.omega
    if not omega.is_constant_coefficient():
        raise ScenarioError(
            "the closed-form comparison needs a constant-coefficient form"
        )
    c = cocycle(state, Chain.point([0] * omega.dim))
    rng = _rng(seed, "closed_scenario")
    return [
        _sweep(
            "translation_closed_form",
            samples,
            lambda _: _closed_form_residual(c, omega, rng),
            rational=True,
        ),
        closed_form_random_sweep(omega.dim, state.m, samples, seed),
    ]


def closed_form_random_sweep(
    dim: int, degree: int, samples: int, seed: int
) -> dict:
    """Fresh random constant forms and translation tuples, end to end.

    Builds a new descent per sample over a translation generating set and
    compares against (1/m!) w(a_1,...,a_m).
    """
    rng = _rng(seed, f"closed_sweep_{degree}")
    basis = [
        PolyDiffeo.translation([1 if j == i else 0 for j in range(dim)])
        for i in range(dim)
    ]
    origin = Chain.point([0] * dim)

    def residual(_):
        omega = nonzero_constant_form(rng, dim, degree)
        state = build_phi_sequence(omega, GroupPresentation(basis, [omega]))
        return _closed_form_residual(cocycle(state, origin), omega, rng)

    return _sweep(
        f"random_closed_form_degree_{degree}", samples, residual, rational=True
    )


def _closed_form_residual(c: Cochain, omega: PolyForm, rng) -> Fraction:
    """The cocycle ``c`` of ``omega``'s descent minus (1/m!) w(a_1,...,a_m),
    on m random translations."""
    vectors = [random_vector(rng, omega.dim) for _ in range(omega.degree)]
    gs = [PolyDiffeo.translation(v) for v in vectors]
    return c(*gs) - closed_form_translation(omega, vectors)


# -- triviality --------------------------------------------------------------


def _random_shear_product(rng: random.Random, dim: int) -> PolyDiffeo:
    """A composite of one to three linear shears x_i -> x_i + c x_j;
    determinant one; the identity when every draw has i == j."""
    g = None
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i != j:
            step = Polynomial.variable(dim, j) * random_fraction(rng, 2, 2)
            shear = PolyDiffeo.shear(dim, i, step)
            g = shear if g is None else g.compose(shear)
    return PolyDiffeo.identity(dim) if g is None else g


def _transvection(rng: random.Random, radial: PolyForm) -> PolyDiffeo:
    """x -> x + l w(x,v) v for random v and l, where ``radial`` is i(x)w,
    so that pairing it with v gives the linear function w(x, v).

    The inverse subtracts the same shift, as w(x + s, v) = w(x, v)
    whenever s is a multiple of v, so the pair is built correct.
    """
    dim = radial.dim
    v = [random_fraction(rng, 2, 2) for _ in range(dim)]
    lam = random_fraction(rng, 2, 2)
    w_xv = sum((radial.coefficient((k,)) * v[k] for k in range(dim)), Polynomial.zero(dim))
    xs = [Polynomial.variable(dim, r) for r in range(dim)]
    shift = [w_xv * (lam * c) for c in v]
    return PolyDiffeo._raw(
        tuple(x + s for x, s in zip(xs, shift)),
        tuple(x - s for x, s in zip(xs, shift)),
        "transvection",
    )


def sample_stabilizer_linears(
    omega: PolyForm, count: int, rng: random.Random
) -> list[PolyDiffeo]:
    """Random origin-fixing linear maps preserving a constant form, each
    a product in the group of polynomial diffeomorphisms, labelled "L".

    Volume degree composes one to three linear elementary shears, which
    have determinant one; degree two composes two transvections
    x -> x + l w(x,v) v, which preserve every constant 2-form; degree
    one admits no nontrivial construction here, so the identity is
    returned.  Every output is re-verified against the form before use.
    """
    dim = omega.dim
    out = []
    if omega.degree == 2:
        radial = interior(PolyVectorField.euler(dim), omega)
    for _ in range(count):
        if omega.degree == dim:
            g = _random_shear_product(rng, dim)
        elif omega.degree == 2:
            g = _transvection(rng, radial).compose(_transvection(rng, radial))
        else:
            g = PolyDiffeo.identity(dim)
        g = g.relabeled("L")
        if not g.preserves(omega):
            raise ScenarioError(
                "internal sampling error: constructed linear map fails invariance"
            )
        out.append(g)
    return out


def _alpha_fixing_subgroup(state: ZigzagState, alpha: Chain) -> GroupPresentation:
    keep = [
        g
        for g in state.group.generators
        if pushforward(g, alpha) == alpha
    ]
    if not keep:
        raise ScenarioError(
            "no generator fixes the cycle; cannot sample the stabilizer"
        )
    return GroupPresentation(keep, degree_cap=state.group.degree_cap)


def triviality_suite(
    state: ZigzagState,
    alpha: Chain,
    samples: int,
    seed: int,
    max_word_length: int,
    subgroup: str = "linear",
) -> list[dict]:
    """c = Db on cycle-fixing tuples, and on all tuples the comparison identity

        c(g_1,...,g_p,g) = (-1)^{p+1} ( int_{g(alpha)} phi_p(g_1,...,g_p)
                                        - b(g_1,...,g_p) ) + (Db)(g_1,...,g_p,g).
    """
    if subgroup not in ("linear", "stabilizer"):
        raise ScenarioError(f"unknown subgroup {subgroup!r}: use linear or stabilizer")
    p = state.p
    width = p + 1

    if subgroup == "linear":
        if not state.omega.is_constant_coefficient():
            raise ScenarioError(
                "linear-subgroup sampling needs a constant-coefficient form"
            )
        rng = _rng(seed, "linear_pool")
        pool = [tuple(sample_stabilizer_linears(state.omega, width, rng)) for _ in range(samples)]
        if any(pushforward(g, alpha) != alpha for gs in pool for g in gs):
            raise ScenarioError(
                "the cycle is not fixed by origin-fixing linear maps; "
                "use a point cycle at the origin or subgroup=stabilizer"
            )
    else:
        sub = _alpha_fixing_subgroup(state, alpha)
        pool = _sample_tuples(sub, samples, width, max_word_length, seed, "stab")

    c = cocycle(state, alpha)
    b = b_cochain(state, alpha)
    db = state.delta_prime(b)
    b_values = []

    def on_stabilizer(k):
        gs = pool[k]
        residual = c(*gs) - db(*gs)
        if len(b_values) < 5:
            b_values.append({"tuple": [g.label or "?" for g in gs[:p]], "b": b(*gs[:p])})
        return residual

    checks = [
        _sweep(
            f"coboundary_on_{subgroup}_stabilizer",
            samples,
            on_stabilizer,
            rational=True,
            b_values=b_values,
        )
    ]

    mixed = _sample_tuples(state.group, samples, width, max_word_length, seed, "mixed")
    phi_p = state.phis[p]
    sign = (-1) ** width  # (-1)^{p+1}

    def comparison(k):
        # Evaluated as c, phi_p(g_1..g_p), g(alpha), Db: which error a bad
        # tuple raises first is part of the report.
        gs = mixed[k]
        *lead, g = gs
        value = c(*gs)
        moved = integrate(phi_p(*lead), pushforward(g, alpha))
        return value - sign * (moved - b(*lead)) - db(*gs)

    checks.append(
        _sweep("coboundary_comparison_identity", samples, comparison, rational=True)
    )
    return checks


# -- point independence ------------------------------------------------------


def point_independence_suite(
    state: ZigzagState, samples: int, seed: int, max_word_length: int
) -> list[dict]:
    """The cocycle does not depend on which point cycle it integrates over."""
    dim = state.omega.dim
    first = Chain.point([0] * dim)
    other_coords = ([3, -2] + [1] * dim)[:dim]
    second = Chain.point(other_coords)
    tuples = _sample_tuples(state.group, samples, state.p + 1, max_word_length, seed, "points")
    # the cocycle is linear in the cycle: one cochain on the difference
    c_difference = cocycle(state, first - second)

    def residual(k):
        return c_difference(*tuples[k])

    return [
        _sweep(
            "point_cycle_independence",
            samples,
            residual,
            rational=True,
            points=[[Fraction(0)] * dim, [Fraction(v) for v in other_coords]],
        )
    ]
