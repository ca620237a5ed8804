"""Seeded random generators for forms, fields, chains, and vectors.

Every function takes an explicit ``random.Random`` so that callers own
determinism end to end: the CLI derives one rng per check suite from the
scenario seed, and identical seeds reproduce identical sample streams
byte for byte.  Values are small rationals on purpose — the point is to
exercise identities exactly, not to stress magnitudes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .chains import AffineSimplex, Chain
from .forms import PolyForm, PolyVectorField
from .polynomial import Polynomial


def random_fraction(rng: random.Random, span: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_vector(rng: random.Random, dim: int, span: int = 4) -> tuple[Fraction, ...]:
    return tuple(random_fraction(rng, span) for _ in range(dim))


def random_monomial(rng: random.Random, dim: int, max_degree: int) -> tuple[int, ...]:
    degree = rng.randint(0, max_degree)
    exponents = [0] * dim
    for _ in range(degree):
        exponents[rng.randrange(dim)] += 1
    return tuple(exponents)


def random_polynomial(
    rng: random.Random, dim: int, max_degree: int = 3, terms: int = 3
) -> Polynomial:
    acc: dict[tuple, Fraction] = {}
    for _ in range(terms):
        exp = random_monomial(rng, dim, max_degree)
        acc[exp] = acc.get(exp, 0) + random_fraction(rng)
    return Polynomial(dim, acc)  # drops the terms that summed to zero


def random_form(
    rng: random.Random,
    dim: int,
    degree: int,
    max_coeff_degree: int = 3,
) -> PolyForm:
    """A random form; may be zero, as identity checks must survive that."""
    if degree > dim:
        return PolyForm.zero(dim, degree)
    axes = list(range(dim))
    components = {}
    for idx in itertools.combinations(axes, degree):
        if rng.random() < 0.5:
            continue
        poly = random_polynomial(rng, dim, max_coeff_degree, 2)
        if not poly.is_zero():
            components[idx] = poly
    return PolyForm(dim, degree, components)


def random_constant_form(rng: random.Random, dim: int, degree: int) -> PolyForm:
    """A random constant-coefficient form."""
    components = {}
    for idx in itertools.combinations(range(dim), degree):
        coeff = random_fraction(rng)
        if coeff:
            components[idx] = Polynomial.constant(dim, coeff)
    return PolyForm(dim, degree, components)


def nonzero_constant_form(rng: random.Random, dim: int, degree: int) -> PolyForm:
    while True:
        form = random_constant_form(rng, dim, degree)
        if not form.is_zero():
            return form


def random_vector_field(
    rng: random.Random, dim: int, max_degree: int = 2
) -> PolyVectorField:
    return PolyVectorField(
        tuple(random_polynomial(rng, dim, max_degree) for _ in range(dim))
    )


def random_simplex(rng: random.Random, ambient: int, dim: int) -> AffineSimplex:
    """A random affine simplex; degenerate simplices are allowed."""
    return AffineSimplex([random_vector(rng, ambient, 3) for _ in range(dim + 1)])


def random_chain(rng: random.Random, ambient: int, dim: int) -> Chain:
    terms = {}
    for _ in range(2):
        terms[random_simplex(rng, ambient, dim)] = random_fraction(rng)
    return Chain(dim, ambient, terms)


def random_polynomial_map(
    rng: random.Random, source_dim: int, target_dim: int
) -> list[Polynomial]:
    """A random polynomial map R^source -> R^target (not invertible in general)."""
    return [random_polynomial(rng, source_dim, 2) for _ in range(target_dim)]
