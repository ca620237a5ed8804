"""Polynomial diffeomorphisms of R^n and the groups they generate.

A ``PolyDiffeo`` is a polynomial bijection whose inverse is again
polynomial, so invertibility never has to be decided later.  The public
constructor checks that a (forward, inverse) pair composes to the
identity both ways.  ``PolyDiffeo._raw`` is the one trusted path: the
builders (``identity``, ``translation``, ``linear``, ``shear``,
``inverted``, ``relabeled``, ``compose`` and the first letter of
``GroupPresentation.word``) construct their pairs correct and call it
without the check.  A composite built by
``compose`` stores its forward map and its two factors; its inverse is
composed from theirs on first read, which most composites never see.
Groups of such maps are described by a ``GroupPresentation``: a list of
labelled generators, each of which is required to preserve every
distinguished form.

Composition can blow up polynomial degree exponentially (a shear of
degree d composed with itself k times reaches degree d^k), so every
composition is guarded by a degree cap that raises
``DegreeCapExceededError`` instead of silently grinding.  The cap is
checked against deg(g)·deg(h), the forward degrees.  In dimension 2
deg F^-1 = deg F, so the inverse obeys the same bound; in dimension
n >= 3 deg F^-1 can reach (deg F)^(n-1), and reading a composite's
inverse checks the cap again on the inverses' degrees.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import (
    DegreeCapExceededError,
    DimensionMismatchError,
    InvarianceError,
)
from .forms import PolyForm, pullback
from .polynomial import Polynomial, as_fraction, as_point, fraction_to_str, invert_matrix

DEFAULT_DEGREE_CAP = 64


def _check_components(comps: Sequence[Polynomial], dim: int, what: str):
    if len(comps) != dim:
        raise DimensionMismatchError(f"{what} needs {dim} components, got {len(comps)}")
    for c in comps:
        if c.dim != dim:
            raise DimensionMismatchError(
                f"{what} component lives in dimension {c.dim}, not {dim}"
            )


def _require_positive_dim(dim: int, what: str):
    if dim < 1:
        raise ValueError(f"{what} of R^{dim}: the dimension must be at least 1")


def _map_degree(comps: Sequence[Polynomial]) -> int:
    return max(c.degree() for c in comps)


class PolyDiffeo:
    """A polynomial bijection of R^n together with its polynomial inverse.

    Equality and hashing look only at the forward components, so two
    routes to the same map (for instance ``g.compose(g.inverted())`` and
    ``identity``) compare equal regardless of labels.

    A composite's inverse and the hash are filled on first use and kept.
    """

    __slots__ = ("dim", "forward", "_inverse", "_factors", "label", "_degree", "_hash")

    def __init__(
        self, forward: Sequence[Polynomial], inverse: Sequence[Polynomial], label: str = ""
    ):
        fwd = tuple(forward)
        inv = tuple(inverse)
        if not fwd:
            raise ValueError("a diffeomorphism needs at least one component")
        dim = fwd[0].dim
        _check_components(fwd, dim, "forward map")
        _check_components(inv, dim, "inverse map")
        ident = tuple(Polynomial.variable(dim, i) for i in range(dim))
        if tuple(f.compose(inv) for f in fwd) != ident:
            raise ValueError(f"forward o inverse is not the identity ({label or 'unlabelled'})")
        if tuple(f.compose(fwd) for f in inv) != ident:
            raise ValueError(f"inverse o forward is not the identity ({label or 'unlabelled'})")
        self._fill(fwd, inv, str(label), None)

    @classmethod
    def _raw(cls, forward: tuple, inverse, label: str, factors=None) -> PolyDiffeo:
        """Trusted constructor for maps built correct: ``forward`` and
        ``inverse`` are tuples of polynomials on one R^n that compose to the
        identity both ways, or ``inverse`` is None and ``factors`` holds the
        (outer, inner, cap) of a composite whose inverse has not been read."""
        out = object.__new__(cls)
        out._fill(forward, inverse, label, factors)
        return out

    def _fill(self, forward: tuple, inverse, label: str, factors):
        _set_dim(self, forward[0].dim)
        _set_forward(self, forward)
        _set_inverse(self, inverse)
        _set_factors(self, factors)
        _set_label(self, label)
        _set_degree(self, _map_degree(forward))
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyDiffeo is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> PolyDiffeo:
        _require_positive_dim(dim, "identity map")
        xs = tuple(Polynomial.variable(dim, i) for i in range(dim))
        return cls._raw(xs, xs, "id")

    @classmethod
    def translation(cls, vector: Sequence, label: str = "") -> PolyDiffeo:
        vec = tuple(map(as_fraction, vector))
        _require_positive_dim(len(vec), "translation")
        xs = [Polynomial.variable(len(vec), i) for i in range(len(vec))]
        fwd = tuple(x + c for x, c in zip(xs, vec))
        inv = tuple(x - c for x, c in zip(xs, vec))
        if not label:
            label = "T(" + ",".join(map(fraction_to_str, vec)) + ")"
        return cls._raw(fwd, inv, label)

    @classmethod
    def linear(cls, matrix: Sequence[Sequence], label: str = "") -> PolyDiffeo:
        """The map x -> A x for an invertible rational matrix A."""
        rows = [[as_fraction(v) for v in row] for row in matrix]
        dim = len(rows)
        _require_positive_dim(dim, "linear map")
        for row in rows:
            if len(row) != dim:
                raise DimensionMismatchError("linear map needs a square matrix")
        try:
            inv_rows = invert_matrix(rows)
        except ValueError:
            raise ValueError(f"matrix for {label or 'linear map'} is singular") from None

        units = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]

        def as_map(mat):
            return tuple(Polynomial(dim, {u: v for u, v in zip(units, row) if v}) for row in mat)

        return cls._raw(as_map(rows), as_map(inv_rows), label or "linear")

    @classmethod
    def shear(cls, dim: int, axis: int, poly: Polynomial, label: str = "") -> PolyDiffeo:
        """Elementary shear x_axis -> x_axis + p(other coordinates).

        ``poly`` must not involve the sheared axis, which is exactly what
        makes the inverse again polynomial (subtract the same p).
        """
        if not 0 <= axis < dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        if poly.dim != dim:
            raise DimensionMismatchError("shear polynomial has the wrong dimension")
        if not poly.partial(axis).is_zero():
            raise ValueError(f"shear polynomial may not involve x{axis + 1}")
        xs = [Polynomial.variable(dim, i) for i in range(dim)]
        fwd = (*xs[:axis], xs[axis] + poly, *xs[axis + 1 :])
        inv = (*xs[:axis], xs[axis] - poly, *xs[axis + 1 :])
        return cls._raw(fwd, inv, label or f"shear{axis + 1}")

    def relabeled(self, label: str) -> PolyDiffeo:
        """The same map under another label; a pending inverse stays pending."""
        return PolyDiffeo._raw(self.forward, self._inverse, str(label), self._factors)

    # -- queries -----------------------------------------------------------

    @property
    def inverse(self) -> tuple[Polynomial, ...]:
        """The inverse map's components; a composite builds them on first read."""
        if self._inverse is None:
            _fill_inverses(self)
        return self._inverse

    def degree(self) -> int:
        """The degree of the forward map: the largest total degree of its
        components.  ``compose`` checks the cap against the product of two
        of these; reading a composite's inverse checks it against the
        product of the inverses' degrees."""
        return self._degree

    def is_identity(self) -> bool:
        return self.forward == tuple(
            Polynomial.variable(self.dim, i) for i in range(self.dim)
        )

    def apply(self, point: Sequence) -> tuple:
        pt = as_point(point, self.dim)
        return tuple(c.evaluate(pt) for c in self.forward)

    # -- group structure ---------------------------------------------------

    def compose(self, other: PolyDiffeo, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> PolyDiffeo:
        """The composite map x -> self(other(x)).

        The degree of a composite is bounded by the product of the two
        degrees, and the cap is enforced on that a-priori bound — before
        any expansion happens — so a runaway word is refused instead of
        computed.  Cancellation below the bound (as in g composed with
        its own inverse) is therefore not credited; raise the cap if a
        legitimately tame word is refused.  Only the forward map is
        expanded here; the inverse waits for its first read, under the
        same cap.
        """
        if self.dim != other.dim:
            raise DimensionMismatchError("composing maps of different dimensions")
        bound = self._degree * other._degree
        label = f"{self.label}*{other.label}" if self.label and other.label else ""
        if bound > degree_cap:
            raise DegreeCapExceededError(label or "composite", bound, degree_cap)
        fwd = tuple(c.compose(other.forward) for c in self.forward)
        return PolyDiffeo._raw(fwd, None, label, (self, other, degree_cap))

    def inverted(self) -> PolyDiffeo:
        label = f"{self.label}^-1" if self.label else ""
        return PolyDiffeo._raw(self.inverse, self.forward, label)

    def pullback_form(self, alpha: PolyForm) -> PolyForm:
        """g^* alpha, the pullback of a form along this map."""
        if alpha.dim != self.dim:
            raise DimensionMismatchError("pulling back a form from the wrong space")
        return pullback(self.forward, alpha)

    def preserves(self, alpha: PolyForm) -> bool:
        return self.pullback_form(alpha) == alpha

    def __eq__(self, other):
        if not isinstance(other, PolyDiffeo):
            return NotImplemented
        return self.dim == other.dim and self.forward == other.forward

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.dim, self.forward))
            _set_hash(self, h)
        return h

    def __repr__(self):
        body = ", ".join(c.to_str() for c in self.forward)
        name = f" {self.label!r}" if self.label else ""
        return f"PolyDiffeo{name}[{body}]"


# The slot descriptors' setters, bound once: the constructors fill the
# slots through them because ``__setattr__`` refuses every assignment.
(
    _set_dim,
    _set_forward,
    _set_inverse,
    _set_factors,
    _set_label,
    _set_degree,
    _set_hash,
) = (PolyDiffeo.__dict__[name].__set__ for name in PolyDiffeo.__slots__)


def _fill_inverses(top: PolyDiffeo):
    """Build the inverse of the composite ``top``, and first those of the
    composites it was built from that still lack one, innermost first and
    without recursion.

    The inverse of outer·inner is inner^-1·outer^-1.  It is refused under
    the cap the composite was built with when deg(inner^-1)·deg(outer^-1)
    exceeds it, which can happen in dimension >= 3 only.
    """
    stack = [top]
    while stack:
        g = stack[-1]
        if g._inverse is not None:
            stack.pop()
            continue
        outer, inner, cap = g._factors
        pending = [f for f in (outer, inner) if f._inverse is None]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        bound = _map_degree(inner._inverse) * _map_degree(outer._inverse)
        if bound > cap:
            raise DegreeCapExceededError(
                f"{g.label}^-1" if g.label else "composite inverse", bound, cap
            )
        _set_inverse(g, tuple(c.compose(outer._inverse) for c in inner._inverse))
        _set_factors(g, None)


class GroupPresentation:
    """A finite labelled generating set acting on R^n.

    Construction checks each generator against every supplied form and
    raises ``InvarianceError`` naming the first offending pair, so a
    presentation object always encodes a genuine subgroup of the
    invariance group of those forms.
    """

    __slots__ = ("dim", "generators", "preserved_forms", "degree_cap")

    def __init__(
        self,
        generators: Sequence[PolyDiffeo],
        preserved_forms: Sequence[PolyForm] = (),
        *,
        degree_cap: int = DEFAULT_DEGREE_CAP,
        _trusted: bool = False,
    ):
        gens = tuple(generators)
        if not gens:
            raise ValueError("a presentation needs at least one generator")
        dim = gens[0].dim
        for g in gens:
            if g.dim != dim:
                raise DimensionMismatchError("generators act on different spaces")
        kept = tuple(preserved_forms)
        for omega in kept:
            if omega.dim != dim:
                raise DimensionMismatchError("form and generators live on different spaces")
            if _trusted:
                continue
            for g in gens:
                if not g.preserves(omega):
                    raise InvarianceError(
                        f"generator {g.label or repr(g)} does not preserve "
                        f"the degree-{omega.degree} form {omega.to_str()}"
                    )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "preserved_forms", kept)
        object.__setattr__(self, "degree_cap", int(degree_cap))

    def __setattr__(self, name, value):
        raise AttributeError("GroupPresentation is immutable")

    def generator(self, label: str) -> PolyDiffeo:
        for g in self.generators:
            if g.label == label:
                return g
        raise KeyError(f"no generator labelled {label!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.generators)

    def word(self, letters: Sequence[int]) -> PolyDiffeo:
        """Multiply out a word in the generators.

        Each letter is a 1-based generator index, negated for the
        inverse; the empty word is the identity.  Letters apply left to
        right as maps: word [1, 2] is generators[0] composed after
        generators[1] under (g.h)(x) = g(h(x)).

        The result equals the product id·g_1·g_2··· in forward map, inverse
        and label, but the first letter is not composed onto the identity:
        id·g_1 takes g_1's forward map and, when it is known and within the
        cap, g_1's inverse; otherwise its inverse is built on first read as
        a composite's, under the same cap.
        """
        cap = self.degree_cap
        out = None
        for letter in letters:
            if letter == 0 or abs(letter) > len(self.generators):
                raise ValueError(f"letter {letter} out of range")
            g = self.generators[abs(letter) - 1]
            if letter < 0:
                g = g.inverted()
            if out is not None:
                out = out.compose(g, degree_cap=cap)
                continue
            label = f"id*{g.label}" if g.label else ""
            if g._degree > cap:
                raise DegreeCapExceededError(label or "composite", g._degree, cap)
            if g._inverse is not None and _map_degree(g._inverse) <= cap:
                out = PolyDiffeo._raw(g.forward, g._inverse, label)
            else:
                factors = (PolyDiffeo.identity(self.dim), g, cap)
                out = PolyDiffeo._raw(g.forward, None, label, factors)
        return PolyDiffeo.identity(self.dim) if out is None else out

    def sample_words(
        self, count: int, max_length: int, seed: int
    ) -> list[PolyDiffeo]:
        """Deterministically sample ``count`` nonempty words.

        Uses ``random.Random(seed)`` only, so the same arguments always
        return the same group elements in the same order.  Degree-capped
        draws are retried with a fresh word rather than surfaced; when
        the retries run out, the error names the largest bound refused.
        """
        rng = random.Random(seed)
        k = len(self.generators)
        out: list[PolyDiffeo] = []
        attempts = 0
        refused = 0  # the largest degree bound the cap refused
        while len(out) < count:
            attempts += 1
            if attempts > 50 * count + 100:
                raise DegreeCapExceededError("sample_words", refused, self.degree_cap)
            length = rng.randint(1, max_length)
            letters = []
            for _ in range(length):
                idx = rng.randint(1, k)
                if rng.random() < 0.5:
                    idx = -idx
                letters.append(idx)
            try:
                out.append(self.word(letters))
            except DegreeCapExceededError as exc:
                refused = max(refused, exc.degree)
        return out
