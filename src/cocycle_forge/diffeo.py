"""Polynomial diffeomorphisms of R^n carried with explicit inverses.

A ``PolyDiffeo`` stores both directions of a polynomial bijection and
checks at construction that they really compose to the identity, so
invertibility never has to be decided later.  Groups of such maps are
described by a ``GroupPresentation``: a list of labelled generators,
each of which is required to preserve every distinguished form.

Composition can blow up polynomial degree exponentially (a shear of
degree d composed with itself k times reaches degree d^k), so every
composition is guarded by a degree cap that raises
``DegreeCapExceededError`` instead of silently grinding.
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


class PolyDiffeo:
    """A polynomial bijection of R^n together with its polynomial inverse.

    Equality and hashing look only at the forward components, so two
    routes to the same map (for instance ``g.compose(g.inverted())`` and
    ``identity``) compare equal regardless of labels.
    """

    __slots__ = ("dim", "forward", "inverse", "label", "_degree", "_hash")

    def __init__(
        self,
        forward: Sequence[Polynomial],
        inverse: Sequence[Polynomial],
        label: str = "",
        *,
        _trusted: bool = False,
    ):
        fwd = tuple(forward)
        inv = tuple(inverse)
        if not fwd:
            raise ValueError("a diffeomorphism needs at least one component")
        dim = fwd[0].dim
        _check_components(fwd, dim, "forward map")
        _check_components(inv, dim, "inverse map")
        if not _trusted:
            ident = tuple(Polynomial.variable(dim, i) for i in range(dim))
            if tuple(f.compose(inv) for f in fwd) != ident:
                raise ValueError(f"forward o inverse is not the identity ({label or 'unlabelled'})")
            if tuple(f.compose(fwd) for f in inv) != ident:
                raise ValueError(f"inverse o forward is not the identity ({label or 'unlabelled'})")
        _set_dim(self, dim)
        _set_forward(self, fwd)
        _set_inverse(self, inv)
        _set_label(self, str(label))
        _set_degree(self, max(c.degree() for c in fwd + inv))
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyDiffeo is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> PolyDiffeo:
        xs = tuple(Polynomial.variable(dim, i) for i in range(dim))
        return cls(xs, xs, "id", _trusted=True)

    @classmethod
    def translation(cls, vector: Sequence, label: str = "") -> PolyDiffeo:
        vec = tuple(map(as_fraction, vector))
        xs = [Polynomial.variable(len(vec), i) for i in range(len(vec))]
        fwd = tuple(x + c for x, c in zip(xs, vec))
        inv = tuple(x - c for x, c in zip(xs, vec))
        if not label:
            label = "T(" + ",".join(map(fraction_to_str, vec)) + ")"
        return cls(fwd, inv, label, _trusted=True)

    @classmethod
    def linear(cls, matrix: Sequence[Sequence], label: str = "") -> PolyDiffeo:
        """The map x -> A x for an invertible rational matrix A."""
        rows = [[as_fraction(v) for v in row] for row in matrix]
        dim = len(rows)
        for row in rows:
            if len(row) != dim:
                raise DimensionMismatchError("linear map needs a square matrix")
        try:
            inv_rows = invert_matrix(rows)
        except ValueError:
            raise ValueError(f"matrix for {label or 'linear map'} is singular") from None

        def as_map(mat):
            out = []
            for i in range(dim):
                acc = Polynomial.zero(dim)
                for j in range(dim):
                    if mat[i][j]:
                        acc = acc + Polynomial.variable(dim, j) * mat[i][j]
                out.append(acc)
            return tuple(out)

        return cls(as_map(rows), as_map(inv_rows), label or "linear", _trusted=True)

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
        if any(exp[axis] for exp in poly.terms):
            raise ValueError(f"shear polynomial may not involve x{axis + 1}")
        xs = [Polynomial.variable(dim, i) for i in range(dim)]
        fwd = (*xs[:axis], xs[axis] + poly, *xs[axis + 1 :])
        inv = (*xs[:axis], xs[axis] - poly, *xs[axis + 1 :])
        return cls(fwd, inv, label or f"shear{axis + 1}", _trusted=True)

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        """The larger of the forward and the inverse map's degrees."""
        return self._degree

    def is_identity(self) -> bool:
        return self.forward == tuple(
            Polynomial.variable(self.dim, i) for i in range(self.dim)
        )

    def apply(self, point: Sequence) -> tuple:
        pt = as_point(point, self.dim)
        return tuple(c.evaluate(pt) for c in self.forward)

    def apply_inverse(self, point: Sequence) -> tuple:
        pt = as_point(point, self.dim)
        return tuple(c.evaluate(pt) for c in self.inverse)

    # -- group structure ---------------------------------------------------

    def compose(self, other: PolyDiffeo, *, degree_cap: int = DEFAULT_DEGREE_CAP) -> PolyDiffeo:
        """The composite map x -> self(other(x)).

        The degree of a composite is bounded by the product of the two
        degrees, and the cap is enforced on that a-priori bound — before
        any expansion happens — so a runaway word is refused instead of
        computed.  Cancellation below the bound (as in g composed with
        its own inverse) is therefore not credited; raise the cap if a
        legitimately tame word is refused.
        """
        if self.dim != other.dim:
            raise DimensionMismatchError("composing maps of different dimensions")
        bound = self.degree() * other.degree()
        label = f"{self.label}*{other.label}" if self.label and other.label else ""
        if bound > degree_cap:
            raise DegreeCapExceededError(label or "composite", bound, degree_cap)
        fwd = tuple(c.compose(other.forward) for c in self.forward)
        inv = tuple(c.compose(self.inverse) for c in other.inverse)
        return PolyDiffeo(fwd, inv, label, _trusted=True)

    def inverted(self) -> PolyDiffeo:
        label = f"{self.label}^-1" if self.label else ""
        return PolyDiffeo(self.inverse, self.forward, label, _trusted=True)

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
_set_dim, _set_forward, _set_inverse, _set_label, _set_degree, _set_hash = (
    PolyDiffeo.__dict__[name].__set__ for name in PolyDiffeo.__slots__
)


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
        """
        out = PolyDiffeo.identity(self.dim)
        for letter in letters:
            if letter == 0 or abs(letter) > len(self.generators):
                raise ValueError(f"letter {letter} out of range")
            g = self.generators[abs(letter) - 1]
            if letter < 0:
                g = g.inverted()
            out = out.compose(g, degree_cap=self.degree_cap)
        return out

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
