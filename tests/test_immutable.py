"""Every value type refuses assignment and deletion through one base."""

import pytest

from cocycle_forge.chains import AffineSimplex, Chain
from cocycle_forge.diffeo import GroupPresentation, PolyDiffeo
from cocycle_forge.forms import PolyForm, PolyVectorField
from cocycle_forge.polynomial import Immutable, Polynomial


def values():
    """One built instance of each value type, every slot filled."""
    area = PolyForm.volume(2)
    t1 = PolyDiffeo.translation([1, 0], "T1")
    simplex = AffineSimplex([[0, 0], [1, 0], [0, 1]])
    hash(simplex)
    return [
        Polynomial.variable(2, 0),
        area,
        PolyVectorField.euler(2),
        t1,
        GroupPresentation([t1], [area]),
        simplex,
        Chain.point([0, 0]),
    ]


@pytest.mark.parametrize("value", values(), ids=lambda v: type(v).__name__)
class TestImmutable:
    def test_inherits_the_base_and_has_no_dict(self, value):
        assert isinstance(value, Immutable)
        assert not hasattr(value, "__dict__")

    def test_every_slot_refuses_deletion_and_assignment(self, value):
        message = f"{type(value).__name__} is immutable"
        for name in type(value).__slots__:
            before = getattr(value, name)
            with pytest.raises(AttributeError) as refused:
                delattr(value, name)
            assert str(refused.value) == message
            with pytest.raises(AttributeError) as refused:
                setattr(value, name, None)
            assert str(refused.value) == message
            assert getattr(value, name) is before

    def test_new_attributes_are_refused(self, value):
        with pytest.raises(AttributeError, match="is immutable$"):
            value.extra = 1
        with pytest.raises(AttributeError, match="is immutable$"):
            del value.extra
