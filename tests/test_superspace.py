"""Parity-graded spaces and the coordinate dicts of their vectors."""

import pytest
from hypothesis import given, strategies as st

from nlielab.fields import QQ
from nlielab.liegen import generate_subalgebra
from nlielab.linalg import vec_add_scaled
from nlielab.nlie import FiniteNAryAlgebra
from nlielab.superspace import EVEN, ODD, SuperSpace
from nlielab.universal import WElement, full_component


def space22():
    return SuperSpace(QQ, ("a", "b", "x", "y"), (EVEN, EVEN, ODD, ODD))


coeffs = st.lists(st.integers(-9, 9), min_size=4, max_size=4)


def vec(cs):
    return {i: c for i, c in enumerate(cs) if c}


def plus(*terms):
    """sum of c * u over the (c, u) terms, by the one sparse add-scaled helper"""
    out = {}
    for c, u in terms:
        vec_add_scaled(out, u, c)
    return out


@given(coeffs, coeffs)
def test_vector_space_axioms(cs, ds):
    u, v = vec(cs), vec(ds)
    assert plus((1, u), (1, v)) == plus((1, v), (1, u))
    assert plus((1, u), (-1, v)) == plus((1, u), (1, plus((-1, v))))
    assert plus((3, plus((1, u), (1, v)))) == plus((3, u), (3, v))
    assert plus((0, u)) == {} == plus((1, u), (-1, u))


def test_parity_of_vectors():
    V = space22()
    assert V.parity_of({}) == EVEN
    assert V.parity_of({0: 1}) == EVEN
    assert V.parity_of({3: 1}) == ODD
    assert V.parity_of(vec([1, 2, 0, 0])) == EVEN
    assert V.parity_of(vec([0, 0, 1, -1])) == ODD
    assert V.parity_of(vec([1, 0, 1, 0])) is None
    # a vector of W(V)'s bottom degree reads the same parity
    assert [w.parity() for w in full_component(V, -1)] == [EVEN, EVEN, ODD, ODD]
    assert WElement(V, -1, {((), i): c for i, c in vec([1, 0, 1, 0]).items()}).parity() is None


def test_reversed_flips_parities():
    V = space22()
    W = V.reversed()
    assert W.dims() == (2, 2)
    assert W.parities == (ODD, ODD, EVEN, EVEN)
    assert W.reversed() == V
    assert W != V


def test_constructor_validation():
    with pytest.raises(ValueError):
        SuperSpace(QQ, ("a", "a"), (0, 0))
    with pytest.raises(ValueError):
        SuperSpace(QQ, ("a", "b"), (0,))
    with pytest.raises(ValueError):
        SuperSpace(QQ, ("a",), (2,))


def test_cross_space_operations_rejected():
    # a seed over the parity reversal does not generate over V
    V = space22()
    mu = full_component(V.reversed(), 1)[0]
    with pytest.raises(ValueError):
        generate_subalgebra(V, mu)
    assert generate_subalgebra(V.reversed(), mu)[0].dim(-1) == 4


def test_vector_repr_is_sorted():
    V = space22()
    assert V.show({3: QQ.one(), 0: QQ.scalar(-2)}) == "-2*a + 1*y"
    assert V.show({}) == "0"
    # the finite carrier and W(V)'s bottom degree render through it
    assert FiniteNAryAlgebra(V, 2, 0, {}).show({2: 3}) == "3*x"
    assert repr(WElement(V, -1, {((), 1): -1})) == "W[deg=-1](-1*b)"
