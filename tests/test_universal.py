"""The graded algebra of supersymmetric maps: product axioms and spans."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from nlielab.fields import QQ
from nlielab.liegen import closure_model
from nlielab.linalg import vec_add_scaled
from nlielab.multilinear import MultiMap, canonical_tuples, koszul_sort
from nlielab.superspace import SuperSpace
from nlielab.universal import (
    GradedSubalgebra,
    WElement,
    box,
    component_dim,
    full_component,
    is_transitive,
    w_bracket,
)

SPACES = [
    SuperSpace(QQ, ("a", "b"), (0, 0)),
    SuperSpace(QQ, ("a", "x"), (0, 1)),
    SuperSpace(QQ, ("x", "y", "z"), (1, 1, 1)),
    SuperSpace(QQ, ("a", "b", "x"), (0, 0, 1)),
]


def symmetric_keys(space, r):
    """Canonical argument tuples of a supersymmetric r-linear map."""
    return canonical_tuples(range(space.dim), r, space.parities, alternating=False)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("alternating", [False, True])
def test_canonical_tuples_are_the_sorted_survivors(space, alternating):
    # every tuple the sorter keeps nonzero, once, in key-list order
    for r in range(1, 5):
        want = sorted({key for t in product(range(space.dim), repeat=r)
                       for key, sign in [koszul_sort(t, space.parities, alternating)]
                       if sign})
        got = list(canonical_tuples(range(space.dim), r, space.parities, alternating))
        assert got == want


def homogeneous(space, degree, parity):
    return [w for w in full_component(space, degree) if w.parity() == parity]


def draw_element(data, space, degree):
    parities = [p for p in (0, 1) if homogeneous(space, degree, p)]
    parity = data.draw(st.sampled_from(parities))
    basis = homogeneous(space, degree, parity)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    out = WElement.zero(space, degree, parity)
    for c, w in zip(coeffs, basis):
        if c:
            out = out + w.scale(c)
    return out


def as_map(w):
    """An element as the nested dict {argument key: {output index: c}}
    its coordinates (key, i) hold; key () in degree -1."""
    table = {}
    for (key, i), c in w.coords.items():
        table.setdefault(key, {})[i] = c
    return table


def evaluate(m, space, args):
    """A symmetric map's value on any argument tuple, read off its
    canonical key through the Koszul sort."""
    key, sign = koszul_sort(args, space.parities, alternating=False)
    return {i: sign * c for i, c in m.get(key, {}).items()} if sign else {}


def evaluate_expand(m, space, vec, rest):
    """The map with the vector ``vec`` in its first slot and basis
    indices ``rest`` after it."""
    out = {}
    for i, c in vec.items():
        vec_add_scaled(out, evaluate(m, space, (i,) + rest), c)
    return out


def dense_box(f, g):
    """The insertion product by its definition: every canonical key of
    the target arity, every split of its positions."""
    space = f.space
    p, q = f.degree, g.degree
    fm, gm = as_map(f), as_map(g)
    parity = (f.parity() + g.parity()) % 2
    if q == -1:
        a = gm.get((), {})
        if p == 0:
            return WElement(space, -1, {((), i): c
                                        for i, c in evaluate_expand(fm, space, a, ()).items()})
        coords = {(key, i): c for key in symmetric_keys(space, p)
                  for i, c in evaluate_expand(fm, space, a, key).items()}
        return WElement(space, p - 1, coords, parity)
    arity = p + q + 1
    par = space.parities
    coords = {}
    for key in symmetric_keys(space, arity):
        acc = {}
        for gpos in combinations(range(arity), q + 1):
            fpos = tuple(i for i in range(arity) if i not in gpos)
            inner = evaluate(gm, space, tuple(key[i] for i in gpos))
            swaps = sum(1 for a in gpos for b in fpos
                        if b < a and par[key[a]] and par[key[b]])
            outer = evaluate_expand(fm, space, inner, tuple(key[i] for i in fpos))
            vec_add_scaled(acc, outer, -1 if swaps % 2 else 1)
        coords.update(((key, i), c) for i, c in acc.items())
    return WElement(space, arity - 1, coords, parity)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("q", [-1, 0, 1])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_box_matches_the_dense_definition(space, p, q, data):
    f = draw_element(data, space, p)
    g = draw_element(data, space, q)
    got, want = box(f, g), dense_box(f, g)
    assert got == want
    assert got.parity() == want.parity()
    # the coordinates come grouped by key, in canonical key order
    keys = [key for key, _ in got.coords]
    assert keys == sorted(keys)


def test_component_dims_match_enumeration():
    for space in SPACES:
        assert component_dim(space, -2) == 0
        assert component_dim(space, -1) == space.dim
        for d in range(0, 3):
            n_keys = sum(1 for _ in symmetric_keys(space, d + 1))
            assert component_dim(space, d) == space.dim * n_keys
            assert len(full_component(space, d)) == component_dim(space, d)


def test_all_odd_space_component_dims():
    # with three odd generators the symmetric powers cut off at degree 2
    V = SPACES[2]
    assert [component_dim(V, d) for d in (-1, 0, 1, 2, 3)] == [3, 9, 9, 3, 0]


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("degs", [(0, 0), (-1, 0), (0, 1), (1, 1), (-1, 1)])
@settings(max_examples=15)
@given(data=st.data())
def test_bracket_is_superanticommutative(space, degs, data):
    f = draw_element(data, space, degs[0])
    g = draw_element(data, space, degs[1])
    lhs = w_bracket(f, g)
    rhs = w_bracket(g, f)
    sign = -1 if (f.parity() * g.parity()) % 2 == 0 else 1
    assert lhs == rhs.scale(sign)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("degs", [(0, 0, 0), (-1, 0, 0), (-1, 1, 0), (0, 0, 1), (-1, 1, 1)])
@settings(max_examples=10)
@given(data=st.data())
def test_bracket_satisfies_graded_jacobi(space, degs, data):
    f = draw_element(data, space, degs[0])
    g = draw_element(data, space, degs[1])
    h = draw_element(data, space, degs[2])
    eps = -1 if (f.parity() and g.parity()) else 1
    lhs = w_bracket(f, w_bracket(g, h))
    rhs = w_bracket(w_bracket(f, g), h) + w_bracket(g, w_bracket(f, h)).scale(eps)
    assert lhs == rhs


def test_constants_act_trivially_from_the_left():
    V = SPACES[1]
    a, x = full_component(V, -1)
    u = full_component(V, 1)[0]
    assert box(a, u).is_zero()
    assert box(a, u).degree == 0
    with pytest.raises(ValueError):
        box(a, x)  # would land below the bottom


def test_box_plugs_constants_into_the_first_slot():
    V = SPACES[2]
    u = full_component(V, 0)[0]  # sends x to x
    a, b, _ = full_component(V, -1)
    assert box(u, a) == a
    assert box(u, b).is_zero()


def test_elements_hold_span_rows():
    V = SPACES[3]
    v = WElement(V, -1, {((), 0): 2})
    assert v.coords == {((), 0): 2} and v.parity() == 0
    mm = MultiMap(V, 2, 1, {(0, 1): {2: 1}, (0, 2): {0: 3}})
    u = WElement.from_map(mm)
    assert u.degree == 1 and u.parity() == 1
    assert u.coords == {((0, 1), 2): 1, ((0, 2), 0): 3}
    assert as_map(u) == mm.table


def test_basis_elements_outlive_span_growth():
    # the span reduces its rows in place; a basis handed out before
    # stays the element it was
    V = SPACES[0]
    sub = GradedSubalgebra(V, cap=0)
    e00, e01, e10, e11 = full_component(V, 0)
    sub.insert(e00 + e01)
    before = sub.basis(0)
    assert before == [e00 + e01]
    sub.insert(e01)
    assert before == [e00 + e01]
    assert sub.basis(0) == [e00, e01]


def test_degree_mixing_is_rejected():
    V = SPACES[0]
    a = full_component(V, -1)[0]
    u = full_component(V, 0)[0]
    with pytest.raises(ValueError):
        a + u
    with pytest.raises(ValueError):
        WElement(V, -2, {})


def test_repr_renders_the_witness_format():
    # reports print a witness with repr: a map of degree d >= 0 as a
    # MultiMap summary counting distinct argument keys, a constant as
    # its vector
    V = SPACES[3]
    v = WElement(V, -1, {((), 2): QQ.scalar(-1, 3), ((), 0): 2})
    assert repr(v) == "W[deg=-1](2*a + -1/3*x)"
    deg0 = full_component(V, 0)
    u = deg0[0] + deg0[1].scale(3) + deg0[4]
    assert repr(u) == "W[deg=0](MultiMap(arity=1, parity=0, 2 entries))"
    deg2 = full_component(V, 2)
    w = deg2[0] + deg2[1].scale(-2) + deg2[3] + deg2[4]
    assert repr(w) == "W[deg=2](MultiMap(arity=3, parity=0, 2 entries))"
    assert repr(WElement.zero(V, 1, 1)) == "W[deg=1](MultiMap(arity=2, parity=1, 0 entries))"
    assert repr(WElement.zero(V, -1)) == "W[deg=-1](0)"


def test_graded_subalgebra_span_bookkeeping():
    V = SPACES[2]
    sub = GradedSubalgebra(V, cap=2)
    basis = full_component(V, 0)
    assert sub.insert(basis[0]) is True
    assert sub.insert(basis[0].scale(5)) is False  # dependent
    assert sub.insert(basis[1]) is True
    assert sub.dims() == {0: 2}
    assert sub.contains(basis[0] + basis[1].scale(-3))
    assert not sub.contains(basis[2])
    assert sub.insert(WElement.zero(V, 1)) is False
    deep = full_component(V, 2)[0]
    assert sub.insert(deep) is True and sub.degrees() == [0, 2]
    rebuilt = sub.basis(0)
    assert len(rebuilt) == 2 and all(sub.contains(w) for w in rebuilt)


def test_transitivity_of_full_low_degrees():
    V = SPACES[1]
    sub = GradedSubalgebra(V, cap=1)
    for d in (-1, 0, 1):
        for w in full_component(V, d):
            sub.insert(w)
    ok, witness = is_transitive(closure_model(sub, WElement.zero(V, 1)))
    assert ok and witness is None


@settings(max_examples=40)
@given(st.data())
def test_every_closure_model_is_transitive(data):
    # [f, a] = f*a plugs a into the first slot of f, so [f, V] = 0 forces
    # f = 0: no subspace of W(V)_d, d >= 0, placed with V has a kernel
    space = data.draw(st.sampled_from(SPACES))
    top = data.draw(st.integers(0, 2))
    sub = GradedSubalgebra(space, top)
    for v in full_component(space, -1):
        sub.insert(v)
    for _ in range(data.draw(st.integers(1, 4))):
        sub.insert(draw_element(data, space, data.draw(st.integers(0, top))))
    assert is_transitive(closure_model(sub, WElement.zero(space, top))) == (True, None)


@pytest.mark.parametrize("space, f, g, want", [
    # even (a, b), f(a, a) = a, g(a) = a: (f*g)(a, a) = f(g(a), a) + f(g(a), a)
    # = 2a, both splits of the two positions of a giving the same term, so
    # the multiplicity is C(2, 1) = 2
    (SPACES[0], (1, {((0, 0), 0): 1}), (0, {((0,), 0): 1}), {((0, 0), 0): 2}),
    # f(a, a, a) = b, g(a) = a: each of the three positions can take g, and
    # each split gives f(a, a, a) = b, so (f*g)(a, a, a) = 3b = C(3, 1) b
    (SPACES[0], (2, {((0, 0, 0), 1): 1}), (0, {((0,), 0): 1}), {((0, 0, 0), 1): 3}),
    # f(a, b) = b, g(a, a) = b: each of the C(3, 2) = 3 pairs of positions of
    # (a, a, a) gives f(g(a, a), a) = f(b, a) = f(a, b) = b, so 3b
    (SPACES[0], (1, {((0, 1), 1): 1}), (1, {((0, 0), 1): 1}), {((0, 0, 0), 1): 3}),
    # odd (x, y, z), f(x, y) = z, g(z) = y: (f*g)(x, z) = f(g(x), z) - f(g(z), x),
    # the minus because the split taking z before x crosses two odd
    # arguments; g(x) = 0 and f(y, x) = -f(x, y) = -z, so (f*g)(x, z) = z
    (SPACES[2], (1, {((0, 1), 2): 1}), (0, {((2,), 1): 1}), {((0, 2), 2): 1}),
], ids=["twice_repeated_even", "thrice_repeated_even", "inner_pair_on_repeats",
        "odd_split_sign_cancels_swap"])
def test_box_hand_proved_pins(space, f, g, want):
    f, g = WElement(space, *f), WElement(space, *g)
    got = box(f, g)
    assert got.coords == want
    assert got == dense_box(f, g)


def test_box_of_a_mixed_constant_has_no_parity():
    # (a|x), f(a, a) = a and f(a, x) = x, both even; a + x mixes parities:
    # (f*(a + x))(a) = f(a, a) + f(x, a) = a + x and (f*(a + x))(x) = f(a, x) = x
    V = SPACES[1]
    f = WElement(V, 1, {((0, 0), 0): 1, ((0, 1), 1): 1})
    a = WElement(V, -1, {((), 0): 1, ((), 1): 1})
    assert f.parity() == 0 and a.parity() is None
    got = box(f, a)
    assert got.coords == {((0,), 0): 1, ((0,), 1): 1, ((1,), 1): 1}
    assert got.parity() is None
    with pytest.raises(ValueError):
        w_bracket(f, a)


def test_box_of_a_mixed_map_is_the_sum_of_its_parts():
    # f(a) = a + x mixes parities; the product is linear in f, so it is
    # the sum of the products of f's even and odd parts
    V = SPACES[1]
    even, odd = WElement(V, 0, {((0,), 0): 1}), WElement(V, 0, {((0,), 1): 1})
    f = even + odd
    assert f.parity() is None
    g = WElement(V, 1, {((0, 1), 0): 1})  # g(a, x) = a, odd
    got = box(f, g)
    assert got == box(even, g) + box(odd, g)
    assert got.coords == {((0, 1), 0): 1, ((0, 1), 1): 1} and got.parity() is None
    assert box(g, f) == box(g, even) + box(g, odd)
    assert box(g, f).parity() is None
    with pytest.raises(ValueError):
        w_bracket(f, g)


def test_slot_index_is_built_once_per_element():
    # the left operand's slot index is kept on the element, so a closure
    # bracketing one element with every kept one builds it once, and the
    # coordinates it was read from stay as they were
    V = SPACES[3]
    even = homogeneous(V, 1, 0)
    u = even[1] + even[4].scale(2)
    before = dict(u.coords)
    others = homogeneous(V, 0, 0) + homogeneous(V, 0, 1) + full_component(V, -1)
    w_bracket(u, others[0])
    index = u._slots
    assert index is not None
    for v in others[1:]:
        w_bracket(u, v)
        w_bracket(v, u)
    assert u._slots is index
    assert u.coords == before


def test_each_operand_builds_only_its_own_view():
    # the right factor of a product reads its keys only, as a basis
    # element does when mu is composed on it, and a left factor bracketed
    # with constants reads its slot index only
    V = SPACES[3]
    f, g = homogeneous(V, 1, 0)[1], homogeneous(V, 0, 1)[2]
    box(f, g)
    assert f._keys is None and f._slots is not None
    assert g._slots is None and g._keys is not None
    u = homogeneous(V, 1, 1)[0]
    for v in full_component(V, -1):
        w_bracket(u, v)
    assert u._keys is None and u._slots is not None
