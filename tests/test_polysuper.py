"""Polynomial superalgebra: Leibniz rules, supercommutators, divergence."""

from hypothesis import given, settings, strategies as st

from nlielab.fields import GF, QQ
from nlielab.polysuper import DiffOp, SuperPoly, SuperPolyRing, delta

R = SuperPolyRing(QQ, 2, 2)
R5 = SuperPolyRing(GF(5), 2, 2)


def monos(ring, max_deg=2):
    return st.builds(
        lambda a, x, c: ring.monomial(a, x, c),
        st.tuples(*(st.integers(0, max_deg) for _ in range(ring.m))),
        st.sets(st.integers(1, ring.n)).map(lambda s: tuple(sorted(s))),
        st.integers(-4, 4),
    )


def polys(ring, max_deg=2):
    return st.lists(monos(ring, max_deg), max_size=4).map(
        lambda ms: sum(ms, ring.zero())
    )


@given(polys(R), polys(R), polys(R))
def test_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert (f - f).is_zero()


@given(polys(R), polys(R), polys(R), st.sampled_from([1, -1]))
def test_mul_into_accumulates_the_signed_product(f, g, h, sign):
    out = dict(h.terms)
    assert f.scale(sign).mul_into(out, g) is out
    assert SuperPoly(R, out) == h + (f * g if sign > 0 else -(f * g))
    # accumulating the opposite product cancels back to h, storing no zeros
    f.scale(-sign).mul_into(out, g)
    assert out == h.terms


@given(polys(R5), polys(R5), st.sampled_from([1, -1]))
def test_mul_into_over_a_prime_field(f, g, sign):
    out = f.scale(sign).mul_into({}, g)
    assert SuperPoly(R5, out) == (f * g).scale(sign)
    assert all(out.values())


@given(polys(R), polys(R))
def test_xi_word_products_come_from_the_ring_table(f, g):
    f * g
    table = R.xi_products
    assert sum(len(row) for row in table.values()) <= 4 ** R.n
    for a, row in table.items():
        for b, merged in row.items():
            # the Koszul sign of xi_a xi_b counts the crossings of the merge
            crossings = sum(1 for s in a for t in b if s > t)
            sign = 0 if set(a) & set(b) else -1 if crossings % 2 else 1
            assert merged == (tuple(sorted(a + b)), sign)


@given(polys(R), polys(R))
def test_multiplication_is_supercommutative(f, g):
    for fh in f.homogeneous_parts():
        for gh in g.homogeneous_parts():
            sign = -1 if (fh.parity() and gh.parity()) else 1
            assert fh * gh == (gh * fh).scale(sign)


def test_odd_variables_square_to_zero():
    x1, xi1, xi2 = R.x(1), R.xi(1), R.xi(2)
    assert (xi1 * xi1).is_zero()
    assert xi1 * xi2 == -(xi2 * xi1)
    assert (x1 * xi1) * xi2 == x1 * (xi1 * xi2)
    assert R.monomial((0, 0), (1, 2)).parity() == 0  # two odd factors


@given(polys(R), polys(R))
def test_even_derivative_leibniz(f, g):
    for i in (1, 2):
        assert (f * g).dx(i) == f.dx(i) * g + f * g.dx(i)


@given(polys(R), polys(R))
def test_odd_derivative_super_leibniz(f, g):
    # left derivative: d(fg) = df g + (-1)^{p(f)} f dg on homogeneous f
    for j in (1, 2):
        for fh in f.homogeneous_parts():
            sign = -1 if fh.parity() else 1
            assert (fh * g).dxi(j) == fh.dxi(j) * g + (fh * g.dxi(j)).scale(sign)


def test_left_odd_derivative_positions():
    f = R.monomial((0, 0), (1, 2))
    assert f.dxi(1) == R.xi(2)
    assert f.dxi(2) == -R.xi(1)  # jumping over xi1 costs a sign


def test_euler_counts_selected_variables():
    f = R.monomial((2, 1), (1,))
    assert f.euler() == f.scale(4)
    assert f.euler(xset={1}, xiset=set()) == f.scale(2)
    assert f.euler(xset=set(), xiset={1}) == f.scale(1)


def test_homogeneous_parts_sum_back():
    f = R.x(1) + R.xi(1) + R.x(2) * R.xi(2) + R.one()
    even, odd = f.homogeneous_parts()
    assert even + odd == f
    assert even.parity() == 0 and odd.parity() == 1
    assert f.parity() is None


def ops(ring):
    gens = [("x", 1), ("x", 2), ("xi", 1), ("xi", 2)]

    def build(choices):
        out = DiffOp.zero(ring)
        for (kind, idx), alpha, xis, c in choices:
            coeff = ring.monomial(alpha, xis, c)
            mk = DiffOp.ddx if kind == "x" else DiffOp.ddxi
            out = out + mk(ring, idx, coeff=coeff)
        return out

    return st.lists(
        st.tuples(
            st.sampled_from(gens),
            st.tuples(st.integers(0, 1), st.integers(0, 1)),
            st.sets(st.integers(1, ring.n)).map(lambda s: tuple(sorted(s))),
            st.integers(-3, 3),
        ),
        max_size=3,
    ).map(build)


def hom_parts(X):
    return [p for p in X.homogeneous_parts() if not p.is_zero()]


@settings(max_examples=40)
@given(ops(R), ops(R), polys(R, 1))
def test_bracket_is_the_supercommutator(X, Y, f):
    for Xh in hom_parts(X):
        for Yh in hom_parts(Y):
            sign = -1 if (Xh.parity() and Yh.parity()) else 1
            lhs = Xh.bracket(Yh).apply(f)
            rhs = Xh.apply(Yh.apply(f)) - Yh.apply(Xh.apply(f)).scale(sign)
            assert lhs == rhs


@settings(max_examples=40)
@given(ops(R), ops(R))
def test_divergence_is_a_cocycle_for_the_bracket(X, Y):
    # div[X,Y] = X(div Y) - (-1)^{p(X)p(Y)} Y(div X)
    for Xh in hom_parts(X):
        for Yh in hom_parts(Y):
            sign = -1 if (Xh.parity() and Yh.parity()) else 1
            lhs = Xh.bracket(Yh).divergence()
            rhs = Xh.apply(Yh.divergence()) - Yh.apply(Xh.divergence()).scale(sign)
            assert lhs == rhs


def test_divergence_signs():
    # even summands enter plainly, odd coefficient on an odd direction flips
    X = DiffOp.ddx(R, 1, coeff=R.x(1) * R.x(1))
    assert X.divergence() == R.x(1).scale(2)
    Y = DiffOp.ddxi(R, 1, coeff=R.x(1) * R.xi(1))
    assert Y.divergence() == -R.x(1)
    Z = DiffOp.ddxi(R, 1, coeff=R.xi(1) * R.xi(2))  # even coefficient
    assert Z.divergence() == R.xi(2)


def test_delta_mixed_second_derivatives():
    f = R.x(1) * R.xi(1) + R.x(2) * R.xi(2).scale(3)
    assert delta(f) == R.one().scale(4)
    assert delta(R.x(1) * R.xi(2)).is_zero()
    assert delta(f, pairs=1) == R.one()


def test_vectorize_separates_operators():
    X = DiffOp.ddx(R, 1)
    Y = DiffOp.ddxi(R, 1)
    assert X.vectorize() != Y.vectorize()
    assert (X + Y - X - Y).is_zero()


def test_apply_over_prime_field():
    S = SuperPolyRing(GF(5), 1, 1)
    f = S.monomial((5,), ())
    assert f.dx(1) == S.zero()  # 5 x^4 vanishes mod 5
    X = DiffOp.ddx(S, 1, coeff=S.x(1))
    assert X.apply(S.monomial((3,), ())) == S.monomial((3,), (), 3)
