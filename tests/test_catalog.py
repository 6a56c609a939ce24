"""The four bracket families and the determinant-bracket lab."""

import pytest
from hypothesis import given, strategies as st

from nlielab.catalog import (
    GeneralizedJacobianNAry,
    algebra_O,
    algebra_S,
    algebra_SW,
    algebra_W,
    dzhumadildaev_closed,
    monomials_upto,
    parse_form,
    serialize_form,
)
from nlielab.fields import GF, QQ
from nlielab.linalg import invert_dense
from nlielab.multilinear import koszul_sort
from nlielab.nlie import check_filippov
from nlielab.polysuper import DiffOp, SuperPolyRing


def test_permutation_sign_and_inversion():
    assert koszul_sort((0, 1, 2)) == ((0, 1, 2), 1)
    assert koszul_sort((1, 0, 2)) == ((0, 1, 2), -1)
    assert koszul_sort((2, 0, 1)) == ((0, 1, 2), 1)
    assert koszul_sort((1, 0, 1))[1] == 0
    B = [[QQ.scalar(2), QQ.one()], [QQ.one(), QQ.one()]]
    Binv = invert_dense(QQ, B)
    # B * Binv = 1
    for i in range(2):
        for j in range(2):
            s = sum((B[i][k] * Binv[k][j] for k in range(2)), QQ.zero())
            assert s == (QQ.one() if i == j else QQ.zero())


def test_cross_product_values():
    alg = algebra_O(3)
    e = [alg.space.basis_vector(i) for i in range(4)]
    assert alg.bracket_keys((0, 1, 2)) == e[3]
    assert alg.bracket_keys((0, 1, 3)) == -e[2]
    assert alg.bracket_keys((0, 2, 3)) == e[1]
    assert alg.bracket_keys((1, 2, 3)) == -e[0]


def test_rescaled_form_rescales_the_bracket():
    n = 3
    base = algebra_O(n)
    scaled_form = [[QQ.scalar(3) if i == j else QQ.zero() for j in range(n + 1)] for i in range(n + 1)]
    scaled = algebra_O(n, form=scaled_form)
    # inverse form scales by 1/3, so every bracket does too
    for key, val in base.table.items():
        assert scaled.bracket_keys(key) == val.scale(QQ.scalar(1, 3))
    assert check_filippov(scaled, mode="full").ok


def test_non_diagonal_form_still_satisfies_jacobi():
    form = [
        [2, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    alg = algebra_O(3, form=form)
    assert check_filippov(alg, mode="full").ok
    assert alg.form[0][0] == QQ.scalar(2)


def test_form_validation():
    with pytest.raises(ValueError):
        algebra_O(3, form=[[1, 0], [0, 1]])  # wrong size
    bad = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError):
        algebra_O(3, form=bad)  # not symmetric
    with pytest.raises(ValueError):
        algebra_O(1)


def test_form_io_roundtrip():
    rows = [[QQ.scalar(1), QQ.scalar(1, 2)], [QQ.scalar(1, 2), QQ.scalar(-3)]]
    text = serialize_form(rows)
    assert parse_form(text, QQ) == rows
    assert parse_form("1, 0\n0, 1\n# comment\n", QQ) == [[QQ.one(), QQ.zero()], [QQ.zero(), QQ.one()]]
    with pytest.raises(ValueError):
        parse_form("   \n", QQ)


def test_monomials_upto_graded_order():
    ms = list(monomials_upto(2, 2))
    assert ms[0] == (0, 0)
    assert set(ms) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    assert [sum(m) for m in ms] == sorted(sum(m) for m in ms)
    assert (0, 0) not in monomials_upto(2, 2, include_constant=False)


def test_jacobian_bracket_window_jacobi():
    alg = algebra_S(3)
    keys = [k for k in alg.window_keys(2)]
    rep = check_filippov(alg, keys=keys, mode="sorted")
    assert rep.ok, rep.witness


def test_jacobian_quotient_drops_constants():
    from nlielab.catalog import JacobianNAry

    coords = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    unquotiented = JacobianNAry(QQ, 3, quotient=False)
    assert unquotiented.bracket_keys(coords) == {(0, 0, 0): QQ.one()}
    assert algebra_S(3).bracket_keys(coords) == {}
    assert (0, 0, 0) not in algebra_S(3).window_keys(2)
    assert (0, 0, 0) in unquotiented.window_keys(2)


def sympy_bracket(sympy, field, exps, bordered):
    """The determinant bracket of the monomials x^a, a in ``exps``, by
    sympy's ``Matrix.jacobian``: row i holds d/dx_i of every monomial,
    under a row of the monomials themselves when ``bordered``; the
    constant term is dropped when not."""
    xs = sympy.symbols("x1:%d" % (len(exps[0]) + 1))
    fs = sympy.Matrix([sympy.prod([x ** e for x, e in zip(xs, a)]) for a in exps])
    mat = fs.jacobian(xs).T
    if bordered:
        mat = fs.T.col_join(mat)
    out = {}
    for monom, c in sympy.Poly(sympy.expand(mat.det()), *xs).terms():
        v = field.coerce(int(c))
        if v and (bordered or any(monom)):
            out[monom] = v
    return out


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["QQ", "GF10007"])
@pytest.mark.parametrize("bordered", [False, True], ids=["S", "W"])
@given(data=st.data())
def test_monomial_brackets_match_the_sympy_jacobian(field, bordered, data):
    sympy = pytest.importorskip("sympy")
    n = data.draw(st.integers(2, 4))
    nvars = n - 1 if bordered else n
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=n, max_size=n))
    alg = (algebra_W if bordered else algebra_S)(n, field)
    assert alg.bracket_keys(tuple(exps)) == sympy_bracket(sympy, field, exps, bordered)


def test_bordered_bracket_window_jacobi():
    alg = algebra_W(3)
    keys = [k for k in alg.window_keys(2)]
    rep = check_filippov(alg, keys=keys, mode="sorted")
    assert rep.ok, rep.witness
    # constants do matter here: the bordered row sees them
    val = alg.bracket_keys(((0, 0), (1, 0), (0, 1)))
    assert val == {(0, 0): QQ.one()}


def test_tagged_bracket_values_and_window_jacobi():
    alg = algebra_SW(3)
    # tags 1, 2 with tag 1 doubled; the Wronskian pair is (1, x), so the
    # coefficient is the exponent difference 0 - 1 and the result keeps tag 1
    val = alg.bracket_keys(((1, 0), (1, 1), (2, 1)))
    assert val == {(1, 1): -QQ.one()}
    alt = algebra_SW(3, alt_sign=True)
    assert alt.bracket_keys(((1, 0), (1, 1), (2, 1))) == {(1, 1): QQ.one()}
    tags_missing = alg.bracket_keys(((1, 0), (1, 1), (1, 2)))
    assert tags_missing == {}
    rep = check_filippov(alg, keys=alg.window_keys(2), mode="sorted")
    assert rep.ok, rep.witness


def test_catalog_over_prime_fields():
    assert check_filippov(algebra_O(3, field=GF(5)), mode="full").ok
    repS = check_filippov(algebra_S(3, field=GF(7)), keys=algebra_S(3, field=GF(7)).window_keys(2), mode="sorted")
    assert repS.ok


def derivation_sets():
    R1 = SuperPolyRing(QQ, 1, 0)
    R2 = SuperPolyRing(QQ, 2, 0)
    x = R1.x(1)
    return [
        (R1, [DiffOp.ddx(R1, 1)]),
        (R1, [DiffOp.ddx(R1, 1), DiffOp.ddx(R1, 1, coeff=x)]),
        (R2, [DiffOp.ddx(R2, 1), DiffOp.ddx(R2, 2)]),
        (R1, [DiffOp.ddx(R1, 1), DiffOp.ddx(R1, 1, coeff=x * x)]),
        (R2, [DiffOp.ddx(R2, 1, coeff=R2.x(1)), DiffOp.ddx(R2, 2, coeff=R2.x(1)) + DiffOp.ddx(R2, 1)]),
    ]


def test_span_closure_of_derivation_sets():
    want = [True, True, True, False, False]
    for (ring, ops), expected in zip(derivation_sets(), want):
        closed, witness = dzhumadildaev_closed(ops)
        assert closed is expected
        assert (witness is None) is expected


def test_determinant_bracket_of_proportional_rows_vanishes():
    # set 4: the rows d/dx and x^2 d/dx are proportional over the ring,
    # so every bordered determinant collapses
    ring, ops = derivation_sets()[3]
    alg = GeneralizedJacobianNAry(QQ, 1, ops, bordered=True)
    for keys in [((0,), (1,), (2,)), ((1,), (2,), (3,)), ((0,), (2,), (5,))]:
        assert alg.raw_bracket(keys) == {}


def test_determinant_bracket_recombination_invariance():
    # set 5 differs from {x d1, x d2} by adding row 1 to row 2, which
    # leaves every determinant unchanged
    ring, ops = derivation_sets()[4]
    plain = [DiffOp.ddx(ring, 1, coeff=ring.x(1)), DiffOp.ddx(ring, 2, coeff=ring.x(1))]
    a = GeneralizedJacobianNAry(QQ, 2, ops, bordered=True)
    b = GeneralizedJacobianNAry(QQ, 2, plain, bordered=True)
    for keys in [((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1)), ((2, 0), (1, 1), (0, 2))]:
        assert a.raw_bracket(keys) == b.raw_bracket(keys)


def test_generalized_jacobian_rejects_odd_directions():
    R = SuperPolyRing(QQ, 1, 1)
    with pytest.raises(ValueError):
        GeneralizedJacobianNAry(QQ, 1, [DiffOp.ddxi(R, 1)])


def test_generalized_jacobian_rejects_anticommuting_terms():
    # an x-derivative with an odd coefficient passes the constructor, but
    # the entries it makes hold xi_1
    R = SuperPolyRing(QQ, 1, 1)
    alg = GeneralizedJacobianNAry(QQ, 1, [DiffOp.ddx(R, 1, coeff=R.xi(1))])
    with pytest.raises(ValueError, match="anticommuting term"):
        alg.raw_bracket(((1,),))
