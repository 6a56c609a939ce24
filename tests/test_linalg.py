"""Sparse exact linear algebra against brute-force oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nlielab.fields import GF, QQ
from nlielab.linalg import (
    Span,
    envelope_dim,
    annihilator,
    invert_dense,
    irreducible,
    kernel,
    mat_mul,
    matrix_of,
    nullspace,
    vec_add_scaled,
)

F5 = GF(5)


@pytest.fixture(scope="module")
def sympy():
    """sympy's exact Matrix, an elimination independent of ``Span``."""
    return pytest.importorskip("sympy")


def to_sympy(sympy, dense):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                         for row in dense])


def from_sympy(entries) -> dict:
    return {j: Fraction(int(c.p), int(c.q)) for j, c in enumerate(entries) if c}


def matrices(field, max_rows=5, max_cols=5):
    """(rows, ncols): a sparse matrix as its row dicts and column count."""
    def build(entries, nrows, ncols):
        rows = [{} for _ in range(nrows)]
        for (i, j, v) in entries:
            rows[i % nrows][j % ncols] = field.scalar(v)
        return [{k: v for k, v in r.items() if v} for r in rows], ncols

    return st.builds(
        build,
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(-6, 6)), max_size=12),
        st.integers(1, max_rows),
        st.integers(1, max_cols),
    )


def span_of(field, rows) -> Span:
    span = Span(field)
    for r in rows:
        span.insert(r)
    return span


def matvec(field, rows, x: dict):
    out = {}
    for i, row in enumerate(rows):
        acc = field.zero()
        for j, c in row.items():
            acc = acc + c * x.get(j, field.zero())
        if acc:
            out[i] = acc
    return out


@given(matrices(QQ))
def test_rank_plus_nullity(m):
    rows, ncols = m
    assert span_of(QQ, rows).dim + len(nullspace(QQ, rows, ncols)) == ncols


@given(matrices(F5))
def test_rank_plus_nullity_mod_p(m):
    rows, ncols = m
    assert span_of(F5, rows).dim + len(nullspace(F5, rows, ncols)) == ncols


@given(matrices(QQ))
def test_nullspace_vectors_are_solutions(m):
    rows, ncols = m
    for v in nullspace(QQ, rows, ncols):
        assert matvec(QQ, rows, v) == {}


@given(matrices(QQ))
def test_rref_pivots_are_unit_columns(m):
    # a span's rows are the reduced row echelon form of what it holds
    span = span_of(QQ, m[0])
    assert span.pivots == sorted(span.pivots)
    for i, j in enumerate(span.pivots):
        assert span.rows[i][j] == QQ.one()
        for k in range(span.dim):
            if k != i:
                assert j not in span.rows[k]


def test_span_dedupes_dependent_vectors():
    s = Span(QQ)
    one = QQ.one()
    assert s.insert({0: one, 1: one}) is True
    assert s.insert({0: QQ.scalar(2), 1: QQ.scalar(2)}) is False
    assert s.dim == 1
    assert s.insert({1: one}) is True
    assert s.dim == 2
    assert s.contains({0: QQ.scalar(5)})
    assert not s.contains({2: one})


@given(vecs=st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=1,
                     max_size=6))
def test_span_dim_matches_matrix_rank(sympy, vecs):
    s = Span(QQ)
    for v in vecs:
        s.insert({j: QQ.scalar(c) for j, c in enumerate(v) if c})
    assert s.dim == sympy.Matrix(vecs).rank()


small_rationals = st.builds(QQ.scalar, st.integers(-2, 2), st.integers(1, 3))


def dense_matrices(nrows, ncols):
    return st.lists(st.lists(small_rationals, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@given(data=st.data())
def test_elimination_matches_sympy(sympy, data):
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    dense = data.draw(dense_matrices(nrows, ncols))
    rows = [{j: c for j, c in enumerate(r) if c} for r in dense]
    ref, ref_pivots = to_sympy(sympy, dense).rref()
    span = span_of(QQ, rows)
    assert tuple(span.pivots) == ref_pivots
    assert span.rows == [from_sympy(ref.row(i)) for i in range(len(ref_pivots))]
    basis = nullspace(QQ, rows, ncols)
    assert basis == [from_sympy(v) for v in to_sympy(sympy, dense).nullspace()]
    columns = [{i: dense[i][j] for i in range(nrows) if dense[i][j]} for j in range(ncols)]
    assert kernel(QQ, columns) == basis


@given(data=st.data())
def test_invert_dense_matches_sympy(sympy, data):
    n = data.draw(st.integers(1, 4))
    dense = data.draw(dense_matrices(n, n))
    ref = to_sympy(sympy, dense)
    if ref.det() == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            invert_dense(QQ, dense)
        return
    inv = invert_dense(QQ, dense)
    assert all(len(row) == n for row in inv)
    assert ([{j: c for j, c in enumerate(row) if c} for row in inv]
            == [from_sympy(ref.inv().row(i)) for i in range(n)])


def test_vec_add_scaled_cancels():
    target = {0: QQ.one(), 1: QQ.scalar(2)}
    vec_add_scaled(target, {0: QQ.one(), 2: QQ.one()}, QQ.scalar(-1))
    assert target == {1: QQ.scalar(2), 2: QQ.scalar(-1)}
    target = {0: 1, 1: 2}  # over F_5 each written entry is reduced
    vec_add_scaled(target, {0: 3, 2: 1, 3: 4}, 3, 5)
    assert target == {1: 2, 2: 3, 3: 2}


def full_scan_reduce(span: Span, vec: dict) -> dict:
    """Reduction by every pivot row in pivot order: the definition that
    the pivot-indexed ``Span.reduce`` shortcuts."""
    v = dict(vec)
    for key, row in zip(span.pivots, span.rows):
        c = v.get(key)
        if c is not None:
            vec_add_scaled(v, row, -c, span.field.p)
    return v


def sparse_vectors(field, nkeys=8):
    return st.dictionaries(st.integers(0, nkeys - 1), st.integers(-4, 4), max_size=nkeys).map(
        lambda d: {k: field.scalar(c) for k, c in d.items() if field.scalar(c)})


@pytest.mark.parametrize("field", [QQ, F5], ids=["QQ", "GF5"])
@given(data=st.data())
def test_span_reduce_matches_the_full_pivot_scan(field, data):
    stream = data.draw(st.lists(sparse_vectors(field), max_size=8))
    probes = data.draw(st.lists(sparse_vectors(field), max_size=4))
    s = Span(field)
    for vec in stream:
        s.insert(vec)
        assert s.pivot_rows == dict(zip(s.pivots, s.rows))
        assert all(s.pivot_rows[p] is row for p, row in zip(s.pivots, s.rows))
        for i, row in enumerate(s.rows):
            assert row[s.pivots[i]] == field.one()
            assert not any(p in row for j, p in enumerate(s.pivots) if j != i)
        for w in stream + probes:
            assert s.reduce(w) == full_scan_reduce(s, w)


def nullspace_per_column(field, rows, ncols):
    """``nullspace`` by its definition, one free column at a time: {f: 1},
    then -row[f] at each pivot whose RREF row holds f, in span order."""
    span = span_of(field, rows)
    basis = []
    for f in range(ncols):
        if f in span.pivot_rows:
            continue
        v = {f: field.one()}
        for col, row in zip(span.pivots, span.rows):
            if row.get(f):
                v[col] = -row[f]
        basis.append(field.reduced(v))
    return basis


@pytest.mark.parametrize("field", [QQ, F5, GF(7)], ids=["QQ", "GF5", "GF7"])
@given(data=st.data())
def test_nullspace_matches_the_per_column_definition(field, data):
    rows, ncols = data.draw(matrices(field, max_rows=7, max_cols=9))
    got, ref = nullspace(field, rows, ncols), nullspace_per_column(field, rows, ncols)
    assert [list(v.items()) for v in got] == [list(v.items()) for v in ref]


def square_matrices(field, dim=3):
    return st.dictionaries(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                           st.integers(-3, 3), max_size=dim * dim).map(
        lambda d: {k: field.scalar(c) for k, c in d.items() if field.scalar(c)})


@pytest.mark.parametrize("field", [QQ, F5], ids=["QQ", "GF5"])
@given(data=st.data())
def test_mat_mul_matches_the_dense_product(field, data):
    a, b = data.draw(square_matrices(field)), data.draw(square_matrices(field))
    zero = field.zero()
    dense = {}
    for i in range(3):
        for j in range(3):
            c = zero
            for k in range(3):
                c = c + a.get((i, k), zero) * b.get((k, j), zero)
            if c:
                dense[(i, j)] = c
    assert mat_mul(a, b, field.p) == field.reduced(dense)


def test_envelope_dim_of_known_matrix_sets():
    one = QQ.one()
    nilpotent = {(0, 1): one, (1, 2): one}       # 1, N, N^2
    assert envelope_dim(QQ, [nilpotent], 3) == 3
    e12, e21 = {(0, 1): one}, {(1, 0): one}      # all of End(Q^2)
    assert envelope_dim(QQ, [e12, e21], 2) == 4
    assert envelope_dim(QQ, [], 2) == 1          # the identity alone
    diagonal = {(0, 0): one, (1, 1): QQ.scalar(2)}
    assert envelope_dim(QQ, [diagonal], 2) == 2


def test_irreducible_on_the_three_verdicts():
    one = QQ.one()
    # a rotation of QQ^2 leaves no basis line invariant, yet its envelope
    # QQ[i] is 2-dim: over QQ neither criterion decides
    rotation = {(0, 1): -one, (1, 0): one}
    assert irreducible(QQ, [rotation], 2) == (None, 2)
    # e_0 is fixed (e_1 -> e_0): the orbit of e_0 is a 1-dim invariant line
    assert irreducible(QQ, [{(0, 1): one}], 2) == (False, (0, 1))
    e12, e21 = {(0, 1): one}, {(1, 0): one}
    assert irreducible(QQ, [e12, e21], 2) == (True, None)


def test_matrix_of_and_annihilator():
    one = QQ.one()
    assert matrix_of([{1: one}, {}, {0: QQ.scalar(2)}]) == {(1, 0): one, (0, 2): 2}
    # u0 sends (v0, v1) to (e0, 0), u1 to (e0, e1) and u2 to (2 e0, e1):
    # only u0 + u1 - u2 kills both
    images = [[{0: one}, {}], [{0: one}, {1: one}], [{0: QQ.scalar(2)}, {1: one}]]
    ann = annihilator(QQ, images)
    assert len(ann) == 1
    c = ann[0]
    assert c[0] == c[1] == -c[2] != 0
    assert annihilator(QQ, [[{}], [{}]]) == [{0: one}, {1: one}]
