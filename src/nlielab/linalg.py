"""Exact sparse linear algebra.

Vectors are dicts mapping a key to a nonzero scalar; keys may be ints
or any mutually comparable hashable values (tuples of ints, strings),
which lets the same span machinery hold polynomial monomials, operator
coordinates and multilinear-map coordinates.  No zero is ever stored.
There is one elimination, ``Span.insert``: the pivot of a vector is its
smallest key, and the span keeps its rows in reduced row echelon form.
That form is unique, so every other reduced form is read off a ``Span``:
``rref`` (and through it ``rank``, ``solve_linear``, ``nullspace`` and
``kernel``) and ``invert_dense``.  Matrices multiplied by ``mat_mul``
are dicts {(row, col): c}; the associative envelope of a set of them is
one ``orbit_span``.
"""

from __future__ import annotations

import bisect

from .fields import Field, FieldError

__all__ = ["Span", "SparseMatrix", "rref", "solve_linear", "nullspace", "kernel",
           "invert_dense", "mat_mul", "orbit_span", "envelope_dim"]


def vec_add_scaled(target: dict, src: dict, c) -> None:
    """target += c*src, dropping entries that cancel to zero."""
    for k, v in src.items():
        w = target.get(k)
        if w is None:
            cv = c * v
            if cv:
                target[k] = cv
        else:
            w = w + c * v
            if w:
                target[k] = w
            else:
                del target[k]


class Span:
    """A growing subspace kept in reduced row-echelon form.

    Each stored row is normalized (pivot coefficient 1) and fully
    reduced against the others, so no row holds another row's pivot key.
    Reducing a vector therefore only needs the rows whose pivots occur
    among its own keys, each scaled by the vector's own coefficient.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: list[dict] = []       # kept sorted by pivot key
        self.pivots: list = []           # pivot key of each row
        self.pivot_rows: dict = {}       # pivot key -> its row (the same dict)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        v = dict(vec)
        pivot_rows = self.pivot_rows
        for key, c in vec.items():
            row = pivot_rows.get(key)
            if row is not None:
                vec_add_scaled(v, row, -c)
        return v

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Insert a vector; return True if the span grew."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v.keys())
        pc = v[pivot]
        div = self.field.div
        v = {k: div(val, pc) for k, val in v.items()}
        for row in self.rows:
            c = row.get(pivot)
            if c is not None:
                vec_add_scaled(row, v, -c)
        # keep rows ordered by pivot key for reproducible bases
        pos = bisect.bisect_left(self.pivots, pivot)
        self.pivots.insert(pos, pivot)
        self.rows.insert(pos, v)
        self.pivot_rows[pivot] = v
        return True

    def basis(self) -> list[dict]:
        return [dict(r) for r in self.rows]

    def __iter__(self):
        return iter(self.rows)


def mat_mul(a: dict, b: dict) -> dict:
    """Product of two sparse matrices given as {(row, col): c} dicts."""
    b_rows: dict = {}
    for (k, j), c in b.items():
        b_rows.setdefault(k, {})[j] = c
    rows: dict = {}
    for (i, k), c in a.items():
        row = b_rows.get(k)
        if row:
            vec_add_scaled(rows.setdefault(i, {}), row, c)
    return {(i, j): c for i, row in rows.items() for j, c in row.items()}


def orbit_span(field: Field, mats, start: dict) -> Span:
    """Span of ``start`` and of every product of ``mats`` applied to it."""
    span = Span(field)
    span.insert(start)
    work = [start]
    while work:
        m = work.pop()
        for g in mats:
            p = mat_mul(g, m)
            if p and span.insert(p):
                work.append(p)
    return span


def envelope_dim(field: Field, mats, dim: int) -> int:
    """Dimension of the unital associative algebra generated by the
    dim x dim matrices ``mats``."""
    one = field.one()
    return orbit_span(field, mats, {(i, i): one for i in range(dim)}).dim


class SparseMatrix:
    """Row-major sparse matrix over a fixed field, integer columns."""

    def __init__(self, field: Field, rows: list[dict] | None = None, ncols: int | None = None):
        self.field = field
        self.rows = [dict(r) for r in (rows or [])]
        for r in self.rows:
            for k, v in r.items():
                if not field.check(v):
                    raise FieldError("entry %r does not live in %r" % (v, field))
                if not v:
                    raise ValueError("stored zero at column %r" % (k,))
        if ncols is None:
            ncols = 1 + max((max(r) for r in self.rows if r), default=-1)
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)


def rref(m: SparseMatrix) -> tuple[SparseMatrix, tuple[int, ...]]:
    """Reduced row echelon form, read off a ``Span`` of the rows.

    The form is unique, so the span's rows (pivot coefficient 1, fully
    reduced, ordered by pivot column) are it.  Returns the reduced
    matrix and the tuple of pivot columns.
    """
    span = Span(m.field)
    for r in m.rows:
        span.insert(r)
    return SparseMatrix(m.field, span.rows, m.ncols), tuple(span.pivots)


def rank(m: SparseMatrix) -> int:
    return len(rref(m)[1])


def solve_linear(m: SparseMatrix, b: list) -> dict | None:
    """One exact solution of M x = b, or None when inconsistent.

    Free variables are set to zero, which makes the returned solution
    deterministic.  ``b`` is a dense list of length nrows.
    """
    if len(b) != m.nrows:
        raise ValueError("rhs length %d != %d rows" % (len(b), m.nrows))
    aug_col = m.ncols
    rows = []
    for r, bi in zip(m.rows, b):
        rr = dict(r)
        bi = m.field.coerce(bi)
        if bi:
            rr[aug_col] = bi
        rows.append(rr)
    aug = SparseMatrix(m.field, rows, m.ncols + 1)
    red, pivots = rref(aug)
    if aug_col in pivots:
        return None
    sol: dict = {}
    for col, row in zip(pivots, red.rows):
        c = row.get(aug_col)
        if c:
            sol[col] = c
    return sol


def nullspace(m: SparseMatrix) -> list[dict]:
    """Deterministic basis of the kernel, one vector per free column."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    one = m.field.one()
    for f in free:
        v = {f: one}
        for col, row in zip(pivots, red.rows):
            c = row.get(f)
            if c:
                v[col] = -c
        basis.append(v)
    return basis


def kernel(field: Field, columns) -> list[dict]:
    """``nullspace`` of the matrix whose j-th column is the vector
    ``columns[j]``: unit vectors when every column is zero."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            rows.setdefault(key, {})[j] = c
    return nullspace(SparseMatrix(field, list(rows.values()), len(columns)))


def invert_dense(field: Field, rows) -> list[list]:
    """Exact inverse of a small dense matrix, read off the ``Span`` of
    the rows of [B | I]; raises ValueError on singular input."""
    n = len(rows)
    one, zero = field.one(), field.zero()
    span = Span(field)
    for i, row in enumerate(rows):
        vec = {n + i: one}
        for j in range(n):
            c = field.coerce(row[j])
            if c:
                vec[j] = c
        span.insert(vec)
    if span.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[r.get(n + j, zero) for j in range(n)] for r in span.rows]
