"""Exact sparse linear algebra.

Vectors are dicts mapping a key to a nonzero scalar; keys may be ints
or any mutually comparable hashable values (tuples of ints, strings),
which lets the same span machinery hold polynomial monomials, operator
coordinates and multilinear-map coordinates.  No zero is ever stored.
Pivoting is deterministic: the pivot of a vector is its smallest key,
rows are processed in input order, so reduced bases are reproducible.
"""

from __future__ import annotations

import bisect

from .fields import Field, FieldError

__all__ = ["Span", "SparseMatrix", "rref", "solve_linear", "nullspace"]


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
    """Reduced row echelon form with deterministic pivoting.

    Scanning columns left to right, the pivot row for a column is the
    not-yet-used row of lowest index with a nonzero entry there.
    Returns the reduced matrix and the tuple of pivot columns.
    """
    rows = [dict(r) for r in m.rows]
    pivots: list[int] = []
    used: set[int] = set()
    order: list[int] = []
    for col in range(m.ncols):
        pivot_row = None
        for i, r in enumerate(rows):
            if i not in used and r.get(col):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        used.add(pivot_row)
        order.append(pivot_row)
        pivots.append(col)
        r = rows[pivot_row]
        c = r[col]
        if c != m.field.one():
            for k in list(r):
                r[k] = m.field.div(r[k], c)
        for i, other in enumerate(rows):
            if i != pivot_row:
                c2 = other.get(col)
                if c2:
                    vec_add_scaled(other, r, -c2)
    ordered = [rows[i] for i in order] + [r for i, r in enumerate(rows) if i not in used and r]
    out = SparseMatrix(m.field, ordered, m.ncols)
    return out, tuple(pivots)


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
