"""Exact sparse linear algebra.

Vectors are dicts mapping a key to a nonzero scalar; keys may be ints
or any mutually comparable hashable values (tuples of ints, strings),
which lets the same span machinery hold polynomial monomials, operator
coordinates and multilinear-map coordinates.  No zero is ever stored.
There is one elimination, ``Span.insert``: the pivot of a vector is its
smallest key, and the span keeps its rows in reduced row echelon form.
That form is unique, so kernels (``nullspace``, ``kernel``,
``annihilator``) and inverses (``invert_dense``) are read off a ``Span``.
Matrices are dicts {(row, col): c}, built by ``matrix_of`` and
multiplied by ``mat_mul``; ``irreducible`` decides a matrix set from the
``orbit_span`` of each basis vector and of the identity (its envelope).
W(V) and the polynomial carriers test transitivity and irreducibility
through ``annihilator`` and ``irreducible``.
"""

from __future__ import annotations

import bisect

from .fields import Field

__all__ = ["Span", "span_of", "nullspace", "kernel", "annihilator", "invert_dense",
           "matrix_of", "mat_mul", "orbit_span", "envelope_dim", "irreducible"]


def vec_add_scaled(target: dict, src: dict, c, p=None) -> None:
    """target += c*src, dropping entries that cancel to zero; over F_p
    (``p`` given) each written entry is reduced into 0..p-1."""
    if p is not None:
        get = target.get
        for k, v in src.items():
            w = (get(k, 0) + c * v) % p
            if w:
                target[k] = w
            else:
                target.pop(k, None)
        return
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
    Over F_p a vector may hold any ints that are nonzero mod p; the rows
    hold ints in 0..p-1.
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
        pivot_rows, p = self.pivot_rows, self.field.p
        for key, c in vec.items():
            row = pivot_rows.get(key)
            if row is not None:
                vec_add_scaled(v, row, -c, p)
        return v

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Insert a vector; return True if the span grew."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v.keys())
        pc, p = v[pivot], self.field.p
        if p is None:
            div = self.field.div
            v = {k: div(val, pc) for k, val in v.items()}
        else:
            inv = pow(pc, -1, p)
            v = {k: val * inv % p for k, val in v.items()}
        for row in self.rows:
            c = row.get(pivot)
            if c is not None:
                vec_add_scaled(row, v, -c, p)
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


def span_of(field: Field, vectors) -> Span:
    """The ``Span`` of the given vectors."""
    span = Span(field)
    for v in vectors:
        span.insert(v)
    return span


def matrix_of(columns) -> dict:
    """The matrix whose j-th column is the j-th vector of ``columns``."""
    return {(i, j): c for j, col in enumerate(columns) for i, c in col.items()}


def mat_mul(a: dict, b: dict, p=None) -> dict:
    """Product of two sparse matrices given as {(row, col): c} dicts,
    over F_p when ``p`` is given."""
    b_rows: dict = {}
    for (k, j), c in b.items():
        b_rows.setdefault(k, {})[j] = c
    rows: dict = {}
    for (i, k), c in a.items():
        row = b_rows.get(k)
        if row:
            vec_add_scaled(rows.setdefault(i, {}), row, c, p)
    return {(i, j): c for i, row in rows.items() for j, c in row.items()}


def orbit_span(field: Field, mats, start: dict) -> Span:
    """Span of ``start`` and of every product of ``mats`` applied to it."""
    span = Span(field)
    span.insert(start)
    work = [start]
    while work:
        m = work.pop()
        for g in mats:
            gm = mat_mul(g, m, field.p)
            if gm and span.insert(gm):
                work.append(gm)
    return span


def envelope_dim(field: Field, mats, dim: int) -> int:
    """Dimension of the unital associative algebra generated by the
    dim x dim matrices ``mats``."""
    one = field.one()
    return orbit_span(field, mats, {(i, i): one for i in range(dim)}).dim


def irreducible(field: Field, mats, dim: int):
    """Whether the dim x dim matrices ``mats`` act irreducibly: (False,
    (j, d)) when the orbit of basis vector j is a proper invariant
    subspace of dim d, (True, None) when the envelope is all of End (over
    any field a proper invariant subspace keeps it smaller), else (None,
    envelope dim): not decided."""
    one = field.one()
    for j in range(dim):
        d = orbit_span(field, mats, {(j, 0): one}).dim
        if d < dim:
            return False, (j, d)
    env = envelope_dim(field, mats, dim)
    return (True, None) if env == dim * dim else (None, env)


def nullspace(field: Field, rows, ncols: int) -> list[dict]:
    """Basis of the kernel of the matrix with the given rows (dicts over
    the columns 0..ncols-1), read off one ``Span`` of the rows: one
    vector per free column, {f: 1} then -row[f] at each pivot in span
    order, built in one pass over the rows."""
    span = span_of(field, rows)
    one = field.one()
    free = {f: {f: one} for f in range(ncols) if f not in span.pivot_rows}
    for col, row in zip(span.pivots, span.rows):
        for f, c in row.items():
            if f != col:
                free[f][col] = -c
    return [field.reduced(v) for v in free.values()]


def kernel(field: Field, columns) -> list[dict]:
    """``nullspace`` of the matrix whose j-th column is the vector
    ``columns[j]``: unit vectors when every column is zero."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            rows.setdefault(key, {})[j] = c
    return nullspace(field, rows.values(), len(columns))


def annihilator(field: Field, images) -> list[dict]:
    """Basis of the u that kill every image: the ``kernel`` of the map
    u -> (images[u][0], images[u][1], ...), with ``images[u][j]`` the
    coordinates of the image of basis element u against the j-th one."""
    return kernel(field, [{(j, key): c for j, img in enumerate(row) for key, c in img.items()}
                          for row in images])


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
