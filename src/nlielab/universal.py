"""The universal Z-graded Lie superalgebra built on a superspace V.

Degree k >= 0 holds the supersymmetric (k+1)-linear maps S^{k+1}V -> V;
degree -1 holds V itself; everything below is zero.  The product is
the insertion ("box") product

    (f * g)(x_0,...,x_{p+q}) =
        sum over splits  i_0<...<i_q ; i_{q+1}<...<i_{p+q}
        of  eps * f(g(x_{i_0},...,x_{i_q}), x_{i_{q+1}},...,x_{i_{p+q}})

where eps counts, with a factor -1 each, the pairs of odd arguments
whose order the split reverses.  Degree -1 elements act as constants:
f*a plugs a into the first slot of f, a*f = 0.  The bracket
[f,g] = f*g - (-1)^{p(f)p(g)} g*f makes the whole graded space a Lie
superalgebra, with V as its transitive bottom component.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import Span, kernel
from .multilinear import MultiMap, canonical_tuples, koszul_sort
from .superspace import SuperSpace, SuperVector

__all__ = [
    "WElement",
    "box",
    "w_bracket",
    "component_dim",
    "full_component",
    "GradedSubalgebra",
    "is_transitive",
]


def component_dim(space: SuperSpace, degree: int) -> int:
    if degree < -1:
        return 0
    if degree == -1:
        return space.dim
    keys = canonical_tuples(range(space.dim), degree + 1, space.parities, alternating=False)
    return space.dim * sum(1 for _ in keys)


class WElement:
    """A homogeneous element of the universal graded algebra."""

    __slots__ = ("space", "degree", "payload")

    def __init__(self, space: SuperSpace, degree: int, payload):
        if degree < -1:
            raise ValueError("degree must be >= -1")
        if degree == -1 and not isinstance(payload, SuperVector):
            raise ValueError("degree -1 payload must be a vector")
        if degree >= 0:
            if not isinstance(payload, MultiMap) or payload.arity != degree + 1:
                raise ValueError("degree %d payload must be a map of arity %d" % (degree, degree + 1))
        self.space = space
        self.degree = degree
        self.payload = payload

    @classmethod
    def from_vector(cls, v: SuperVector) -> "WElement":
        return cls(v.space, -1, v)

    @classmethod
    def from_map(cls, mm: MultiMap) -> "WElement":
        return cls(mm.space, mm.arity - 1, mm)

    @classmethod
    def zero(cls, space: SuperSpace, degree: int, parity: int = 0) -> "WElement":
        if degree == -1:
            return cls(space, -1, space.zero())
        return cls(space, degree, MultiMap(space, degree + 1, parity, {}, check=False))

    def parity(self):
        if self.degree == -1:
            return self.payload.parity()
        return self.payload.parity

    def is_zero(self) -> bool:
        return self.payload.is_zero()

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add degrees %d and %d" % (self.degree, other.degree))
        return WElement(self.space, self.degree, self.payload + other.payload)

    def __sub__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot subtract degrees %d and %d" % (self.degree, other.degree))
        return WElement(self.space, self.degree, self.payload - other.payload)

    def scale(self, c):
        return WElement(self.space, self.degree, self.payload.scale(c))

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, WElement)
            and self.degree == other.degree
            and self.payload == other.payload
        )

    def vectorize(self) -> dict:
        """Sparse coordinates keyed by (argument tuple, output index)."""
        if self.degree == -1:
            return {((), i): c for i, c in self.payload.coords.items()}
        out = {}
        for key, val in self.payload.table.items():
            for i, c in val.coords.items():
                out[(key, i)] = c
        return out

    @classmethod
    def from_coords(cls, space: SuperSpace, degree: int, coords: dict, parity: int = 0) -> "WElement":
        if degree == -1:
            return cls(space, -1, SuperVector(space, {i: c for (_, i), c in coords.items()}))
        table: dict = {}
        for (key, i), c in coords.items():
            table.setdefault(key, {})[i] = c
        mm = MultiMap(space, degree + 1, parity, {k: SuperVector(space, v) for k, v in table.items()}, check=False)
        return cls(space, degree, mm)

    def __repr__(self):
        return "W[deg=%d](%r)" % (self.degree, self.payload)


def full_component(space: SuperSpace, degree: int) -> list[WElement]:
    """Basis of the full degree component, one (tuple -> e_i) map each."""
    if degree == -1:
        return [WElement.from_vector(space.basis_vector(i)) for i in range(space.dim)]
    out = []
    par = space.parities
    for key in canonical_tuples(range(space.dim), degree + 1, par, alternating=False):
        key_par = sum(par[i] for i in key) % 2
        for i in range(space.dim):
            parity = (par[i] + key_par) % 2
            mm = MultiMap(space, degree + 1, parity, {key: space.basis_vector(i)}, check=False)
            out.append(WElement.from_map(mm))
    return out


def _box_keys(fm: MultiMap, gm: MultiMap) -> list:
    """Sorted canonical keys at which f*g can be nonzero.

    A term of (f*g)(K) is nonzero only when K splits into a key of g and
    the rest of a key of f that lost one slot to an index in the output
    of g at that key; merging every such pair finds all of them.
    """
    par = fm.space.parities
    rests: dict = {}  # slot index -> the keys of f with that slot removed
    for fkey in fm.table:
        for s, i in enumerate(fkey):
            if s and fkey[s - 1] == i:
                continue  # the same rest as removing the previous copy
            rests.setdefault(i, set()).add(fkey[:s] + fkey[s + 1:])
    keys = set()
    for gkey, val in gm.table.items():
        for i in val.coords:
            for rest in rests.get(i, ()):
                key, sign = koszul_sort(gkey + rest, par, alternating=False)
                if sign:
                    keys.add(key)
    return sorted(keys)


def box(f: WElement, g: WElement) -> WElement:
    """Insertion product.  Degrees add; f*a plugs the constant a into
    the first slot of f; a*g = 0 for constant a.

    Only keys that can carry a nonzero value are evaluated, and the
    table is filled in canonical key order.  For f*a these are the keys
    of f with one slot removed whose index lies in the support of a;
    for f*g they come from ``_box_keys``.  Every other key has a zero
    inner or outer factor in each term, so skipping it is exact.
    """
    space = f.space
    p, q = f.degree, g.degree
    if p + q < -1:
        raise ValueError("product falls below degree -1")
    if p == -1:
        pf = f.parity()
        pg = g.parity()
        return WElement.zero(space, p + q, 0 if pf is None or pg is None else (pf + pg) % 2)
    if q == -1:
        a = g.payload
        if p == 0:
            return WElement.from_vector(f.payload.evaluate_expand(a, ()))
        par = (f.payload.parity + (a.parity() or 0)) % 2
        keys = {fkey[:s] + fkey[s + 1:]
                for fkey in f.payload.table
                for s, i in enumerate(fkey) if i in a.coords}
        table = {}
        for key in sorted(keys):
            val = f.payload.evaluate_expand(a, key)
            if not val.is_zero():
                table[key] = val
        return WElement.from_map(MultiMap(space, p, par, table, check=False))

    fm, gm = f.payload, g.payload
    arity = p + q + 1
    parity = (fm.parity + gm.parity) % 2
    par = space.parities
    table: dict = {}
    for key in _box_keys(fm, gm):
        arg_par = [par[i] for i in key]
        acc = space.zero()
        for gpos in combinations(range(arity), q + 1):
            # a sub-tuple of a canonical key is canonical: look it up unsorted
            inner = gm.table.get(tuple(key[i] for i in gpos))
            if inner is None:
                continue
            fpos = tuple(i for i in range(arity) if i not in gpos)
            # the split's sign: the odd-odd pairs whose order it reverses
            eps = koszul_sort(gpos + fpos, arg_par, alternating=False)[1]
            outer = fm.evaluate_expand(inner, tuple(key[i] for i in fpos))
            if not outer.is_zero():
                acc = acc + (outer if eps == 1 else outer.scale(eps))
        if not acc.is_zero():
            table[key] = acc
    return WElement.from_map(MultiMap(space, arity, parity, table, check=False))


def w_bracket(f: WElement, g: WElement) -> WElement:
    pf, pg = f.parity(), g.parity()
    if pf is None or pg is None:
        raise ValueError("bracket needs parity-homogeneous elements")
    fg = box(f, g)
    gf = box(g, f)
    if pf and pg:
        return fg + gf
    return fg - gf


class GradedSubalgebra:
    """A graded span of elements of the universal algebra, one exact
    reduced span per degree."""

    def __init__(self, space: SuperSpace, cap: int):
        self.space = space
        self.cap = cap
        self.spans: dict[int, Span] = {}

    def insert(self, w: WElement) -> bool:
        if w.is_zero() or w.degree > self.cap:
            return False
        span = self.spans.get(w.degree)
        if span is None:
            span = Span(self.space.field)
            self.spans[w.degree] = span
        return span.insert(w.vectorize())

    def dims(self) -> dict[int, int]:
        return {d: s.dim for d, s in sorted(self.spans.items()) if s.dim}

    def dim(self, degree: int) -> int:
        s = self.spans.get(degree)
        return s.dim if s else 0

    def basis(self, degree: int) -> list[WElement]:
        """The reduced rows of one degree.  Even and odd elements have
        disjoint coordinates, so each row of a span of homogeneous
        elements is homogeneous; its parity is read off one coordinate."""
        s = self.spans.get(degree)
        if not s:
            return []
        par = self.space.parities
        out = []
        for row in s:
            key, i = next(iter(row))
            parity = (par[i] + sum(par[k] for k in key)) % 2
            out.append(WElement.from_coords(self.space, degree, row, parity))
        return out

    def contains(self, w: WElement) -> bool:
        if w.is_zero():
            return True
        s = self.spans.get(w.degree)
        return bool(s) and s.contains(w.vectorize())

    def degrees(self) -> list[int]:
        return sorted(d for d, s in self.spans.items() if s.dim)


def is_transitive(sub: GradedSubalgebra, up_to: int):
    """Check that no nonzero element of degree 0..up_to kills all of V.

    Returns (True, None) or (False, witness) where the witness is a
    nonzero element with [witness, V] = 0.
    """
    V = [WElement.from_vector(sub.space.basis_vector(i)) for i in range(sub.space.dim)]
    for j in range(0, up_to + 1):
        basis = sub.basis(j)
        if not basis:
            continue
        images = [{(i, key): c for i, v in enumerate(V)
                   for key, c in w_bracket(u, v).vectorize().items()}
                  for u in basis]
        for kv in kernel(sub.space.field, images):
            w = None
            for i, c in sorted(kv.items()):
                t = basis[i].scale(c)
                w = t if w is None else w + t
            return False, w
    return True, None
