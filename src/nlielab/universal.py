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

An element is stored in one format, the one a ``Span`` row holds: a
dict from (argument key, output index) to a nonzero scalar, with the
argument keys canonically sorted on the symmetric side and the key ()
in degree -1.  The product reads and writes these dicts directly, so
the spans of ``GradedSubalgebra`` take its results as they are.
"""

from __future__ import annotations

from itertools import combinations

from .linalg import Span, kernel, vec_add_scaled
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
    """An element of the universal graded algebra, stored as
    the flat coordinates a ``Span`` row holds: ``coords`` maps (argument
    key, output index) to a nonzero scalar, with canonically sorted keys
    of length degree + 1 and the key () in degree -1.  The parity is
    kept beside them, since a zero map still has one.  Given as None,
    and always in degree -1, it is read off the coordinates: None when
    they mix parities, even when there are none.
    """

    __slots__ = ("space", "degree", "coords", "_parity")

    def __init__(self, space: SuperSpace, degree: int, coords: dict, parity=None):
        if degree < -1:
            raise ValueError("degree must be >= -1")
        self.space = space
        self.degree = degree
        self.coords = coords
        if parity is None or degree == -1:
            par = space.parities
            found = {(par[i] + sum(par[k] for k in key)) % 2 for key, i in coords}
            parity = found.pop() if len(found) == 1 else (None if found else 0)
        self._parity = parity

    @classmethod
    def from_vector(cls, v: SuperVector) -> "WElement":
        return cls(v.space, -1, {((), i): c for i, c in v.coords.items()})

    @classmethod
    def from_map(cls, mm: MultiMap) -> "WElement":
        coords = {(key, i): c for key, val in mm.table.items() for i, c in val.coords.items()}
        return cls(mm.space, mm.arity - 1, coords, mm.parity)

    @classmethod
    def zero(cls, space: SuperSpace, degree: int, parity: int = 0) -> "WElement":
        return cls(space, degree, {}, parity)

    def parity(self):
        return self._parity

    def is_zero(self) -> bool:
        return not self.coords

    def _plus(self, other, c):
        if self.degree != other.degree:
            raise ValueError("cannot add degrees %d and %d" % (self.degree, other.degree))
        coords = dict(self.coords)
        vec_add_scaled(coords, other.coords, c)
        parity = self._parity if self._parity == other._parity else None
        return WElement(self.space, self.degree, coords, parity)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        c = self.space.field.coerce(c)
        coords = {k: c * v for k, v in self.coords.items()} if c else {}
        return WElement(self.space, self.degree, coords, self._parity)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, WElement)
            and self.degree == other.degree
            and self.coords == other.coords
            and self.space == other.space
        )

    def __repr__(self):
        if self.degree == -1:
            labels = self.space.labels
            body = " + ".join("%s*%s" % (c, labels[i]) for (_, i), c in sorted(self.coords.items()))
            return "W[deg=-1](%s)" % (body or "0")
        nkeys = len({key for key, _ in self.coords})
        return "W[deg=%d](MultiMap(arity=%d, parity=%s, %d entries))" % (
            self.degree, self.degree + 1, self._parity, nkeys)


def full_component(space: SuperSpace, degree: int) -> list[WElement]:
    """Basis of the full degree component, one (tuple -> e_i) map each."""
    one = space.field.one()
    if degree == -1:
        return [WElement(space, -1, {((), i): one}) for i in range(space.dim)]
    par = space.parities
    return [WElement(space, degree, {(key, i): one})
            for key in canonical_tuples(range(space.dim), degree + 1, par, alternating=False)
            for i in range(space.dim)]


def _by_key(coords: dict) -> dict:
    """The coordinates of one element grouped by argument key: {key: {i: c}}."""
    table: dict = {}
    for (key, i), c in coords.items():
        table.setdefault(key, {})[i] = c
    return table


def _box_keys(ftab: dict, gtab: dict, par) -> list:
    """Sorted canonical keys at which f*g can be nonzero.

    A term of (f*g)(K) is nonzero only when K splits into a key of g and
    the rest of a key of f that lost one slot to an index in the output
    of g at that key; merging every such pair finds all of them.
    """
    rests: dict = {}  # slot index -> the keys of f with that slot removed
    for fkey in ftab:
        for s, i in enumerate(fkey):
            if s and fkey[s - 1] == i:
                continue  # the same rest as removing the previous copy
            rests.setdefault(i, set()).add(fkey[:s] + fkey[s + 1:])
    keys = set()
    for gkey, val in gtab.items():
        for i in val:
            for rest in rests.get(i, ()):
                key, sign = koszul_sort(gkey + rest, par, alternating=False)
                if sign:
                    keys.add(key)
    return sorted(keys)


def _plug(acc: dict, ftab: dict, par, inner: dict, rest: tuple, eps: int) -> None:
    """acc += eps * f(inner, rest): the vector ``inner`` in the first slot
    of the map tabled as ``ftab``, the indices ``rest`` after it."""
    for i, c in inner.items():
        fkey, sign = koszul_sort((i,) + rest, par, alternating=False)
        val = ftab.get(fkey) if sign else None
        if val is not None:
            vec_add_scaled(acc, val, eps * sign * c)


def box(f: WElement, g: WElement) -> WElement:
    """Insertion product.  Degrees add; f*a plugs the constant a into
    the first slot of f; a*g = 0 for constant a.

    Both operands are indexed by argument key once.  Only keys that can
    carry a nonzero value are evaluated, in canonical key order, each
    summed over its terms into one output dict.  For f*a these keys are
    the keys of f with one slot removed whose index lies in the support
    of a; for f*g they come from ``_box_keys``.  Every other key has a
    zero inner or outer factor in each term, so skipping it is exact.
    """
    space = f.space
    p, q = f.degree, g.degree
    if p + q < -1:
        raise ValueError("product falls below degree -1")
    if p == -1:
        pf, pg = f.parity(), g.parity()
        return WElement.zero(space, p + q, 0 if pf is None or pg is None else (pf + pg) % 2)
    par = space.parities
    ftab = _by_key(f.coords)
    out: dict = {}
    if q == -1:
        a = {i: c for (_, i), c in g.coords.items()}
        keys = {fkey[:s] + fkey[s + 1:] for fkey in ftab for s, i in enumerate(fkey) if i in a}
        for key in sorted(keys):
            acc: dict = {}
            _plug(acc, ftab, par, a, key, 1)
            out.update(((key, j), c) for j, c in acc.items())
        return WElement(space, p - 1, out, (f.parity() + (g.parity() or 0)) % 2)

    gtab = _by_key(g.coords)
    arity = p + q + 1
    for key in _box_keys(ftab, gtab, par):
        arg_par = [par[i] for i in key]
        acc = {}
        for gpos in combinations(range(arity), q + 1):
            # a sub-tuple of a canonical key is canonical: look it up unsorted
            inner = gtab.get(tuple(key[i] for i in gpos))
            if inner is None:
                continue
            fpos = tuple(i for i in range(arity) if i not in gpos)
            # the split's sign: the odd-odd pairs whose order it reverses
            eps = koszul_sort(gpos + fpos, arg_par, alternating=False)[1]
            _plug(acc, ftab, par, inner, tuple(key[i] for i in fpos), eps)
        out.update(((key, j), c) for j, c in acc.items())
    return WElement(space, p + q, out, (f.parity() + g.parity()) % 2)


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
        return span.insert(w.coords)

    def dims(self) -> dict[int, int]:
        return {d: s.dim for d, s in sorted(self.spans.items()) if s.dim}

    def dim(self, degree: int) -> int:
        s = self.spans.get(degree)
        return s.dim if s else 0

    def basis(self, degree: int) -> list[WElement]:
        """The reduced rows of one degree, each copied, since the span
        reduces its rows in place as it grows.  Even and odd elements
        have disjoint coordinates, so each row of a span of homogeneous
        elements is homogeneous and its coordinates give its parity."""
        s = self.spans.get(degree)
        return [WElement(self.space, degree, dict(row)) for row in s] if s else []

    def contains(self, w: WElement) -> bool:
        if w.is_zero():
            return True
        s = self.spans.get(w.degree)
        return bool(s) and s.contains(w.coords)

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
                   for key, c in w_bracket(u, v).coords.items()}
                  for u in basis]
        for kv in kernel(sub.space.field, images):
            w = None
            for i, c in sorted(kv.items()):
                t = basis[i].scale(c)
                w = t if w is None else w + t
            return False, w
    return True, None
