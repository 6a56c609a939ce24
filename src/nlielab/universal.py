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

The product is one scatter pass (Gustavson 1978, see ``box``) through an
index of the left operand by slot value, which each element builds on
first use and keeps, so an element's ``coords`` are read-only.
"""

from __future__ import annotations

from math import comb

from .linalg import Span, kernel, vec_add_scaled
from .multilinear import MultiMap, canonical_tuples
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
    they mix parities, even when there are none.  ``coords`` is read-only
    once the element is built: ``box`` indexes it once, in ``_slots``.
    """

    __slots__ = ("space", "degree", "coords", "_parity", "_slots")

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
        self._slots = None

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


def _bits(values) -> int:
    """The bit mask with one bit per distinct value."""
    return sum(1 << v for v in set(values))


def _slot_index(w: WElement) -> tuple:
    """The views through which ``box`` reads an element, built on its
    first use and kept in its ``_slots``.  As the left operand: slot
    value i -> one entry (rest, sign, row, odd, mask) per argument key F
    holding i, with rest the key F less one copy of i, sign that of
    moving i to the front of F, row the output vector at F, and odd and
    mask the bits of the odd values and of all values of rest.  As the
    right operand: one (G, row, below, odd, mask) per argument key G,
    with below the XOR over the odd values a of G of the bits under a."""
    if w._slots is None:
        par = w.space.parities
        rows: dict = {}
        for (key, j), c in w.coords.items():
            rows.setdefault(key, {})[j] = c
        index, keys = {}, []
        for key, row in rows.items():
            odd = [v for v in key if par[v]]
            below = 0
            for a in odd:
                below ^= (1 << a) - 1
            keys.append((key, row, below, _bits(odd), _bits(key)))
            for s, i in enumerate(key):
                if s and key[s - 1] == i:
                    continue  # the same rest as removing the previous copy
                rest = key[:s] + key[s + 1:]
                odd = [v for v in rest if par[v]]
                sign = -1 if par[i] and sum(v < i for v in odd) % 2 else 1
                index.setdefault(i, []).append((rest, sign, row, _bits(odd), _bits(rest)))
        w._slots = index, keys
    return w._slots


def box(f: WElement, g: WElement) -> WElement:
    """Insertion product.  Degrees add; f*a plugs the constant a into
    the first slot of f; a*g = 0 for constant a.

    One scatter pass: each term (G, i) -> c of g meets, through f's slot
    index, every key F of f holding the slot value i, and adds
    c * eps * m * f(F) straight into the output key K = sorted(G + rest),
    rest being F less one copy of i.  An odd value in both G and rest
    kills the term.  eps is the sign of moving i to the front of F times
    the split's sign, the parity of the odd-odd crossings (for each odd a
    of G, the odd b of rest below it), read off one mask popcount.  The
    C(m_K(v), m_G(v)) splits of the copies of a repeated even value v
    give the same term, so m is their product over the values G and rest
    share.  For f*a, G is () and the pass plugs a into the first slot.
    The product is linear: a mixed operand gives a product of parity None.
    """
    space = f.space
    p, q = f.degree, g.degree
    if p + q < -1:
        raise ValueError("product falls below degree -1")
    pf, pg = f.parity(), g.parity()
    parity = None if pf is None or pg is None else (pf + pg) % 2
    if p == -1:
        return WElement.zero(space, p + q, parity)
    index = _slot_index(f)[0]
    out: dict = {}
    for gkey, grow, below, godd, gmask in _slot_index(g)[1]:
        for i, c in grow.items():
            for rest, eps, row, rodd, rmask in index.get(i, ()):
                if godd & rodd:
                    continue
                if (rodd & below).bit_count() % 2:  # odd crossings of the split
                    eps = -eps
                key = tuple(sorted(gkey + rest))
                shared = gmask & rmask
                while shared:  # even values of both: eps * m
                    v = shared.bit_length() - 1
                    m = gkey.count(v)
                    eps *= comb(m + rest.count(v), m)
                    shared ^= 1 << v
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                vec_add_scaled(acc, row, c if eps == 1 else -c if eps == -1 else eps * c)
    coords = {(key, j): c for key in sorted(out) for j, c in sorted(out[key].items())}
    return WElement(space, p + q, coords, parity)


def w_bracket(f: WElement, g: WElement) -> WElement:
    pf, pg = f.parity(), g.parity()
    if pf is None or pg is None:
        raise ValueError("bracket needs parity-homogeneous elements")
    fg, gf = box(f, g), box(g, f)
    return fg + gf if pf and pg else fg - gf


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
