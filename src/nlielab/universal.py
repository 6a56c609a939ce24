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
the spans of ``GradedSubalgebra`` take its results as they are.  A
bracket table and the symmetric twin ``MultiMap`` hold the same
coordinates grouped by argument key, one dict per key, which
``WElement.from_map`` flattens; the basis of V is
``full_component(space, -1)``.

The product is one scatter pass (Gustavson 1978, see ``box``) through an
index of the left operand by slot value and a list of the right
operand's keys, which each element builds on first use as that operand
and keeps, so an element's ``coords`` are read-only.
``is_transitive`` is the transitivity loop of both models of L.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import add

from .linalg import Span, annihilator, vec_add_scaled
from .multilinear import MultiMap, canonical_tuples
from .superspace import SuperSpace

__all__ = [
    "WElement",
    "box",
    "w_bracket",
    "bracket_of_products",
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
    once the element is built: ``box`` indexes it once per side, in
    ``_slots`` and ``_keys``, and ``liegen.generate_subalgebra`` keeps
    the closures of a seed in ``_closures``, by cap.
    """

    __slots__ = ("space", "degree", "coords", "_parity", "_slots", "_keys", "_closures")

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
        self._slots = self._keys = self._closures = None

    @classmethod
    def from_map(cls, mm: MultiMap) -> "WElement":
        coords = {(key, i): c for key, val in mm.table.items() for i, c in val.items()}
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
        vec_add_scaled(coords, other.coords, c, self.space.field.p)
        parity = self._parity if self._parity == other._parity else None
        return WElement(self.space, self.degree, coords, parity)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scale(self, c):
        field = self.space.field
        c = field.coerce(c)
        coords = field.reduced({k: c * v for k, v in self.coords.items()}) if c else {}
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
            return "W[deg=-1](%s)" % self.space.show({i: c for (_, i), c in self.coords.items()})
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
    mask = 0
    for v in values:
        mask |= 1 << v
    return mask


def _rows(w: WElement) -> dict:
    """The coordinates of an element grouped by argument key."""
    rows: dict = {}
    for (key, j), c in w.coords.items():
        rows.setdefault(key, {})[j] = c
    return rows


def _slot_index(w: WElement) -> dict:
    """The view through which ``box`` reads its left operand, built on
    first use and kept in the element's ``_slots``: slot value i -> one
    entry (rest, sign, row, odd, mask) per argument key F holding i, with
    rest the key F less one copy of i, sign that of moving i to the front
    of F, row the output vector at F, and odd and mask the bits of the
    odd values and of all values of rest."""
    if w._slots is None:
        par = w.space.parities
        index: dict = {}
        for key, row in _rows(w).items():
            for s, i in enumerate(key):
                if s and key[s - 1] == i:
                    continue  # the same rest as removing the previous copy
                rest = key[:s] + key[s + 1:]
                odd = [v for v in rest if par[v]]
                sign = -1 if par[i] and sum(v < i for v in odd) % 2 else 1
                index.setdefault(i, []).append((rest, sign, row, _bits(odd), _bits(rest)))
        w._slots = index
    return w._slots


def _key_rows(w: WElement) -> list:
    """The view through which ``box`` reads its right operand, built on
    first use and kept in the element's ``_keys``: one (G, row, below,
    odd, mask) per argument key G, with below the XOR over the odd values
    a of G of the bits under a.  An element read from one side only, as
    a composition's right factor or a bracket's with a constant, never
    builds the other side's view."""
    if w._keys is None:
        par = w.space.parities
        keys = []
        for key, row in _rows(w).items():
            odd = [v for v in key if par[v]]
            below = 0
            for a in odd:
                below ^= (1 << a) - 1
            keys.append((key, row, below, _bits(odd), _bits(key)))
        w._keys = keys
    return w._keys


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
    index, fp = _slot_index(f), space.field.p
    out: dict = {}
    for gkey, grow, below, godd, gmask in _key_rows(g):
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
                vec_add_scaled(acc, row, c if eps == 1 else -c if eps == -1 else eps * c, fp)
    coords = {(key, j): c for key in sorted(out) for j, c in sorted(out[key].items())}
    return WElement(space, p + q, coords, parity)


def w_bracket(f: WElement, g: WElement) -> WElement:
    return bracket_of_products(f, g, box(f, g), box(g, f))


def bracket_of_products(f: WElement, g: WElement, fg: WElement, gf: WElement) -> WElement:
    """[f, g] = f*g -+ g*f from the two products f*g and g*f, formed in
    place: g*f is added into the coordinates of ``fg``, so ``fg`` must be
    a fresh product that nothing else reads."""
    pf, pg = f.parity(), g.parity()
    if pf is None or pg is None:
        raise ValueError("bracket needs parity-homogeneous elements")
    vec_add_scaled(fg.coords, gf.coords, 1 if pf and pg else -1, f.space.field.p)
    return WElement(f.space, fg.degree, fg.coords, fg.parity())  # degree -1 reads it anew


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


def is_transitive(model):
    """Whether no nonzero element of a piece of a ``liegen.GradedModel``
    kills every depth element: (True, None), or (False, (degree, dim,
    witness)) for the least degree whose images have a kernel."""
    for d in sorted(model.pieces):
        kernel = annihilator(model.field, model.images(d))
        if kernel:
            terms = [model.pieces[d][i].scale(c) for i, c in sorted(kernel[0].items())]
            return False, (d, len(kernel), reduce(add, terms) if terms else None)
    return True, None
