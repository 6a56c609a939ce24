"""n-ary superalgebras with alternating brackets, and the generalized
Jacobi identity (the n-ary derivation law) as an exactly computed
defect.

The identity checked is, with p(a) the total parity of a_1..a_{n-1} and
alpha the parity of the bracket itself:

  [a_1..a_{n-1},[b_1..b_n]]
    = (-1)^{alpha p(a)} sum_k (-1)^{p(a)(p(b_1)+..+p(b_{k-1}))}
                              [b_1.. [a_1..a_{n-1}, b_k] .. b_n]

For fixed a it is the derivation law of ad_a = [a_1..a_{n-1}, .], so
both identities run through one kernel that sums the defect into a
single coordinate dict with integer signs and never divides.  The
images ad_a(k) are taken once per a-block and the inner brackets [b]
once per b.

The kernel is written against a small duck-typed carrier protocol, so
it runs over finite tables and over polynomial carriers alike:
``arity``, ``bracket_parity``, ``key_parity(k)``,
``bracket_keys(tuple) -> element``, ``coords(element)`` (a read-only
dict key -> nonzero scalar) and ``element(dict)`` (its inverse).
Carriers also offer ``elem_is_zero(element)`` to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fields import field_from_name
from .multilinear import canonical_tuples, koszul_sort
from .superspace import EVEN, ODD, SuperSpace, SuperVector

__all__ = [
    "FiniteNAryAlgebra",
    "filippov_defect",
    "FJReport",
    "check_filippov",
    "identity_mode",
    "derivation_defect",
    "DerivationReport",
    "check_derivation",
    "inner_derivation",
    "serialize_table",
    "parse_table",
]


class FiniteNAryAlgebra:
    """Finite-dimensional n-ary superalgebra given by a bracket table on
    canonically sorted basis index tuples (ascending; an index may repeat
    only when its basis vector is odd)."""

    def __init__(self, space: SuperSpace, arity: int, parity: int, table: dict):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.space = space
        self.arity = arity
        self.bracket_parity = parity % 2
        self.field = space.field
        self.table = {}
        for key, val in table.items():
            key = tuple(key)
            if len(key) != arity:
                raise ValueError("key %r has wrong length" % (key,))
            ck, sgn = koszul_sort(key, space.parities)
            if sgn == 0:
                raise ValueError("key %r vanishes by alternation" % (key,))
            if ck != key:
                raise ValueError("table key %r is not canonically sorted" % (key,))
            if val.space != space:
                raise ValueError("value lives in the wrong space")
            if val.is_zero():
                continue
            got = val.parity()
            if got is None:
                raise ValueError("value at key (%s) mixes parities"
                                 % ", ".join(space.labels[i] for i in key))
            if got != (self.bracket_parity + sum(space.parities[i] for i in key)) % 2:
                raise ValueError("value parity mismatch at key %r" % (key,))
            self.table[key] = val
        self._cache: dict = {}

    # -- carrier protocol -------------------------------------------------
    def keys(self):
        return range(self.space.dim)

    def key_parity(self, k) -> int:
        return self.space.parities[k]

    def bracket_keys(self, keys: tuple) -> SuperVector:
        got = self._cache.get(keys)
        if got is not None:
            return got
        ck, sgn = koszul_sort(keys, self.space.parities)
        if sgn == 0:
            out = self.space.zero()
        else:
            base = self.table.get(ck)
            if base is None:
                out = self.space.zero()
            elif sgn < 0:
                out = -base
            else:
                out = base
        self._cache[keys] = out
        return out

    def coords(self, elem: SuperVector) -> dict:
        return elem.coords

    def element(self, coords: dict) -> SuperVector:
        return SuperVector(self.space, coords)

    def elem_is_zero(self, a) -> bool:
        return a.is_zero()

    def __repr__(self):
        return "FiniteNAryAlgebra(arity=%d, dim=%d over %r)" % (
            self.arity,
            self.space.dim,
            self.field,
        )


class _Images(dict):
    """key -> coordinates of a linear map's image, each taken on first use."""

    def __init__(self, image):
        super().__init__()
        self._image = image

    def __missing__(self, k):
        got = self[k] = self._image(k)
        return got


def _ad(alg, a_keys: tuple) -> _Images:
    """The images of ad_a = [a_1..a_{n-1}, .] on basis keys."""
    bracket, coords = alg.bracket_keys, alg.coords
    return _Images(lambda k: coords(bracket(a_keys + (k,))))


def _defect(alg, images, outer: dict, keys: tuple, par: int) -> dict:
    """RHS - LHS of the derivation law for the map D of parity ``par``
    with the given ``images`` on ``keys``, whose bracket is ``outer``,
    in one fresh dict (cancelled entries stay as zeros).  The right side
    goes in first, so an even carrier's all-plus terms never negate."""
    acc: dict = {}
    get = acc.get
    bracket, coords = alg.bracket_keys, alg.coords
    lead = par & alg.bracket_parity
    flip = 0
    for pos, x in enumerate(keys):
        head, tail = keys[:pos], keys[pos + 1:]
        negate = lead != (par & flip)
        for k, c in images[x].items():
            if negate:
                c = -c
            for j, v in coords(bracket(head + (k,) + tail)).items():
                w = get(j)
                acc[j] = c * v if w is None else w + c * v
        flip ^= alg.key_parity(x)
    for k, c in outer.items():
        for j, v in images[k].items():
            w = get(j)
            acc[j] = -(c * v) if w is None else w - c * v
    return acc


def _element(alg, acc: dict):
    """The defect LHS - RHS as a carrier element, from ``_defect``'s sum."""
    return alg.element({j: -v for j, v in acc.items() if v})


def filippov_defect(alg, a_keys: tuple, b_keys: tuple):
    """LHS minus RHS of the n-ary Jacobi law on basis keys, a carrier
    element; zero iff the identity holds on this instance."""
    n = alg.arity
    a_keys, b_keys = tuple(a_keys), tuple(b_keys)
    if len(a_keys) != n - 1 or len(b_keys) != n:
        raise ValueError("need n-1 and n keys")
    par = sum(alg.key_parity(k) for k in a_keys) % 2
    outer = alg.coords(alg.bracket_keys(b_keys))
    return _element(alg, _defect(alg, _ad(alg, a_keys), outer, b_keys, par))


@dataclass
class FJReport:
    ok: bool
    instances: int
    witness: object  # None or (a_keys, b_keys, defect repr)
    mode: str  # 'full' or 'sorted'


def identity_mode(nkeys: int, arity: int) -> str:
    """'full' for at most 6 keys and 10^5 ordered instances, else 'sorted'."""
    full = nkeys <= 6 and nkeys ** (2 * arity - 1) <= 10 ** 5
    return "full" if full else "sorted"


def check_filippov(alg, keys=None, mode: str = "auto", limit: int | None = None) -> FJReport:
    """Check the n-ary Jacobi law over basis-key instances.

    mode 'full' runs every ordered tuple pair (finite carriers only);
    'sorted' runs canonically sorted tuples in each block, which spans
    all instances since the defect is multilinear and alternating in
    both blocks.  'auto' asks :func:`identity_mode`.
    """
    n = alg.arity
    keys = list(alg.keys() if keys is None else keys)
    if mode == "auto":
        mode = identity_mode(len(keys), n)
    if mode == "full":
        a_iter = list(product(keys, repeat=n - 1))
        b_iter = list(product(keys, repeat=n))
    elif mode == "sorted":
        # canonical tuples index a spanning family of instances
        parities = [alg.key_parity(k) for k in keys]
        a_iter = list(canonical_tuples(keys, n - 1, parities))
        b_iter = list(canonical_tuples(keys, n, parities))
    else:
        raise ValueError("unknown mode %r" % mode)
    outers = [alg.coords(alg.bracket_keys(b_keys)) for b_keys in b_iter]
    count = 0
    for a_keys in a_iter:
        par = sum(alg.key_parity(k) for k in a_keys) % 2
        images = _ad(alg, a_keys)
        for b_keys, outer in zip(b_iter, outers):
            d = _defect(alg, images, outer, b_keys, par)
            count += 1
            if any(d.values()):
                return FJReport(False, count, (a_keys, b_keys, repr(_element(alg, d))), mode)
            if limit is not None and count >= limit:
                return FJReport(True, count, None, mode)
    return FJReport(True, count, None, mode)


def derivation_defect(alg, dmap, dparity: int, keys: tuple):
    """D[x_1..x_n] - (-1)^{alpha p(D)} sum_k (+-) [x_1 .. D x_k .. x_n]
    on a basis key tuple, as an element of the carrier; dmap sends a key
    to an element."""
    keys = tuple(keys)
    images = _Images(lambda k: alg.coords(dmap(k)))
    outer = alg.coords(alg.bracket_keys(keys))
    return _element(alg, _defect(alg, images, outer, keys, dparity))


@dataclass
class DerivationReport:
    ok: bool
    instances: int
    witness: object


def check_derivation(alg, dmap, dparity: int, keys=None) -> DerivationReport:
    if keys is None:
        keys = list(alg.keys())
    images = _Images(lambda k: alg.coords(dmap(k)))
    count = 0
    for tup in canonical_tuples(keys, alg.arity, [alg.key_parity(k) for k in keys]):
        d = _defect(alg, images, alg.coords(alg.bracket_keys(tup)), tup, dparity)
        count += 1
        if any(d.values()):
            return DerivationReport(ok=False, instances=count,
                                    witness=(tup, repr(_element(alg, d))))
    return DerivationReport(ok=True, instances=count, witness=None)


def inner_derivation(alg, a_keys: tuple):
    """The map x -> [a_1..a_{n-1}, x]; returns (parity, dmap)."""
    if len(a_keys) != alg.arity - 1:
        raise ValueError("need n-1 keys")
    par = (alg.bracket_parity + sum(alg.key_parity(k) for k in a_keys)) % 2
    return par, lambda k: alg.bracket_keys(tuple(a_keys) + (k,))


# -- plain-text bracket tables --------------------------------------------

def serialize_table(alg: FiniteNAryAlgebra) -> str:
    """Header 'arity field dim parities', then one line per table key,
    1-based indices: 'i1 i2 ... -> c*e_k + ...'."""
    lines = [
        "%d %s %d %s"
        % (
            alg.arity,
            alg.field.name,
            alg.space.dim,
            "".join("o" if p else "e" for p in alg.space.parities),
        )
    ]
    for key in sorted(alg.table):
        val = alg.table[key]
        parts = [
            "%s*e%d" % (c, i + 1) for i, c in sorted(val.coords.items())
        ]
        lines.append(
            "%s -> %s" % (" ".join(str(i + 1) for i in key), " + ".join(parts))
        )
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> FiniteNAryAlgebra:
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty table")
    head = lines[0].split()
    if len(head) != 4:
        raise ValueError("bad header %r" % lines[0])
    arity = int(head[0])
    if arity < 2:
        raise ValueError("table arity must be at least 2, got %d" % arity)
    field = field_from_name(head[1])
    dim = int(head[2])
    pstr = head[3]
    if len(pstr) != dim or set(pstr) - {"e", "o"}:
        raise ValueError("bad parity string %r" % pstr)
    parities = [ODD if ch == "o" else EVEN for ch in pstr]
    space = SuperSpace(field, ["e%d" % (i + 1) for i in range(dim)], parities)
    table = {}
    for ln in lines[1:]:
        if "->" not in ln:
            raise ValueError("bad table line %r" % ln)
        left, right = ln.split("->", 1)
        key = tuple(int(tok) - 1 for tok in left.split())
        if any(not 0 <= i < dim for i in key):
            raise ValueError("key index out of range 1..%d in %r" % (dim, ln))
        if key in table:
            raise ValueError("repeated key in %r" % (ln,))
        coords = {}
        for part in right.split("+"):
            part = part.strip()
            if not part or part == "0":
                continue
            if "*" not in part:
                raise ValueError("bad term %r" % part)
            cstr, lab = part.rsplit("*", 1)
            lab = lab.strip()
            if not lab.startswith("e"):
                raise ValueError("bad basis label %r" % lab)
            idx = int(lab[1:]) - 1
            if not 0 <= idx < dim:
                raise ValueError("basis label %r out of range e1..e%d" % (lab, dim))
            c = field.parse(cstr.strip())
            if c:
                coords[idx] = coords.get(idx, field.zero()) + c
        coords = {i: c for i, c in coords.items() if c}
        table[key] = SuperVector(space, coords)
    # parity of the bracket inferred from the first nonzero entry
    par = None
    for key, val in table.items():
        vp = val.parity()
        if vp is None:
            continue
        kp = sum(parities[i] for i in key) % 2
        par = (vp - kp) % 2
        break
    if par is None:
        par = (arity + 1) % 2
    return FiniteNAryAlgebra(space, arity, par, table)
