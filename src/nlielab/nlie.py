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
single coordinate dict with integer signs and never divides.  Every
bracket the kernel reads, [b] and [b_1.. k .. b_n] included, is
+-ad_c(k) for an (n-1)-tuple c, and one table per check holds each
ad_c(k) once, as a sign and the canonical bracket's coordinates; the
images of ad_a are the table's row a.  Over F_p those coordinates are
balanced ints: the kernel sums plain ints and reduces once per defect.

The kernel is written against a small duck-typed carrier protocol, so
it runs over finite tables and over polynomial carriers alike:
``arity``, ``bracket_parity``, ``key_parity(k)``,
``bracket_keys(tuple) -> element``, ``coords(element)`` (a read-only
dict key -> nonzero scalar) and ``element(dict)`` (its inverse).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fields import ModP, field_from_name
from .multilinear import canonical_tuples, koszul_sort
from .superspace import EVEN, ODD, SuperSpace, SuperVector

__all__ = [
    "FiniteNAryAlgebra",
    "filippov_defect",
    "FJReport",
    "ad_table",
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

    # -- carrier protocol -------------------------------------------------
    def keys(self):
        return range(self.space.dim)

    def key_parity(self, k) -> int:
        return self.space.parities[k]

    def bracket_keys(self, keys: tuple) -> SuperVector:
        ck, sgn = koszul_sort(keys, self.space.parities)
        base = self.table.get(ck) if sgn else None
        if base is None:
            return self.space.zero()
        return -base if sgn < 0 else base

    def coords(self, elem: SuperVector) -> dict:
        return elem.coords

    def element(self, coords: dict) -> SuperVector:
        return SuperVector(self.space, coords)

    def __repr__(self):
        return "FiniteNAryAlgebra(arity=%d, dim=%d over %r)" % (
            self.arity,
            self.space.dim,
            self.field,
        )


class _Images(dict):
    """key -> a value taken on first use, e.g. a linear map's image."""

    def __init__(self, image):
        super().__init__()
        self._image = image

    def __missing__(self, k):
        got = self[k] = self._image(k)
        return got


# the entry of every vanishing bracket, its empty dict shared; read, never written
_ZERO = (0, {})


def _lift(field):
    """Carrier coordinates -> kernel coordinates: the dict itself over QQ,
    over F_p balanced ints (v if v <= p // 2, else v - p)."""
    p = field.p
    return (lambda v: v) if p is None else (
        lambda v: {j: c.v if 2 * c.v <= p else c.v - p for j, c in v.items()})


def ad_table(alg) -> _Images:
    """One check's brackets: an (n-1)-tuple c maps to the row of ad_c,
    key k -> (s, kernel coordinates of the canonical bracket) with
    [c_1..c_{n-1}, k] = (-1)^s times them.  Each entry is one Koszul
    sort; the memo ``.brackets`` asks the carrier once per sorted tuple
    and keeps its lifted coordinates (``_ZERO``'s dict if zero).  The
    table refers to the carrier, never the other way round."""
    parities = _Images(alg.key_parity)
    bracket, coords, lift = alg.bracket_keys, alg.coords, _lift(alg.field)
    brackets = _Images(lambda ck: lift(coords(bracket(ck))) or _ZERO[1])

    def entry(keys):
        ck, sgn = koszul_sort(keys, parities)
        if sgn:
            v = brackets[ck]
            if v:
                return (sgn < 0, v)
        return _ZERO

    table = _Images(lambda c: _Images(lambda k: entry(c + (k,))))
    table.brackets = brackets
    return table


def _slots(alg, ads, keys: tuple) -> list:
    """Per position of ``keys``: its key x, the row of ad over the other
    keys c, and the parity bits relating [.. k ..] (k at x's place) to
    [c, k]: the parity before x, the parity after it (k passes it) and
    the position sign (n-1-pos)."""
    kp = alg.key_parity
    last = len(keys) - 1
    after = sum(kp(x) for x in keys) & 1
    before, out = 0, []
    for pos, x in enumerate(keys):
        px = kp(x)
        after ^= px
        out.append((x, ads[keys[:pos] + keys[pos + 1:]], before, after, (last - pos) & 1))
        before ^= px
    return out


def _defect(alg, images, slots, par: int) -> dict:
    """RHS - LHS of the derivation law for the map D of parity ``par``,
    whose images are entries (s, coordinates), on the keys of ``slots``,
    in one fresh dict (cancelled entries stay as zeros).  Every sign is
    folded into the scalar of its term; an even carrier's all-plus terms
    never negate."""
    acc: dict = {}
    get = acc.get
    kp = alg.key_parity
    lead = par & alg.bracket_parity
    for x, row, before, after, pos_sign in slots:
        s_x, image = images[x]
        flip = lead ^ (par & before) ^ pos_sign ^ s_x
        for k, c in image.items():
            s, v = row[k]
            if flip ^ s ^ (after and kp(k)):
                c = -c
            for j, w in v.items():
                y = get(j)
                acc[j] = c * w if y is None else y + c * w
    x, row = slots[-1][:2]
    s_out, value = row[x]  # the bracket of all the keys
    for k, c in value.items():
        s, v = images[k]
        if not s_out ^ s:
            c = -c
        for j, w in v.items():
            y = get(j)
            acc[j] = c * w if y is None else y + c * w
    return acc


def _survives(acc: dict, p) -> bool:
    """Is a nonzero ``_defect`` sum nonzero in F_p (QQ for p None)?"""
    return p is None or any(v % p for v in acc.values())


def _element(alg, acc: dict):
    """The defect LHS - RHS as a carrier element, from ``_defect``'s sum;
    over F_p its ints become field scalars again."""
    p = alg.field.p
    if p is None:
        return alg.element({j: -v for j, v in acc.items() if v})
    return alg.element({j: ModP(-v, p) for j, v in acc.items() if v % p})


def _map_images(alg, dmap) -> _Images:
    """The images of a linear map as kernel entries."""
    lift = _lift(alg.field)
    return _Images(lambda k: (0, lift(alg.coords(dmap(k)))))


def filippov_defect(alg, a_keys: tuple, b_keys: tuple):
    """LHS minus RHS of the n-ary Jacobi law on basis keys, a carrier
    element; zero iff the identity holds on this instance."""
    n = alg.arity
    a_keys, b_keys = tuple(a_keys), tuple(b_keys)
    if len(a_keys) != n - 1 or len(b_keys) != n:
        raise ValueError("need n-1 and n keys")
    par = sum(alg.key_parity(k) for k in a_keys) % 2
    ads = ad_table(alg)
    return _element(alg, _defect(alg, ads[a_keys], _slots(alg, ads, b_keys), par))


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
    ads, p = ad_table(alg), alg.field.p
    blocks = [_slots(alg, ads, b_keys) for b_keys in b_iter]
    count = 0
    for a_keys in a_iter:
        par = sum(alg.key_parity(k) for k in a_keys) % 2
        images = ads[a_keys]  # the images of ad_a are its row
        for b_keys, slots in zip(b_iter, blocks):
            d = _defect(alg, images, slots, par)
            count += 1
            if any(d.values()) and _survives(d, p):
                return FJReport(False, count, (a_keys, b_keys, repr(_element(alg, d))), mode)
            if limit is not None and count >= limit:
                return FJReport(True, count, None, mode)
    return FJReport(True, count, None, mode)


def derivation_defect(alg, dmap, dparity: int, keys: tuple, ads=None):
    """D[x_1..x_n] - (-1)^{alpha p(D)} sum_k (+-) [x_1 .. D x_k .. x_n]
    on a basis key tuple, as an element of the carrier; dmap sends a key
    to an element.  A loop over many maps passes one ``ads`` table (from
    ``ad_table``) to every call."""
    keys = tuple(keys)
    slots = _slots(alg, ad_table(alg) if ads is None else ads, keys)
    return _element(alg, _defect(alg, _map_images(alg, dmap), slots, dparity))


@dataclass
class DerivationReport:
    ok: bool
    instances: int
    witness: object


def check_derivation(alg, dmap, dparity: int, keys=None) -> DerivationReport:
    if keys is None:
        keys = list(alg.keys())
    images, ads, p = _map_images(alg, dmap), ad_table(alg), alg.field.p
    count = 0
    for tup in canonical_tuples(keys, alg.arity, [alg.key_parity(k) for k in keys]):
        d = _defect(alg, images, _slots(alg, ads, tup), dparity)
        count += 1
        if any(d.values()) and _survives(d, p):
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
