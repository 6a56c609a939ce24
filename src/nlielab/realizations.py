"""Polynomial models of the graded Lie superalgebras behind the four
catalog brackets.

Four carriers are provided, each with a weight grading, a window
enumerator, and its distinguished divergence:

* vector fields ``W(m,n)`` and the divergence-free subalgebra ``S'(m,n)``;
* the Grassmann Poisson algebra ``P(m,n)`` and its quotient ``H'``;
* the odd Poisson (Buttin) bracket ``PO(n,n)`` and the Delta-kernel
  ``SHO'(n,n)``;
* the odd contact bracket ``KO(n,n+1)`` and the div_beta-kernel
  ``SKO'(n,n+1;beta)``.

They share the base class ``Carrier``, which holds the grading and its
compatibility test, the windows and graded bases (monomial candidates
cut to the kernel of the constraint), the quotient by the constants,
the Lie parity, membership, and the one polynomial bracket: bilinear,
[f, g] = sum_s c_s L_s(f) R_s(g) with left pieces L_s derivatives (or
2 - E) of f or of f_odd - f_even, and right slots R_s = d/dx_i g,
d/dxi_j g or (2 - E) g.  A subclass declares these rows as its
``pairing`` table, its ``constraint_value`` and the grading hook
``_paired_weights``.  ``bracket`` takes an element or its prepared
pieces on either side, so pairing one element with many differentiates
it once.  ``VectorFieldRealization`` supplies the ``DiffOp`` versions of
``bracket``, ``zero``, ``vectorize``, ``element``, ``xdeg`` and
``_candidates``, and prepares nothing.

On top of the carriers: the top-element pairing checks (one line at the
top, centralizing the degree-zero part, window transitivity, and the
induced n-bracket compared against the catalog algebra up to one global
scalar), and the splitting reports full = derived (+) one line.
"""

from dataclasses import dataclass
from itertools import combinations
from math import lcm

from .catalog import algebra_O, algebra_S, algebra_SW, algebra_W, monomials_upto
from .fields import QQ, Field
from .liegen import tables_proportional
from .linalg import Span, envelope_dim, kernel
from .multilinear import conversion_sign
from .polysuper import DiffOp, SuperPoly, SuperPolyRing, delta


# ---------------------------------------------------------------------------
# gradings


@dataclass(frozen=True)
class GradingSpec:
    """Integer weights for the even and odd generators; the weight of a
    monomial is the weighted degree, and element degrees are weights
    shifted down by a constant fixed per carrier."""

    xweights: tuple
    xiweights: tuple

    @classmethod
    def parse(cls, text: str) -> "GradingSpec":
        if "|" not in text:
            raise ValueError("grading must look like 'k1,..,km|s1,..,sn'")
        left, right = text.split("|", 1)

        def side(s):
            s = s.strip()
            if not s:
                return ()
            return tuple(int(p) for p in s.split(","))

        return cls(side(left), side(right))

    def weight_key(self, key) -> int:
        alpha, xis = key
        w = sum(k * e for k, e in zip(self.xweights, alpha))
        return w + sum(self.xiweights[j - 1] for j in xis)

    def weight(self, f: SuperPoly):
        """Common weight of the terms, or None when mixed or zero."""
        ws = {self.weight_key(k) for k in f.terms}
        if len(ws) == 1:
            return ws.pop()
        return None

    def __str__(self):
        return "%s|%s" % (
            ",".join(str(k) for k in self.xweights),
            ",".join(str(s) for s in self.xiweights),
        )


def principal_grading(m: int, n: int) -> GradingSpec:
    return GradingSpec((1,) * m, (1,) * n)


def depth_one_grading(m: int, n: int) -> GradingSpec:
    """Type (0,..,0|1,..,1)."""
    return GradingSpec((0,) * m, (1,) * n)


# ---------------------------------------------------------------------------
# shared helpers


def _ring_monomial_keys(ring: SuperPolyRing, xwindow: int):
    for alpha in monomials_upto(ring.m, xwindow):
        for r in range(ring.n + 1):
            for xis in combinations(range(1, ring.n + 1), r):
                yield (alpha, xis)


def _span_of(field, vectors) -> Span:
    sp = Span(field)
    for v in vectors:
        sp.insert(v)
    return sp


# ---------------------------------------------------------------------------
# carriers


class Carrier:
    """A graded carrier of polynomials in ``ring``.  The degree of a
    monomial is its weight minus ``shift``; ``quotient`` factors out the
    constants, and a carrier with a ``constraint`` is cut to the kernel
    of ``constraint_value``.  The Lie parity is the polynomial parity
    plus ``parity_offset``."""

    parity_offset = 0

    def __init__(self, field: Field, ring: SuperPolyRing, grading: GradingSpec,
                 name: str, constraint=None, quotient: bool = False):
        self.field = field
        self.ring = ring
        self.grading = grading
        self.constraint = constraint
        self.quotient = quotient
        sums = self._paired_weights()
        if len(sums) != 1:
            raise ValueError("grading is not compatible with the bracket")
        self.shift = sums.pop()
        self.name = name

    def _paired_weights(self) -> set:
        """Weight sums of the generator pairs the bracket contracts; the
        grading is compatible with the bracket when there is exactly one,
        and it is the shift."""
        raise NotImplementedError

    def _derive(self, op, f):
        kind, i = op
        return f.dx(i) if kind == "x" else f.dxi(i)

    def prepare_left(self, f) -> list:
        """The nonzero pieces c * L(f) of the rows of ``pairing``, each
        with the right slot it pairs with; a twisted row reads L off
        f_odd - f_even."""
        signed = f.weighted(lambda key: 1 if len(key[1]) % 2 else -1)
        derived, pieces = {}, []
        for op, slot, c, twisted in self.pairing:
            d = derived.get((op, twisted))
            if d is None:
                d = derived[op, twisted] = self._derive(op, signed if twisted else f)
            if d.terms:
                pieces.append((d if c == 1 else d.scale(c), slot))
        return pieces

    def prepare_right(self, g) -> dict:
        """The nonzero right slots R(g) of ``pairing``, by slot."""
        slots = dict.fromkeys(row[1] for row in self.pairing)
        return {s: d for s in slots if (d := self._derive(s, g)).terms}

    def bracket(self, f, g):
        """[f, g] = sum of c * L(f) * R(g) over the rows (L, R, c, twisted)
        of ``pairing``.  Either side may be a plain element or its
        prepared pieces, so a caller pairing one element with many
        differentiates it once."""
        left = self.prepare_left(f) if isinstance(f, SuperPoly) else f
        right = self.prepare_right(g) if isinstance(g, SuperPoly) else g
        out: dict = {}
        for piece, slot in left:
            r = right.get(slot)
            if r is not None:
                piece.mul_into(out, r)
        return self.project(SuperPoly(self.ring, out))

    def field_of(self, f) -> DiffOp:
        """The vector field g -> [f, g] before ``project``, each left piece
        the coefficient of its slot's derivation; every slot must be one.
        Its kernel is the center (the constants for P and PO)."""
        op = DiffOp.zero(self.ring)
        for piece, slot in self.prepare_left(f):
            op = op + DiffOp(self.ring, {slot: piece})
        return op

    def zero(self):
        return self.ring.zero()

    def project(self, f):
        return f.drop_constant() if self.quotient else f

    def lie_parity(self, f):
        p = f.parity()
        return None if p is None else (p + self.parity_offset) % 2

    def vectorize(self, f) -> dict:
        return dict(f.terms)

    def element(self, coords):
        """The element with the given ``vectorize`` coordinates."""
        return SuperPoly(self.ring, dict(coords))

    def xdeg(self, f) -> int:
        """Largest degree in the even variables."""
        return max((sum(a) for (a, _) in f.terms), default=0)

    def constraint_value(self, f):
        """Image under the defining constraint, None when there is none."""
        return None

    def contains(self, f) -> bool:
        v = self.constraint_value(f)
        return v is None or v.is_zero()

    def _candidates(self, xwindow: int, degree=None):
        want = None if degree is None else degree + self.shift
        out = []
        for key in _ring_monomial_keys(self.ring, xwindow):
            if self.quotient and not key[1] and not any(key[0]):
                continue
            if want is None or self.grading.weight_key(key) == want:
                out.append(self.ring.monomial(*key))
        return out

    def _cut(self, cands):
        """A basis of the combinations of ``cands`` inside the carrier."""
        if self.constraint is None:
            return cands
        out = []
        for combo in kernel(self.field,
                            [self.constraint_value(c).terms for c in cands]):
            if self.field.p is None:  # over QQ, clear denominators: int coefficients
                m = lcm(*(c.denominator for c in combo.values()))
                combo = {j: c.numerator * (m // c.denominator) for j, c in combo.items()}
            out.append(sum((cands[j].scale(combo[j]) for j in sorted(combo)), self.zero()))
        return out

    def window_elements(self, xwindow: int):
        return self._cut(self._candidates(xwindow))

    def basis(self, degree: int, xwindow: int = 0):
        return self._cut(self._candidates(xwindow, degree))


class PoissonRealization(Carrier):
    """Free supercommutative carrier with even pairs {p_i, q_i} = 1
    (p_i = x_i, q_i = x_{k+i}) and a symmetric pairing b on the odd
    generators; b defaults to the identity.  With ``quotient`` the
    constants are factored out."""

    # class-own attributes: perfbench's tracer wraps these per class
    window_elements = Carrier.window_elements
    bracket = Carrier.bracket

    def __init__(self, field: Field, m: int, n: int, b=None, quotient: bool = False,
                 grading: GradingSpec | None = None):
        if m % 2:
            raise ValueError("even generators must come in p,q pairs")
        self.npairs = m // 2
        if b is None:
            b = {(i, i): 1 for i in range(1, n + 1)}
        bb: dict = {}
        for (i, j), c in b.items():
            c = field.coerce(c)
            if not c:
                continue
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError("pairing index out of range")
            for key in ((i, j), (j, i)):
                old = bb.get(key)
                if old is not None and old != c:
                    raise ValueError("pairing must be symmetric")
                bb[key] = c
        self.b = bb
        k = self.npairs
        # odd pairs carry (-1)^{p(f)+1}
        self.pairing = ([(("xi", i), ("xi", j), c, True) for (i, j), c in bb.items()]
                        + [row for i in range(1, k + 1)
                           for row in ((("x", i), ("x", k + i), 1, False),
                                       (("x", k + i), ("x", i), -1, False))])
        name = "H'(%d,%d)" % (m, n) if quotient else "P(%d,%d)" % (m, n)
        super().__init__(field, SuperPolyRing(field, m, n),
                         grading if grading is not None else principal_grading(m, n),
                         name, quotient=quotient)

    def _paired_weights(self) -> set:
        xw, sw = self.grading.xweights, self.grading.xiweights
        sums = {sw[i - 1] + sw[j - 1] for (i, j) in self.b}
        sums.update(xw[i - 1] + xw[self.npairs + i - 1]
                    for i in range(1, self.npairs + 1))
        # a bracket that pairs nothing leaves the grading unshifted
        return sums or {0}


class ButtinRealization(Carrier):
    """Odd Poisson bracket on polynomials in n even and n odd variables.
    The Lie parity is the reversed one.  ``constraint='delta'`` cuts to
    the kernel of the odd Laplacian; ``quotient`` drops constants."""

    parity_offset = 1
    # class-own attributes: perfbench's tracer wraps these per class
    window_elements = Carrier.window_elements
    bracket = Carrier.bracket

    def __init__(self, field: Field, n: int, constraint=None, quotient: bool = False,
                 grading: GradingSpec | None = None):
        if constraint not in (None, "delta"):
            raise ValueError("unknown constraint %r" % (constraint,))
        self.nvars = n
        # the written sign uses the reversed parity
        self.pairing = [row for i in range(1, n + 1)
                        for row in ((("x", i), ("xi", i), 1, False),
                                    (("xi", i), ("x", i), -1, True))]
        name = "SHO'(%d,%d)" % (n, n) if constraint else "PO(%d,%d)" % (n, n)
        super().__init__(field, SuperPolyRing(field, n, n),
                         grading if grading is not None else depth_one_grading(n, n),
                         name, constraint, quotient)

    def _paired_weights(self) -> set:
        return {self.grading.xweights[i] + self.grading.xiweights[i]
                for i in range(self.nvars)}

    def constraint_value(self, f: SuperPoly):
        return None if self.constraint is None else delta(f, self.nvars)


class ContactRealization(Carrier):
    """Odd contact bracket on polynomials in m even variables and m+1 odd
    ones, the last odd variable being the contact one.  Constants are
    kept: they do not centralize the bracket here.  ``constraint='div'``
    cuts to the kernel of div_beta."""

    parity_offset = 1
    # class-own attributes: perfbench's tracer wraps these per class
    window_elements = Carrier.window_elements
    bracket = Carrier.bracket

    def __init__(self, field: Field, m: int, beta=1, constraint=None,
                 grading: GradingSpec | None = None):
        if constraint not in (None, "div"):
            raise ValueError("unknown constraint %r" % (constraint,))
        self.m = m
        self.cidx = m + 1
        self.beta = field.coerce(beta)
        self.mbeta = field.coerce(m) * self.beta
        self.pairing = [(("2-E", 0), ("xi", m + 1), 1, False),
                        (("xi", m + 1), ("2-E", 0), -1, True)]
        self.pairing += [row for i in range(1, m + 1)
                         for row in ((("x", i), ("xi", i), -1, False),
                                     (("xi", i), ("x", i), 1, True))]
        if constraint:
            name = "SKO'(%d,%d;%s)" % (m, m + 1, self.beta)
        else:
            name = "KO(%d,%d)" % (m, m + 1)
        super().__init__(field, SuperPolyRing(field, m, m + 1),
                         grading if grading is not None else depth_one_grading(m, m + 1),
                         name, constraint)

    def _paired_weights(self) -> set:
        sums = {self.grading.xiweights[self.cidx - 1]}
        sums.update(self.grading.xweights[i] + self.grading.xiweights[i]
                    for i in range(self.m))
        return sums

    def _two_minus_e(self, f: SuperPoly) -> SuperPoly:
        # 2 - E with E the Euler operator on x_1..x_m, xi_1..xi_m
        N = self.cidx
        return f.weighted(lambda key: 2 - sum(key[0]) - len(key[1])
                          + (N in key[1]))

    def _derive(self, op, f):
        return self._two_minus_e(f) if op[0] == "2-E" else Carrier._derive(self, op, f)

    def field_of(self, f: SuperPoly) -> DiffOp:
        N = self.cidx
        op = DiffOp.zero(self.ring)
        for fh in f.homogeneous_parts():
            if fh.is_zero():
                continue
            eps = 1 if self.lie_parity(fh) == 0 else -1
            op = op + DiffOp.ddxi(self.ring, N, coeff=self._two_minus_e(fh))
            h = fh.dxi(N)
            if not h.is_zero():
                # h times the Euler field
                ecoeffs = {}
                for i in range(1, self.m + 1):
                    ecoeffs[("x", i)] = h * self.ring.x(i)
                    ecoeffs[("xi", i)] = h * self.ring.xi(i)
                eop = DiffOp(self.ring, ecoeffs)
                op = op + (eop if eps > 0 else -eop)
            for i in range(1, self.m + 1):
                op = op - DiffOp.ddxi(self.ring, i, coeff=fh.dx(i))
                t = DiffOp.ddx(self.ring, i, coeff=fh.dxi(i))
                op = op + (t if eps > 0 else -t)
        return op

    def div_beta(self, f: SuperPoly) -> SuperPoly:
        h, sel = f.dxi(self.cidx), range(1, self.m + 1)
        return delta(f, self.m) + h.euler(xset=sel, xiset=sel) - h.scale(self.mbeta)

    def constraint_value(self, f: SuperPoly):
        return None if self.constraint is None else self.div_beta(f)


class VectorFieldRealization(Carrier):
    """Polynomial vector fields, optionally cut to the divergence-free
    subalgebra.  Elements are ``DiffOp``s, graded by coefficient weight
    minus the weight of the differentiated generator."""

    # a class's own attribute: perfbench's tracer wraps window_elements per class
    window_elements = Carrier.window_elements

    def __init__(self, field: Field, m: int, n: int, constraint=None,
                 grading: GradingSpec | None = None):
        if constraint not in (None, "div"):
            raise ValueError("unknown constraint %r" % (constraint,))
        self.m = m
        self.n = n
        name = "S'(%d,%d)" % (m, n) if constraint else "W(%d,%d)" % (m, n)
        super().__init__(field, SuperPolyRing(field, m, n),
                         grading if grading is not None else principal_grading(m, n),
                         name, constraint)

    def _paired_weights(self) -> set:
        # the commutator pairs each generator with its own derivation
        return {0}

    def zero(self):
        return DiffOp.zero(self.ring)

    def prepare_left(self, X: DiffOp) -> DiffOp:
        # a field's bracket differentiates both sides; nothing to prepare
        return X

    prepare_right = prepare_left

    def bracket(self, X: DiffOp, Y: DiffOp) -> DiffOp:
        return X.bracket(Y)

    def field_of(self, X: DiffOp) -> DiffOp:
        return X

    def vectorize(self, X: DiffOp) -> dict:
        return X.vectorize()

    def element(self, coords):
        out = {}
        for (g, key), c in coords.items():
            out.setdefault(g, {})[key] = c
        return DiffOp(self.ring, {g: SuperPoly(self.ring, t) for g, t in out.items()})

    def xdeg(self, X: DiffOp) -> int:
        return max((Carrier.xdeg(self, p) for p in X.coeffs.values()), default=0)

    def constraint_value(self, X: DiffOp):
        return None if self.constraint is None else X.divergence()

    def _candidates(self, xwindow: int, degree=None):
        gw = self.grading
        gens = ([(i, gw.xweights[i - 1], DiffOp.ddx) for i in range(1, self.m + 1)]
                + [(j, gw.xiweights[j - 1], DiffOp.ddxi) for j in range(1, self.n + 1)])
        out = []
        for key in _ring_monomial_keys(self.ring, xwindow):
            w = gw.weight_key(key)
            for i, gwt, make in gens:
                if degree is None or w - gwt == degree:
                    out.append(make(self.ring, i, coeff=self.ring.monomial(*key)))
        return out


# ---------------------------------------------------------------------------
# the lambda-twisted action on functions


def pi_act(X: DiffOp, f: SuperPoly, lam, div_fn=None):
    """Action of a vector field on a function twisted by lam times the
    divergence; ``div_fn`` is swappable so a broken divergence is
    detectable by the cocycle test."""
    ring = X.ring
    lam = ring.field.coerce(lam)
    out = X.apply(f)
    if not lam:
        return out
    div = div_fn if div_fn is not None else (lambda Z: Z.divergence())
    for Xh in X.homogeneous_parts():
        if Xh.is_zero():
            continue
        d = div(Xh)
        if d.is_zero():
            continue
        px = Xh.parity()
        for fh in f.homogeneous_parts():
            if fh.is_zero():
                continue
            t = (fh * d).scale(lam)
            out = out + (-t if (px and fh.parity()) else t)
    return out


def pi_defect(X: DiffOp, Y: DiffOp, f: SuperPoly, lam, div_fn=None) -> SuperPoly:
    """pi([X,Y])f minus the supercommutator of the actions; zero for the
    honest divergence, X and Y parity-homogeneous."""
    px, py = X.parity(), Y.parity()
    if px is None or py is None:
        raise ValueError("arguments must be parity-homogeneous")
    lhs = pi_act(X.bracket(Y), f, lam, div_fn)
    rhs = pi_act(X, pi_act(Y, f, lam, div_fn), lam, div_fn)
    t = pi_act(Y, pi_act(X, f, lam, div_fn), lam, div_fn)
    rhs = rhs + (t if (px and py) else -t)
    return lhs - rhs


# ---------------------------------------------------------------------------
# handles


def parse_handle(text: str, field: Field = QQ, beta=None):
    """Build a realization from a short name such as W(1,2), S'(1,2),
    P(0,4), H'(0,4), PO(3,3), SHO'(3,3), KO(2,3), SKO'(2,3;1)."""
    s = text.strip().replace(" ", "")
    head, sep, rest = s.partition("(")
    if not sep or not rest.endswith(")"):
        raise ValueError("bad handle %r" % (text,))
    body = rest[:-1]
    btext = None
    if ";" in body:
        body, btext = body.split(";", 1)
    parts = body.split(",")
    if len(parts) != 2:
        raise ValueError("bad handle %r" % (text,))
    m, n = int(parts[0]), int(parts[1])
    if btext is not None:
        beta = field.parse(btext)
    if head in ("PO", "SHO'") and m != n:
        raise ValueError("this carrier needs equal variable counts")
    if head in ("KO", "SKO'") and n != m + 1:
        raise ValueError("this carrier needs one extra odd variable")
    if head == "W":
        return VectorFieldRealization(field, m, n)
    if head == "S'":
        return VectorFieldRealization(field, m, n, constraint="div")
    if head == "P":
        return PoissonRealization(field, m, n)
    if head == "H'":
        return PoissonRealization(field, m, n, quotient=True)
    if head == "PO":
        return ButtinRealization(field, n)
    if head == "SHO'":
        return ButtinRealization(field, n, constraint="delta", quotient=True)
    if head == "KO":
        return ContactRealization(field, m, beta=beta if beta is not None else 1)
    if head == "SKO'":
        return ContactRealization(field, m, beta=beta if beta is not None else 1,
                                  constraint="div")
    raise ValueError("unknown handle %r" % (text,))


def graded_dims(real, degrees, xwindow: int) -> dict:
    return {d: len(real.basis(d, xwindow)) for d in degrees}


# ---------------------------------------------------------------------------
# pairing checks against the catalog


@dataclass
class PairCheck:
    name: str
    ok: object
    detail: str = ""


@dataclass
class PairReport:
    which: str
    arity: int
    xwindow: int
    realization: str
    catalog: str
    checks: tuple
    scalar: object = None

    @property
    def ok(self) -> bool:
        return all(c.ok is not False for c in self.checks)


@dataclass
class PairSetup:
    real: object
    mu: object
    catalog: object
    keys: list
    elem_of: object
    coords_of: object
    l0_expected: object = None


def _poisson_coords(elem):
    out = {}
    for (alpha, xis), c in elem.terms.items():
        if len(xis) != 1 or any(alpha):
            raise ValueError("element is outside the degree -1 window")
        out[xis[0] - 1] = c
    return out


def _xpoly_coords(elem):
    out = {}
    for (alpha, xis), c in elem.terms.items():
        if xis:
            raise ValueError("element is outside the degree -1 window")
        out[alpha] = c
    return out


def _tagged_coords(elem):
    out = {}
    for (g, (alpha, xis)), c in elem.vectorize().items():
        if g[0] != "xi" or xis:
            raise ValueError("element is outside the degree -1 window")
        out[(g[1], alpha[0])] = c
    return out


def pair_setup(which: str, n: int, xwindow: int, field: Field = QQ) -> PairSetup:
    if n < 3:
        raise ValueError("the pairing needs arity at least 3")
    if which == "i":
        real = PoissonRealization(field, 0, n + 1, quotient=True,
                                  grading=GradingSpec((), (1,) * (n + 1)))
        mu = real.ring.monomial((), tuple(range(1, n + 2)))
        cat = algebra_O(n, field)
        keys = list(range(n + 1))
        return PairSetup(real, mu, cat, keys,
                         lambda k: real.ring.xi(k + 1), _poisson_coords,
                         l0_expected=(n + 1) * n // 2)
    if which == "ii":
        real = ButtinRealization(field, n, constraint="delta", quotient=True)
        mu = real.ring.monomial((0,) * n, tuple(range(1, n + 1)))
        cat = algebra_S(n, field)
        keys = monomials_upto(n, xwindow, include_constant=False)
        return PairSetup(real, mu, cat, keys,
                         lambda a: real.ring.monomial(a, ()), _xpoly_coords)
    if which == "iii":
        real = ContactRealization(field, n - 1, beta=1, constraint="div")
        mu = real.ring.monomial((0,) * (n - 1), tuple(range(1, n + 1)))
        cat = algebra_W(n, field)
        keys = monomials_upto(n - 1, xwindow)
        return PairSetup(real, mu, cat, keys,
                         lambda a: real.ring.monomial(a, ()), _xpoly_coords)
    if which == "iv":
        real = VectorFieldRealization(field, 1, n - 1, constraint="div",
                                      grading=GradingSpec((0,), (1,) * (n - 1)))
        mu = DiffOp.ddx(real.ring, 1,
                        coeff=real.ring.monomial((0,), tuple(range(1, n))))
        cat = algebra_SW(n, field)
        keys = [(t, a) for t in range(1, n) for a in range(xwindow + 1)]
        return PairSetup(
            real, mu, cat, keys,
            lambda k: DiffOp.ddxi(real.ring, k[0], coeff=real.ring.monomial((k[1],), ())),
            _tagged_coords)
    raise ValueError("unknown pair %r" % (which,))


def induced_table(real, mu, keys, elem_of, coords_of, arity: int) -> dict:
    """n-bracket read off by feeding depth-one elements into the top one;
    all depth-one elements here are odd, so tuples are strictly
    increasing and the conversion sign is a single global flip."""
    csign = conversion_sign((1,) * arity)
    table = {}
    for combo in combinations(keys, arity):
        h = mu
        for k in combo:
            h = real.bracket(h, elem_of(k))
        out = coords_of(h)
        if csign < 0:
            out = {k: -c for k, c in out.items()}
        if out:
            table[combo] = out
    return table


def catalog_table(cat, keys, arity: int) -> dict:
    table = {}
    for combo in combinations(keys, arity):
        coords = cat.coords(cat.bracket_keys(combo))
        if coords:
            table[combo] = coords
    return table


def _depth_kernel(real, slice_basis, lm1) -> int:
    """Dimension of the part of a slice that brackets all of ``lm1`` to zero."""
    imgs = [{(j, key): c for j, v in enumerate(lm1)
             for key, c in real.vectorize(real.bracket(X, v)).items()}
            for X in slice_basis]
    return len(kernel(real.field, imgs))


def verify_pair(which: str, n: int, xwindow: int = 3, field: Field = QQ) -> PairReport:
    setup = pair_setup(which, n, xwindow, field)
    real, mu = setup.real, setup.mu
    checks = []

    top = real.basis(n - 1, xwindow)
    top_ok = len(top) == 1
    if top_ok:
        sp = _span_of(field, [real.vectorize(top[0])])
        top_ok = sp.contains(real.vectorize(mu)) and real.contains(mu)
    checks.append(PairCheck("top_component_is_line", top_ok,
                            "degree %d slice has dimension %d" % (n - 1, len(top))))

    l0 = real.basis(0, xwindow)
    cent = all(not real.vectorize(real.bracket(mu, X)) for X in l0)
    checks.append(PairCheck("top_centralizes_degree_zero", cent,
                            "%d degree-0 elements" % len(l0)))
    if setup.l0_expected is not None:
        checks.append(PairCheck("degree_zero_dimension", len(l0) == setup.l0_expected,
                                "dim %d, expected %d" % (len(l0), setup.l0_expected)))

    finite_depth = which == "i"  # the window is then all of L_{-1}
    lm1 = [setup.elem_of(k) for k in setup.keys]
    trans, detail = True, "degrees 0..%d against the depth window" % (n - 1,)
    for d in range(0, n):
        kernel = _depth_kernel(real, real.basis(d, xwindow), lm1)
        if kernel:
            trans = False if finite_depth else None
            detail = "degree %d: %d-dim kernel against the depth %s" % (
                d, kernel, "module" if finite_depth else "window of an infinite L_-1")
            break
    checks.append(PairCheck("window_transitive", trans, detail))

    if which == "i":
        kindex = {k: i for i, k in enumerate(setup.keys)}
        mats = []
        for X in l0:
            m = {}
            for j, v in enumerate(lm1):
                for ck, c in setup.coords_of(real.bracket(X, v)).items():
                    m[(kindex[ck], j)] = c
            mats.append(m)
        env = envelope_dim(field, mats, len(setup.keys))
        full = len(setup.keys) ** 2
        checks.append(PairCheck("depth_module_irreducible", env == full,
                                "action envelope dim %d of %d" % (env, full)))
    else:
        checks.append(PairCheck(
            "depth_module_irreducible", None,
            "infinite depth component; not decided at window level"))

    ind = induced_table(real, mu, setup.keys, setup.elem_of, setup.coords_of, n)
    cat = catalog_table(setup.catalog, setup.keys, n)
    match, info = tables_proportional(ind, cat, field)
    scalar = info if match else None
    detail = ("scalar %s over %d tuples" % (info, len(cat))) if match else \
        ("mismatch at %s" % (info,))
    if match and not cat:
        match, detail = None, "no catalog tuple on the depth window"
    checks.append(PairCheck("induced_bracket_matches_catalog", match, detail))

    cname = {"i": "O", "ii": "S", "iii": "W", "iv": "SW"}[which] + "^%d" % n
    return PairReport(which, n, xwindow, real.name, cname, tuple(checks), scalar)


# ---------------------------------------------------------------------------
# splitting of the constrained carriers off their derived part


@dataclass
class SplitReport:
    label: str
    xwindow: int
    dim_window: int
    dim_derived: int
    complement_in_carrier: object
    complement_in_derived: object
    codim_one: object
    ideal_checked: int = 0
    ideal_failures: int = 0
    asserted: bool = True
    note: str = ""

    @property
    def ok(self) -> bool:
        good = (self.complement_in_carrier and not self.complement_in_derived
                and self.codim_one and self.ideal_failures == 0)
        return bool(good)


def check_split(real, complement, xwindow: int, gen_slack: int = 2,
                label: str = "", asserted: bool = True, ideal_xdeg: int = 1) -> SplitReport:
    """Window evidence for carrier = derived part (+) one extra line.

    The derived span is generated from a slackened window so the part of
    it lying inside the window saturates; the ideal property is sampled
    on low-degree multipliers whose brackets stay inside reach.  Each
    element's right slots are prepared once, its left pieces once per
    row."""
    field = real.field
    window = real.window_elements(xwindow)
    wspan = _span_of(field, [real.vectorize(e) for e in window])

    slack = real.window_elements(xwindow + gen_slack)
    rights = [real.prepare_right(e) for e in slack]
    dspan_all = Span(field)
    dw_vectors = []
    for i, e in enumerate(slack):
        left = real.prepare_left(e)
        for right in rights[i:]:
            r = real.bracket(left, right)
            v = real.vectorize(r)
            if not v:
                continue
            dspan_all.insert(v)
            if real.xdeg(r) <= xwindow:
                dw_vectors.append(v)
    dwspan = _span_of(field, dw_vectors)

    cvec = real.vectorize(complement)
    in_carrier = bool(wspan.contains(cvec)) and real.contains(complement)
    in_derived = bool(dspan_all.contains(cvec))
    codim = dwspan.dim == wspan.dim - 1

    checked = failures = 0
    rights = [(real.xdeg(d), real.prepare_right(d))
              for d in map(real.element, dwspan.basis())]
    for w in real.window_elements(ideal_xdeg):
        wdeg, left = real.xdeg(w), real.prepare_left(w)
        for ddeg, right in rights:
            if wdeg + ddeg > xwindow + gen_slack:
                continue
            r = real.bracket(left, right)
            v = real.vectorize(r)
            checked += 1
            if v and not dspan_all.contains(v):
                failures += 1

    return SplitReport(label or real.name, xwindow, wspan.dim, dwspan.dim,
                       in_carrier, in_derived, codim, checked, failures, asserted)


def split_cases(xwindow: int = 2, field: Field = QQ):
    """The four asserted splittings plus the reported borderline one."""
    out = []

    real = VectorFieldRealization(field, 1, 2, constraint="div")
    comp = DiffOp.ddx(real.ring, 1, coeff=real.ring.monomial((0,), (1, 2)))
    out.append(("S'(1,2)", real, comp, True))

    real = PoissonRealization(field, 0, 4, quotient=True)
    comp = real.ring.monomial((), (1, 2, 3, 4))
    out.append(("H'(0,4)", real, comp, True))

    real = ButtinRealization(field, 3, constraint="delta", quotient=True)
    comp = real.ring.monomial((0, 0, 0), (1, 2, 3))
    out.append(("SHO'(3,3)", real, comp, True))

    real = ContactRealization(field, 3, beta=1, constraint="div")
    comp = real.ring.monomial((0, 0, 0), (1, 2, 3, 4))
    out.append(("SKO'(3,4;1)", real, comp, True))

    if field.p == 3:
        raise ValueError("the SKO'(3,4;1/3) case needs beta = 1/3, which fp:3 lacks")
    real = ContactRealization(field, 3, beta=field.scalar(1, 3), constraint="div")
    comp = real.ring.monomial((0, 0, 0), (1, 2, 3))
    out.append(("SKO'(3,4;1/3)", real, comp, False))

    return out


def check_splits(xwindow: int = 2, field: Field = QQ):
    reports = []
    for label, real, comp, asserted in split_cases(xwindow, field):
        reports.append(check_split(real, comp, xwindow, label=label,
                                   asserted=asserted))
    return reports
