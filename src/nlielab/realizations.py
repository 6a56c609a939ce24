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

They share the base class ``Carrier``, which holds the weight grading
and the x-grading with their one compatibility test, the windows and
graded bases (monomial candidates cut to the kernel of the constraint),
the quotient by the constants, the Lie parity, membership, and the one
polynomial bracket: bilinear, [f, g] = sum_s c_s L_s(f) R_s(g) with left
pieces L_s derivatives (or 2 - E) of f or of f_odd - f_even, and right
slots R_s = d/dx_i g, d/dxi_j g or (2 - E) g.  A subclass declares these
rows as its ``pairing`` table, its ``constraint_value`` and the grading
hooks ``_paired_weights`` and ``_x_grading``.  ``bracket`` takes an
element or its prepared pieces on either side, so pairing one element
with many differentiates it once.  ``VectorFieldRealization`` supplies
the ``DiffOp`` versions of ``bracket``, ``zero``, ``vectorize``,
``element``, ``xdeg``, ``_keys`` and ``_key_weight``, and prepares
nothing.

``parse_handle`` is the one table from a carrier's name, such as H'(0,4)
or SKO'(3,4;1), to its constructor; the pairings and the splittings
build their named carriers through it.

On top of the carriers: the top-element pairing checks, read through
the routines W(V) uses too: ``liegen.structure_of`` on the window's
``pair_model`` (top line, centralizer, transitivity, irreducibility) and
``liegen.induced_table`` in carrier coordinates against the catalog
algebra, up to one global scalar; and the splitting reports full =
derived (+) one line.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import inf, lcm

from .catalog import algebra_O, algebra_S, algebra_SW, algebra_W, monomials_upto
from .fields import QQ, Field, parse_int
from .liegen import GradedModel, induced_table, structure_of, tables_proportional
from .linalg import Span, kernel
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

    def weight_key(self, key) -> int:
        alpha, xis = key
        w = sum(k * e for k, e in zip(self.xweights, alpha))
        return w + sum(self.xiweights[j - 1] for j in xis)


def principal_grading(m: int, n: int) -> GradingSpec:
    return GradingSpec((1,) * m, (1,) * n)


def depth_one_grading(m: int, n: int) -> GradingSpec:
    """Type (0,..,0|1,..,1)."""
    return GradingSpec((0,) * m, (1,) * n)


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
        self.xgrading = self._x_grading()
        self.shift, self.xshift = map(self._shift, (grading, self.xgrading))
        self.name = name

    def _shift(self, grading: GradingSpec) -> int:
        sums = self._paired_weights(grading)
        if len(sums) != 1:
            raise ValueError("grading is not compatible with the bracket")
        return sums.pop()

    def _paired_weights(self, grading: GradingSpec) -> set:
        """Weight sums of the generator pairs the bracket contracts; the
        grading is compatible with the bracket when there is exactly one,
        and it is the shift."""
        raise NotImplementedError

    def _x_grading(self) -> GradingSpec:
        """The grading ``check_split`` cuts by, with shift ``xshift``: x_i
        weigh 1, odd generators 0 unless the bracket pairs them with more."""
        return GradingSpec((1,) * self.ring.m, (0,) * self.ring.n)

    def _keys(self, xwindow: int):
        """The ``vectorize`` keys of x-degree at most ``xwindow``."""
        n = self.ring.n
        return [(alpha, xis) for alpha in monomials_upto(self.ring.m, xwindow)
                for r in range(n + 1) for xis in combinations(range(1, n + 1), r)]

    def _key_weight(self, grading: GradingSpec, key) -> int:
        return grading.weight_key(key)

    def _weights(self, grading: GradingSpec, f) -> set:
        """The ``grading`` weights of the terms of f."""
        return {self._key_weight(grading, key) for key in self.vectorize(f)}

    def xdegrees(self, f) -> set:
        """The x-grading weights of the terms of f."""
        return self._weights(self.xgrading, f)

    def _derive(self, op, f):
        return f.derive(op)

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
        """The vector field g -> [f, g] before ``project``, summed over the
        left pieces by ``_slot_field``.  Its kernel is the center (the
        constants for P and PO)."""
        op = DiffOp.zero(self.ring)
        for piece, slot in self.prepare_left(f):
            op = op + self._slot_field(piece, slot)
        return op

    def _slot_field(self, piece, slot) -> DiffOp:
        """The field g -> piece * R(g) of a derivation slot R."""
        return DiffOp(self.ring, {slot: piece})

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

    def _candidates(self, xwindow: int):
        one = self.field.one()
        return [self.element({key: one}) for key in self._keys(xwindow)
                if not (self.quotient and not key[1] and not any(key[0]))]

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
        """The window of x-degree <= ``xwindow``: the constraint's kernel on
        its candidates, the one kernel a carrier solves.  ``_keys`` grades
        the candidates by x-degree, so window k's are a prefix of window
        K's (k <= K); ``Span`` pivots on the smallest key, so the RREF of
        the prefix columns is the full RREF's rows with pivots there, and
        window k is the elements of window K of ``xdeg`` <= k, in order.
        Each constraint shifts the weight grading by one amount (what
        ``_shift`` checks), so the matrix is block-diagonal by weight and
        each kernel vector is the one of its block's own kernel: the
        pieces of ``graded_bases``."""
        return self._cut(self._candidates(xwindow))

    def graded_bases(self, xwindow: int) -> dict:
        """{degree: basis} read off ``window_elements(xwindow)``; an element
        off the grading is a broken invariant (RuntimeError)."""
        out: dict = {}
        for e in self.window_elements(xwindow):
            weights = self._weights(self.grading, e)
            if len(weights) != 1:
                raise RuntimeError("%s: a window element is not homogeneous" % self.name)
            out.setdefault(weights.pop() - self.shift, []).append(e)
        return out


class PoissonRealization(Carrier):
    """Free supercommutative carrier with even pairs {p_i, q_i} = 1
    (p_i = x_i, q_i = x_{k+i}) and odd pairs {xi_i, xi_i} = 1.  With
    ``quotient`` the constants are factored out."""

    # class-own attributes: perfbench's tracer wraps these per class
    window_elements = Carrier.window_elements
    bracket = Carrier.bracket

    def __init__(self, field: Field, m: int, n: int, quotient: bool = False,
                 grading: GradingSpec | None = None):
        if m % 2:
            raise ValueError("even generators must come in p,q pairs")
        self.npairs = k = m // 2
        # odd pairs carry (-1)^{p(f)+1}
        self.pairing = ([(("xi", i), ("xi", i), 1, True) for i in range(1, n + 1)]
                        + [row for i in range(1, k + 1)
                           for row in ((("x", i), ("x", k + i), 1, False),
                                       (("x", k + i), ("x", i), -1, False))])
        name = "H'(%d,%d)" % (m, n) if quotient else "P(%d,%d)" % (m, n)
        super().__init__(field, SuperPolyRing(field, m, n),
                         grading if grading is not None else principal_grading(m, n),
                         name, quotient=quotient)

    def _paired_weights(self, grading: GradingSpec) -> set:
        xw, sw = grading.xweights, grading.xiweights
        sums = {2 * w for w in sw}
        sums.update(xw[i] + xw[self.npairs + i] for i in range(self.npairs))
        # a bracket that pairs nothing leaves the grading unshifted
        return sums or {0}

    def _x_grading(self) -> GradingSpec:
        # odd pairs beside even ones must weigh as much, 1 each
        return GradingSpec((1,) * self.ring.m, (min(self.ring.m, 1),) * self.ring.n)


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

    def _paired_weights(self, grading: GradingSpec) -> set:
        return {grading.xweights[i] + grading.xiweights[i] for i in range(self.nvars)}

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
        self.mbeta = field.coerce(m * self.beta)
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

    def _paired_weights(self, grading: GradingSpec) -> set:
        sums = {grading.xiweights[self.cidx - 1]}
        sums.update(grading.xweights[i] + grading.xiweights[i] for i in range(self.m))
        return sums

    def _x_grading(self) -> GradingSpec:
        # the contact variable pairs with 2 - E, which keeps degrees
        return GradingSpec((1,) * self.m, (0,) * self.m + (1,))

    def _two_minus_e(self, f: SuperPoly) -> SuperPoly:
        # 2 - E with E the Euler operator on x_1..x_m, xi_1..xi_m
        N = self.cidx
        return f.weighted(lambda key: 2 - sum(key[0]) - len(key[1])
                          + (N in key[1]))

    def _derive(self, op, f):
        return self._two_minus_e(f) if op[0] == "2-E" else f.derive(op)

    def _slot_field(self, piece, slot) -> DiffOp:
        # piece * (2 - E): -piece times the Euler field on x_1..x_m,
        # xi_1..xi_m; the zero-order 2 * piece is not a field and is dropped
        if slot != ("2-E", 0):
            return Carrier._slot_field(self, piece, slot)
        ring, euler = self.ring, {}
        for i in range(1, self.m + 1):
            euler["x", i] = piece * ring.x(i)
            euler["xi", i] = piece * ring.xi(i)
        return -DiffOp(ring, euler)

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

    def _paired_weights(self, grading: GradingSpec) -> set:
        # the commutator pairs each generator with its own derivation
        return {0}

    def _keys(self, xwindow: int):
        gens = [("x", i) for i in range(1, self.m + 1)] + [("xi", j) for j in range(1, self.n + 1)]
        return [(g, key) for key in Carrier._keys(self, xwindow) for g in gens]

    def _key_weight(self, grading: GradingSpec, key) -> int:
        # a field weighs its coefficient less the generator it differentiates
        (kind, i), mono = key
        return grading.weight_key(mono) - (grading.xweights if kind == "x"
                                           else grading.xiweights)[i - 1]

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
        d = div(Xh)
        if d.is_zero():
            continue
        px = Xh.parity()
        for fh in f.homogeneous_parts():
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


def parse_handle(text: str, field: Field = QQ):
    """Build a realization from a short name such as W(1,2), S'(1,2),
    P(0,4), H'(0,4), PO(3,3), SHO'(3,3), KO(2,3), SKO'(2,3;1).  Only SKO'
    reads a beta (default 1); a beta on any other handle is an error."""
    s = text.strip().replace(" ", "")
    head, sep, rest = s.partition("(")
    if not sep or not rest.endswith(")"):
        raise ValueError("bad handle %r" % (text,))
    body, semi, btext = rest[:-1].partition(";")
    parts = body.split(",")
    if len(parts) != 2:
        raise ValueError("bad handle %r" % (text,))
    m, n = map(parse_int, parts)
    if m < 0 or n < 0:
        raise ValueError("negative variable count in handle %r" % (text,))
    if semi and head != "SKO'":
        raise ValueError("only SKO' takes a beta, not %r" % (text,))
    beta = field.parse(btext) if semi else 1
    if head in ("PO", "SHO'") and m != n:
        raise ValueError("this carrier needs equal variable counts")
    if head in ("KO", "SKO'") and n != m + 1:
        raise ValueError("this carrier needs one extra odd variable")
    make = {"W": lambda: VectorFieldRealization(field, m, n),
            "S'": lambda: VectorFieldRealization(field, m, n, constraint="div"),
            "P": lambda: PoissonRealization(field, m, n),
            "H'": lambda: PoissonRealization(field, m, n, quotient=True),
            "PO": lambda: ButtinRealization(field, n),
            "SHO'": lambda: ButtinRealization(field, n, constraint="delta", quotient=True),
            "KO": lambda: ContactRealization(field, m),
            "SKO'": lambda: ContactRealization(field, m, beta=beta, constraint="div")}
    if head not in make:
        raise ValueError("unknown handle %r" % (text,))
    return make[head]()


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
    elem_of: object  # catalog key -> its depth-one element
    l0_expected: object = None


def pair_setup(which: str, n: int, xwindow: int, field: Field = QQ) -> PairSetup:
    if n < 3:
        raise ValueError("the pairing needs arity at least 3")
    if which == "i":
        real = parse_handle("H'(0,%d)" % (n + 1), field)
        mu = real.ring.monomial((), tuple(range(1, n + 2)))
        return PairSetup(real, mu, algebra_O(n, field), list(range(n + 1)),
                         lambda k: real.ring.xi(k + 1), l0_expected=(n + 1) * n // 2)
    if which == "ii":
        real = parse_handle("SHO'(%d,%d)" % (n, n), field)
        mu = real.ring.monomial((0,) * n, tuple(range(1, n + 1)))
        return PairSetup(real, mu, algebra_S(n, field),
                         monomials_upto(n, xwindow, include_constant=False),
                         lambda a: real.ring.monomial(a, ()))
    if which == "iii":
        real = parse_handle("SKO'(%d,%d;1)" % (n - 1, n), field)
        mu = real.ring.monomial((0,) * (n - 1), tuple(range(1, n + 1)))
        return PairSetup(real, mu, algebra_W(n, field), monomials_upto(n - 1, xwindow),
                         lambda a: real.ring.monomial(a, ()))
    if which == "iv":
        real = VectorFieldRealization(field, 1, n - 1, constraint="div",
                                      grading=depth_one_grading(1, n - 1))
        mu = DiffOp.ddx(real.ring, 1,
                        coeff=real.ring.monomial((0,), tuple(range(1, n))))
        return PairSetup(
            real, mu, algebra_SW(n, field),
            [(t, a) for t in range(1, n) for a in range(xwindow + 1)],
            lambda k: DiffOp.ddxi(real.ring, k[0], coeff=real.ring.monomial((k[1],), ())))
    raise ValueError("unknown pair %r" % (which,))


def pair_model(setup: PairSetup, n: int, xwindow: int) -> GradedModel:
    """The window as a ``GradedModel`` of L_0..L_{n-1} over the depth
    elements of ``setup.keys``; with no even variable no x-window cuts
    the carrier, so they are all of L_-1 (pairing i)."""
    real = setup.real
    graded = real.graded_bases(xwindow)
    return GradedModel(real.field, {d: graded.get(d, []) for d in range(n)}, real.bracket,
                       real.vectorize, [setup.elem_of(k) for k in setup.keys],
                       not real.ring.m, setup.mu, n - 1)


def verify_pair(which: str, n: int, xwindow: int, field: Field = QQ) -> PairReport:
    setup = pair_setup(which, n, xwindow, field)
    real, mu = setup.real, setup.mu
    model = pair_model(setup, n, xwindow)
    found, finite_depth = structure_of(model), model.depth_is_all
    l0 = len(model.pieces[0])
    checks = [PairCheck("top_component_is_line", found.top_is_line,
                        "degree %d slice has dimension %d" % (n - 1, found.top_dim)),
              PairCheck("top_centralizes_degree_zero", found.centralizes,
                        "%d degree-0 elements" % l0)]
    if setup.l0_expected is not None:
        checks.append(PairCheck("degree_zero_dimension", l0 == setup.l0_expected,
                                "dim %d, expected %d" % (l0, setup.l0_expected)))

    # a kernel on a depth window of an infinite L_-1 decides nothing
    trans, detail = True, "degrees 0..%d against the depth window" % (n - 1,)
    if not found.transitive:
        trans = False if finite_depth else None
        detail = "degree %d: %d-dim kernel against the depth %s" % (
            *found.kernel[:2], "module" if finite_depth else "window of an infinite L_-1")
    checks.append(PairCheck("window_transitive", trans, detail))

    irr, info = found.irreducibility or (None, None)
    full = len(model.depth) ** 2
    detail = ("infinite depth component; not decided at window level" if not finite_depth
              else "depth vector %d spans a %d-dim invariant subspace" % info if irr is False
              else "action envelope dim %d of %d" % (full if irr is True else info, full))
    checks.append(PairCheck("depth_module_irreducible", irr, detail))

    depth = dict(zip(setup.keys, model.depth))
    ind = induced_table(real.bracket, mu, depth, combinations(setup.keys, n), real.vectorize,
                        {k: real.lie_parity(v) for k, v in depth.items()})
    # a depth-one element is one monomial, with coefficient 1
    cat = {key: {next(iter(real.vectorize(setup.elem_of(k)))): c for k, c in val.items()}
           for key in combinations(setup.keys, n) if (val := setup.catalog.bracket_keys(key))}
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
    asserted: bool = True

    @property
    def ok(self) -> bool:
        return bool(self.complement_in_carrier and not self.complement_in_derived
                    and self.codim_one)


GEN_SLACK = 2  # extra x-degree of the window the derived span is generated from
IDEAL_XDEG = 1  # x-degree of the multipliers the ideal property is sampled on


def saturation_edge(real, xdegree: int):
    """The least x-weight of the keys of x-degree ``xdegree`` + 1, inf if none."""
    beyond = set(real._keys(xdegree + 1)).difference(real._keys(xdegree))
    return min((real._key_weight(real.xgrading, k) for k in beyond), default=inf)


def check_split(real, complement, xwindow: int, label: str = "",
                asserted: bool = True) -> SplitReport:
    """Window evidence for carrier = derived part (+) one extra line.

    The slack is the carrier's elements of x-degree <= ``xwindow`` +
    ``GEN_SLACK`` (``window_elements``), and the derived span D is
    generated from its pairs, so the part of D inside the window
    saturates.  ``_cut`` returns a basis, so the window's dimension is
    the number of slack elements of x-degree <= ``xwindow``, and a vector
    lies in the window when its keys are the window's candidates and the
    constraint kills it.  Each slack element is prepared once per side.

    Only the slack pairs whose bracket lands in an x-grading weight some
    test reads are bracketed.  The constraints are x-homogeneous, so the
    kernel's RREF vectors are (else RuntimeError), and D is the sum of its
    homogeneous parts D_e; each key has one weight, so each RREF row of D
    is homogeneous.  Only the complement and the window rows are tested
    against D, and their terms weigh <= top.  A bracket of weights a and
    b lands in weight a + b - xshift, so the pairs beyond top only add to
    D_{>top}, and no answer changes.

    Nor are the pairs landing in a full weight.  The carrier C is a
    subalgebra, so D_e lies in C_e, and a bracket off C that grows D is a
    RuntimeError.  Each x_i adds 1 to a key's weight, so below
    ``saturation_edge`` every key has x-degree <= the slack's and the
    slack elements of weight e span C_e.  Once D_e has that many rows,
    D_e = C_e holds every later bracket into e: D, its unique RREF and
    each answer are those of all the pairs.  A weight the slack misses
    stays bracketed; the check sees its brackets vanish.

    The ideal sample, each slack element w of x-degree <= ``IDEAL_XDEG``
    with each window row d of D, is counted in ``ideal_checked``, not
    bracketed, since it cannot fail.  d lies in C in the weight e of its
    pivot, so d = sum c_i s_i over the slack elements s_i of weight e,
    [w, d] = sum c_i [w, s_i] by bilinearity, and each [w, s_i] is
    +-[s_i, w] by super-antisymmetry: a slack pair's bracket, in the span
    of all of them although the derived loop takes pairs i <= j only."""
    xshift = real.xshift
    slack = real.window_elements(xwindow + GEN_SLACK)
    degs = [real.xdegrees(e) for e in slack]
    if any(len(d) != 1 for d in degs):
        raise RuntimeError("%s: a slack element is not x-homogeneous" % real.name)
    degs = [d.pop() for d in degs]
    wtop = max(real._key_weight(real.xgrading, key) for key in real._keys(xwindow))
    top = max(wtop, max(real.xdegrees(complement), default=wtop))
    edge = saturation_edge(real, xwindow + GEN_SLACK)
    room = Counter(d for d in degs if d < edge)  # dim C_d - dim D_d; others go below 0
    rights = [real.prepare_right(e) for e in slack]
    derived = Span(real.field)
    for i, e in enumerate(slack):
        left = None
        for j in range(i, len(slack)):
            if (d := degs[i] + degs[j] - xshift) > top or room.get(d) == 0:
                continue
            left = real.prepare_left(e) if left is None else left
            r = real.bracket(left, rights[j])
            if (v := real.vectorize(r)) and derived.insert(v):
                if not real.contains(r):
                    raise RuntimeError("%s: a bracket leaves the carrier" % real.name)
                room[d] -= 1
    dim_window = sum(real.xdeg(e) <= xwindow for e in slack)
    dim_derived = sum(real.xdeg(real.element(row)) <= xwindow for row in derived.rows)
    cvec = real.vectorize(complement)
    keys = {key for c in real._candidates(xwindow) for key in real.vectorize(c)}
    in_carrier = cvec.keys() <= keys and real.contains(complement)
    return SplitReport(label or real.name, xwindow, dim_window, dim_derived, in_carrier,
                       bool(derived.contains(cvec)), dim_derived == dim_window - 1,
                       sum(real.xdeg(w) <= IDEAL_XDEG for w in slack) * dim_derived,
                       asserted)


def split_cases(field: Field = QQ):
    """The four asserted splittings plus the reported borderline one, each
    (handle, carrier, complement, asserted)."""
    if field.p == 3:
        raise ValueError("the SKO'(3,4;1/3) case needs beta = 1/3, which fp:3 lacks")
    out = []
    for label, xis, asserted in (("S'(1,2)", (1, 2), True), ("H'(0,4)", (1, 2, 3, 4), True),
                                 ("SHO'(3,3)", (1, 2, 3), True),
                                 ("SKO'(3,4;1)", (1, 2, 3, 4), True),
                                 ("SKO'(3,4;1/3)", (1, 2, 3), False)):
        real = parse_handle(label, field)
        comp = real.ring.monomial((0,) * real.ring.m, xis)
        if isinstance(real, VectorFieldRealization):  # S' splits off xi_1 xi_2 d/dx_1
            comp = DiffOp.ddx(real.ring, 1, coeff=comp)
        out.append((label, real, comp, asserted))
    return out


def check_splits(xwindow: int = 2, field: Field = QQ):
    return [check_split(real, comp, xwindow, label=label, asserted=asserted)
            for label, real, comp, asserted in split_cases(field)]
