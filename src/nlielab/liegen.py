"""Generation of graded subalgebras of W(V) and the structure checks
used to certify a pair (algebra element mu of degree n-1, space V) as
admissible: transitivity, mu commuting with the degree-zero part,
irreducibility of V under the degree-zero part, and truncation of the
generated algebra at degree n-1.

The checks prove statements about every element, or every basis tuple,
while computing on bases only.  Two arguments carry this:

* Linearity.  The iterated brackets c = [v_1,[...,[v_k, mu]...]] of a
  level k span the same space as [v_i, b] over a basis b of level k-1,
  and the seed relations [c, mu] = 0 and mu o c = 0 are linear in c.
  So one sweep keeps a basis per level (``_descendant_levels``), and
  checking the relations on it proves them for all dim^k tuples.
* Closure.  The closure caps at the top degree n-1 yet brackets every
  pair of its elements, and records the degree pair of each nonzero
  bracket; one landing above the cap is tested, never kept.  At a
  fixpoint with no such escape the span holds every bracket of its
  elements, so it is the generated algebra itself.  The truncation
  verdicts (nothing above n-1, opposite components commuting, the ideal
  below the top) are then read off that record with no bracket of their
  own.  An escape fails truncation in any larger closure too; without a
  fixpoint and without an escape the verdict is left open.

A suite that runs several checks on one seed generates once and hands
the ``(subalgebra, trace)`` pair to each check through ``generated=``.

Also provides the inverse construction: recovering an n-ary bracket on
the reversed space from mu via iterated brackets in W(V), which must
reproduce the multilinear map mu came from.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .linalg import Span, envelope_dim, orbit_span
from .multilinear import canonical_tuples, conversion_sign
from .superspace import SuperSpace, SuperVector
from .universal import GradedSubalgebra, WElement, box, is_transitive, w_bracket

__all__ = [
    "GenerationTrace",
    "generate_subalgebra",
    "AdmissiblePairReport",
    "check_admissible",
    "check_irreducible",
    "TruncationReport",
    "check_truncation",
    "MuRelationsReport",
    "check_mu_relations",
    "induced_bracket_table",
    "tables_proportional",
]


@dataclass
class GenerationTrace:
    rounds: list = dfield(default_factory=list)  # dims snapshot after each round
    reached_fixpoint: bool = False
    cap: int | None = None
    nonzero: set = dfield(default_factory=set)  # degree pairs (low, high) of nonzero brackets

    @property
    def nrounds(self) -> int:
        return len(self.rounds)

    @property
    def escape(self):
        """The least recorded degree pair whose bracket lands above the cap."""
        return min((p for p in self.nonzero if sum(p) > self.cap), default=None)

    @property
    def closed(self) -> bool:
        return self.reached_fixpoint and self.escape is None


def generate_subalgebra(space: SuperSpace, mu: WElement, cap: int | None = None):
    """Smallest graded subalgebra of W(V) containing V and mu, computed
    degree-capped at ``cap`` (default: the top degree of mu).  Returns
    (subalgebra, trace).

    The closure runs in semi-naive rounds (Bancilhon and Ramakrishnan
    1986): a round brackets only the elements that grew the span in the
    previous round, each against every element kept so far, one bracket
    per unordered pair.  Every other pair was bracketed in an earlier
    round, so by bilinearity each round reaches the same span as
    bracketing every pair of a basis of the current span.

    A bracket landing above the cap is computed and never kept.  The
    trace records the degree pair of every nonzero bracket, so
    ``trace.escape`` names the least pair landing above the cap.  The
    kept elements form a basis of the span S, and at a fixpoint every
    pair of them has been bracketed.  If no bracket escaped, each of
    those brackets lies in S, so by bilinearity S is closed under the
    bracket: it is a subalgebra containing V and mu, and it lies in any
    such subalgebra, so it is exactly the generated one (``trace.closed``).
    An escape is a nonzero element of the generated algebra above the
    cap, which no larger closure removes.
    """
    if mu.space != space:
        raise ValueError("mu must live over the given space")
    cap = mu.degree if cap is None else cap
    if cap < mu.degree:
        raise ValueError("cap %d cannot hold a seed of degree %d" % (cap, mu.degree))
    sub = GradedSubalgebra(space, cap)
    seeds = [WElement.from_vector(space.basis_vector(i)) for i in range(space.dim)]
    old: list = []
    new = [w for w in seeds + [mu] if sub.insert(w)]
    trace = GenerationTrace(cap=cap)
    trace.rounds.append(sub.dims())
    for _ in range(200):
        grown = []
        for i, u in enumerate(new):
            for v in old + new[i:]:
                if u.degree + v.degree < -1:
                    continue
                h = w_bracket(u, v)
                if h.is_zero():
                    continue
                trace.nonzero.add((min(u.degree, v.degree), max(u.degree, v.degree)))
                if sub.insert(h):
                    grown.append(h)
        trace.rounds.append(sub.dims())
        if not grown:
            trace.reached_fixpoint = True
            break
        old += new
        new = grown
    return sub, trace


def check_irreducible(sub: GradedSubalgebra):
    """Decide irreducibility of V under the degree-zero component.

    Returns (status, detail) with status in {True, False, "not_decided"}.
    Two exact criteria: a proper invariant subspace found by spinning a
    basis vector proves reducibility; the associative envelope of the
    action filling all of End(V) proves irreducibility (over any field,
    since a proper invariant subspace would force the envelope into a
    proper subspace of matrices).
    """
    space = sub.space
    field = space.field
    dim = space.dim
    # a degree-0 element sends e_j to sum_i c e_i over its coordinates ((j,), i)
    actions = [{(i, j): c for ((j,), i), c in u.coords.items()} for u in sub.basis(0)]
    if not actions:
        status = dim <= 1
        return status, "degree-zero part acts by zero"

    # spin each basis vector (a one-column matrix); a proper invariant
    # span is a witness
    for start in range(dim):
        orbit = orbit_span(field, actions, {(start, 0): field.one()})
        if orbit.dim < dim:
            return False, "basis vector %d spans a %d-dim invariant subspace" % (
                start,
                orbit.dim,
            )

    env = envelope_dim(field, actions, dim)
    if env == dim * dim:
        return True, "action envelope fills End(V)"
    return "not_decided", "no invariant subspace through basis vectors; envelope dim %d < %d" % (
        env,
        dim * dim,
    )


@dataclass
class AdmissiblePairReport:
    arity: int
    graded_dims: dict
    transitive: bool
    transitivity_witness: object
    mu_centralizes_degree_zero: bool
    centralizer_witness: object
    irreducible: object  # True / False / "not_decided"
    irreducibility_detail: str
    top_is_line: bool
    generation: GenerationTrace

    @property
    def admissible(self):
        if not self.generation.closed:
            return "not_decided"  # the generated algebra may be incomplete
        parts = [
            self.transitive,
            self.mu_centralizes_degree_zero,
            self.top_is_line,
        ]
        if not all(parts) or self.irreducible is False:
            return False
        if self.irreducible == "not_decided":
            return "not_decided"
        return True


def check_admissible(space: SuperSpace, mu: WElement, cap: int | None = None, *,
                     generated=None) -> AdmissiblePairReport:
    """Admissibility of (mu, V).  ``generated`` is the pair that
    ``generate_subalgebra(space, mu, cap)`` returned, when the caller
    has it already; ``cap`` is then ignored."""
    n = mu.degree + 1
    if n < 2:
        raise ValueError("mu must have degree at least 1")
    sub, trace = generated or generate_subalgebra(space, mu, cap)
    transitive, witness = is_transitive(sub, up_to=max(sub.degrees(), default=0))
    cent_ok = True
    cent_witness = None
    for u in sub.basis(0):
        h = w_bracket(mu, u)
        if not h.is_zero():
            cent_ok = False
            cent_witness = (u, h)
            break
    irr, irr_detail = check_irreducible(sub)
    top = sub.spans.get(n - 1)
    top_is_line = top is not None and top.dim == 1 and sub.contains(mu)
    return AdmissiblePairReport(
        arity=n,
        graded_dims=sub.dims(),
        transitive=transitive,
        transitivity_witness=witness,
        mu_centralizes_degree_zero=cent_ok,
        centralizer_witness=cent_witness,
        irreducible=irr,
        irreducibility_detail=irr_detail,
        top_is_line=top_is_line,
        generation=trace,
    )


@dataclass
class TruncationReport:
    ok: object  # True / False / None when the closure is open with no escape
    vanishing_above: bool
    top_is_line: bool
    components_from_top: bool  # L_j spanned by iterated brackets of V into mu
    opposite_pairs_commute: bool  # [L_j, L_{n-1-j}] = 0 for j >= 0
    positive_part_ideal: bool
    failures: list
    generation: GenerationTrace


def _descendant_levels(space: SuperSpace, mu: WElement, depth: int):
    """Yield level k = 0..depth of the sweep down from mu: a basis of the
    span of c = [v_{i_1},[...,[v_{i_k}, mu]...]] over all index tuples,
    as (tuple, c) pairs.  Level k brackets V into the basis of level k-1
    only; by linearity that spans the same space as every tuple, and each
    kept element is exactly the iterated bracket of its tuple."""
    vs = [WElement.from_vector(space.basis_vector(i)) for i in range(space.dim)]
    level = [] if mu.is_zero() else [((), mu)]
    yield level
    for _ in range(depth):
        span = Span(space.field)
        below = []
        for tup, prev in level:
            for i, v in enumerate(vs):
                h = w_bracket(v, prev)
                if not h.is_zero() and span.insert(h.coords):
                    below.append(((i,) + tup, h))
        level = below
        yield level


def check_truncation(space: SuperSpace, mu: WElement, cap: int | None = None, *,
                     generated=None) -> TruncationReport:
    """Structure of the algebra generated by an admissible pair: nothing
    above degree n-1, a line at the top, every component swept out from
    mu by repeated bracketing with V, opposite components commuting,
    and everything below the top line forming an ideal.

    ``generated`` is the pair ``generate_subalgebra(space, mu, cap)``
    returned, when the caller has it already.  Only the sweep brackets
    here: the vanishing, opposite-pair and ideal verdicts are read off
    the closure's record of nonzero degree pairs.  So ``ok`` is False on
    an escape, and otherwise None unless the closure is closed."""
    n = mu.degree + 1
    if n < 2:
        raise ValueError("mu must have degree at least 1")
    sub, trace = generated or generate_subalgebra(space, mu, cap)
    failures = []

    vanishing = all(a + b <= n - 1 for a, b in trace.nonzero)
    if not vanishing:
        failures.append("nonzero component in degree above %d" % (n - 1))

    top = sub.spans.get(n - 1)
    top_is_line = top is not None and top.dim == 1 and sub.contains(mu)
    if not top_is_line:
        failures.append("top component is not the line through mu")

    # sweep down: level k spans [v_1,[...,[v_k, mu]...]]; the claim covers
    # degrees 0..n-1, so sweep k = 1..n-1
    sweep_ok = True
    for k, level in enumerate(_descendant_levels(space, mu, n - 1)):
        if k == 0:
            continue
        deg = n - 1 - k
        if len(level) != sub.dim(deg):
            sweep_ok = False
            failures.append(
                "degree %d: swept span has dim %d, component has dim %d"
                % (deg, len(level), sub.dim(deg))
            )
            continue
        if not all(sub.contains(h) for _, h in level):
            sweep_ok = False
            failures.append("degree %d: swept element escapes the component" % deg)

    # a nonzero [L_j, L_{n-1-j}] with j >= 0 breaks the opposite pairs,
    # named by its least j; a nonzero bracket landing at n-1 or above
    # with a factor at or below n-2 breaks the ideal, named as the least
    # pair (any degree, lower degree)
    first_opposite = min((a for a, b in trace.nonzero if a >= 0 and a + b == n - 1),
                         default=None)
    pairs_ok = first_opposite is None
    if not pairs_ok:
        failures.append("[degree %d, degree %d] bracket is nonzero"
                        % (first_opposite, n - 1 - first_opposite))
    first_ideal = min(((a, b) if b <= n - 2 else (b, a)
                       for a, b in trace.nonzero if a + b >= n - 1 and a <= n - 2),
                      default=None)
    ideal_ok = first_ideal is None
    if not ideal_ok:
        failures.append("[degree %d, degree %d] lands in the top line" % first_ideal)

    ok = vanishing and top_is_line and sweep_ok and pairs_ok and ideal_ok
    return TruncationReport(
        ok=ok if trace.closed or trace.escape else None,
        vanishing_above=vanishing,
        top_is_line=top_is_line,
        components_from_top=sweep_ok,
        opposite_pairs_commute=pairs_ok,
        positive_part_ideal=ideal_ok,
        failures=failures,
        generation=trace,
    )


@dataclass
class MuRelationsReport:
    ok: bool
    checked: int  # basis descendants, over all levels
    self_bracket_zero: bool
    witness: object


def check_mu_relations(space: SuperSpace, mu: WElement) -> MuRelationsReport:
    """The relations mu satisfies against its own iterated descendants
    c = [v_1,[...,[v_k, mu]...]] over all basis tuples:

      [c, mu] = 0          for 0 <= k <= n-1 (k = 0 is [mu, mu] = 0),
      mu composed on c = 0 for 0 <= k <= n-2 (the seed itself and all
                           descendants of positive degree).

    Both are linear in c, so they are checked on a basis of each level
    (``_descendant_levels``), which proves them for every tuple; a
    witness names the tuple of the basis descendant that fails.

    The composition form is strictly stronger than the bracket form in
    the degrees where it applies; it cannot hold for k = n-1 since
    composing mu onto a nonzero degree-0 operator never vanishes when
    the operator acts nontrivially on the image of mu."""
    n = mu.degree + 1
    checked = 0
    self_ok = w_bracket(mu, mu).is_zero()
    for k, level in enumerate(_descendant_levels(space, mu, n - 1)):
        for tup, c in level:
            checked += 1
            if not w_bracket(c, mu).is_zero():
                witness = ("bracket", tup)
            elif k <= n - 2 and not box(mu, c).is_zero():
                witness = ("composition", tup)
            else:
                continue
            return MuRelationsReport(False, checked, self_ok, witness)
    return MuRelationsReport(self_ok, checked, self_ok, None)


def induced_bracket_table(space: SuperSpace, mu: WElement) -> dict:
    """Recover an n-bracket on the reversed space from mu degree-by-degree:
    plug basis vectors into mu via iterated brackets in W(V) and convert
    the resulting vector with the parity-bookkeeping sign.

    Returns a table over canonically sorted index tuples of the reversed
    space, directly comparable with a bracket table built the other way.
    """
    n = mu.degree + 1
    rev = space.reversed()
    table = {}
    for key in canonical_tuples(range(space.dim), n, rev.parities):
        h = mu
        for i in key:
            h = w_bracket(h, WElement.from_vector(space.basis_vector(i)))
        if h.degree != -1:
            raise ValueError("iterated bracket did not land in degree -1")
        csign = conversion_sign([space.parities[i] for i in key])
        if h.coords:
            table[key] = SuperVector(space, {i: csign * c for (_, i), c in h.coords.items()})
    return table


def tables_proportional(t1: dict, t2: dict, field):
    """Compare two bracket tables up to one global scalar.

    Values may be SuperVector or coordinate dicts.  Returns (True, c)
    with t1 = c * t2, or (False, witness_key).
    """

    def coords(v):
        return v.coords if isinstance(v, SuperVector) else v

    keys = sorted(set(t1) | set(t2))
    scalar = None
    for key in keys:
        c1 = coords(t1.get(key, {})) if t1.get(key) is not None else {}
        c2 = coords(t2.get(key, {})) if t2.get(key) is not None else {}
        idxs = sorted(set(c1) | set(c2))
        for i in idxs:
            a = c1.get(i, field.zero())
            b = c2.get(i, field.zero())
            if not a and not b:
                continue
            if not b or not a:
                return False, key
            r = field.div(a, b)
            if scalar is None:
                scalar = r
            elif r != scalar:
                return False, key
    if scalar is None:
        scalar = field.one()
    return True, scalar
