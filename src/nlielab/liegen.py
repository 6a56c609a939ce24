"""Generation of graded subalgebras of W(V) and the structure checks
used to certify a pair (algebra element mu of degree n-1, space V) as
admissible: transitivity, mu commuting with the degree-zero part,
irreducibility of V under the degree-zero part, and truncation of the
generated algebra at degree n-1.

Admissibility is ``structure_of`` a ``GradedModel``, one routine for
both models of L (this closure's ``closure_model`` and the carrier windows
of ``realizations``), with ``universal.is_transitive`` and
``check_irreducible`` as its transitivity loop and irreducibility step.

The checks prove statements about every element, or every basis tuple,
while computing on bases only.  Three arguments carry this:

* Linearity.  The iterated brackets c = [v_1,[...,[v_k, mu]...]] of a
  level k span the same space as [v_i, b] over a basis b of level k-1,
  and the seed relations [c, mu] = 0 and mu o c = 0 are linear in c.
  So one sweep keeps a basis per level (``_descendant_levels``), and
  checking the relations on it proves them for all dim^k tuples.  On a
  closed closure with nothing above n-1 and [L_0, mu] = 0 level k is a
  basis of L_(n-1-k) and ad mu kills L_(>=0) (``_sweep_proved``), so
  neither check sweeps: each reads its levels off the closure.
* Closure.  The closure caps at the top degree n-1 and brackets each
  element that grew the span with the generators only, V and mu, and
  records the degree pair of each nonzero bracket; one landing above the
  cap is tested, never kept.  An algebra generated by a set X is spanned
  by the right-normed brackets of X, so at a fixpoint with no such
  escape the span is the generated algebra itself.  On an escape, or
  with no fixpoint, the same loop reruns bracketing every pair of kept
  elements, so a failure names the least pair that leaves the cap.  An
  escape fails truncation in any larger closure too; without a fixpoint
  and without an escape the verdict is left open.
* Truncation.  On a closed closure nothing above n-1, the top line, the
  sweep and [L_0, mu] = 0 give the opposite-pair and ideal verdicts by
  a super Jacobi induction (``check_truncation``), with no bracket
  between two components; when one of them fails, those verdicts are
  read off a rerun that brackets every pair.  The sweep premise itself
  follows from nothing above n-1 and [L_0, mu] = 0.

A suite that runs several checks on one seed generates once:
``generate_subalgebra`` stores its ``(subalgebra, trace)`` pair on the
seed, by cap, and every check on the same seed object reads it there.
The stored pair is shared, so it is read-only.

Also provides the inverse construction: recovering an n-ary bracket on
the reversed space from mu via iterated brackets in W(V), which must
reproduce the multilinear map mu came from.  Its ``induced_table`` also
reads the bracket off the polynomial carriers of ``realizations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property
from operator import attrgetter

from .linalg import Span, irreducible, matrix_of
from .multilinear import canonical_tuples, conversion_sign
from .superspace import SuperSpace
from .universal import (GradedSubalgebra, WElement, box, bracket_of_products, full_component,
                        is_transitive, w_bracket)

__all__ = [
    "GenerationTrace",
    "generate_subalgebra",
    "AdmissiblePairReport",
    "check_admissible",
    "TruncationReport",
    "check_truncation",
    "MuRelationsReport",
    "check_mu_relations",
    "GradedModel",
    "closure_model",
    "check_irreducible",
    "Structure",
    "structure_of",
    "induced_table",
    "induced_bracket_table",
    "tables_proportional",
]


@dataclass(frozen=True)
class GenerationTrace:
    rounds: tuple = ()  # dims snapshot after each round
    reached_fixpoint: bool = False
    cap: int | None = None
    # degree pairs (low, high) of the nonzero brackets the closure made:
    # each grown element with a generator, or, on a rerun, every pair
    nonzero: frozenset = frozenset()

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
    previous round, each against the generators X = V + {mu}.  A bracket
    landing above the cap is computed and never kept; the trace records
    the degree pair of every nonzero bracket.

    Why the generators suffice.  By super Jacobi, which holds in W(V)
    over any field since its bracket is the supercommutator of the
    composition product, [[a, b], c] = [a, [b, c]] - (-1)^(ab)[b, [a, c]],
    so by induction on length every bracket of elements of X is a sum of
    right-normed ones [x_1, [x_2, .., [x_(k-1), x_k]..]].  The kept
    elements form a basis of the span S, and at a fixpoint each of them
    has been bracketed with every x in X.  If none of those brackets
    escaped, ad x maps S into S by linearity, so S holds every
    right-normed bracket of X: it is the generated algebra, and it lies
    below the cap (``trace.closed``).  A right-normed chain that leaves
    the cap does so at one step [x, s] with s kept, so the escape test
    is the generator brackets' own.  An escape is a nonzero element of
    the generated algebra above the cap, which no larger closure removes.

    On an escape, or with no fixpoint, the same loop (``_closure``)
    reruns with every kept element as partner, one bracket per unordered
    pair, and its trace is returned: it records every pair, so a failure
    names the least pair whose bracket leaves the cap.

    The pair is stored on ``mu`` by cap and returned to a later call on
    the same object: it depends on V, mu and the cap alone, and mu's
    coordinates are read-only.  Every caller gets the same pair, so it
    is read-only too: insert nothing into the subalgebra.  The trace is
    frozen.
    """
    if mu.space != space:
        raise ValueError("mu must live over the given space")
    cap = mu.degree if cap is None else cap
    if cap < mu.degree:
        raise ValueError("cap %d cannot hold a seed of degree %d" % (cap, mu.degree))
    got = _stored_closure(mu, cap)
    if got is None:
        for pairwise in (False, True):
            got = _closure(space, mu, cap, pairwise)
            if got[1].closed:
                break
        mu._closures = {**(mu._closures or {}), cap: got}
    return got


def _stored_closure(mu: WElement, cap: int | None = None):
    """The pair ``generate_subalgebra`` stored on mu at ``cap``, or at any
    cap when ``cap`` is None; None when nothing is stored.  Builds nothing."""
    closures = mu._closures or {}
    return next(iter(closures.values()), None) if cap is None else closures.get(cap)


def _closure(space: SuperSpace, mu: WElement, cap: int, pairwise: bool):
    """The semi-naive closure loop of ``generate_subalgebra``: each new
    element against the generators, or, ``pairwise``, against every
    element kept so far, one bracket per unordered pair.  A pairwise
    round skips only pairs bracketed in an earlier one, so by
    bilinearity it reaches the span of bracketing every pair of a basis."""
    sub = GradedSubalgebra(space, cap)
    gens = full_component(space, -1) + [mu]
    old: list = []
    new = [w for w in gens if sub.insert(w)]
    rounds, nonzero, fixpoint = [sub.dims()], set(), False
    for _ in range(200):
        grown = []
        for i, u in enumerate(new):
            for v in old + new[i:] if pairwise else gens:
                if u.degree + v.degree < -1:
                    continue
                h = w_bracket(u, v)
                if h.is_zero():
                    continue
                nonzero.add((min(u.degree, v.degree), max(u.degree, v.degree)))
                if sub.insert(h):
                    grown.append(h)
        rounds.append(sub.dims())
        if not grown:
            fixpoint = True
            break
        old += new
        new = grown
    return sub, GenerationTrace(tuple(rounds), fixpoint, cap, frozenset(nonzero))


@dataclass
class AdmissiblePairReport:
    arity: int
    graded_dims: dict
    structure: Structure  # the closure's top line, centralizer, kernel, irreducibility
    irreducibility_detail: str
    generation: GenerationTrace

    @property
    def admissible(self):
        """True, False, or None when not decided."""
        if not self.generation.closed:
            return None  # the generated algebra may be incomplete
        s = self.structure
        return s.irreducibility[0] if s.transitive and s.centralizes and s.top_is_line else False


def check_admissible(space: SuperSpace, mu: WElement,
                     cap: int | None = None) -> AdmissiblePairReport:
    """Admissibility of (mu, V): the ``structure_of`` the
    ``closure_model`` of ``generate_subalgebra(space, mu, cap)``."""
    n = mu.degree + 1
    if n < 2:
        raise ValueError("mu must have degree at least 1")
    sub, trace = generate_subalgebra(space, mu, cap)
    found = structure_of(closure_model(sub, mu))
    irr, info = found.irreducibility
    detail = ("degree-zero part acts by zero" if not sub.dim(0)
              else "basis vector %d spans a %d-dim invariant subspace" % info if irr is False
              else "action envelope fills End(V)" if irr
              else "no invariant subspace through basis vectors; envelope dim %d < %d"
              % (info, space.dim ** 2))
    return AdmissiblePairReport(arity=n, graded_dims=sub.dims(), structure=found,
                                irreducibility_detail=detail, generation=trace)


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
    kept element is exactly the iterated bracket of its tuple.  The two
    checks that read it run it only when ``_sweep_proved`` fails, or to
    name a failing tuple."""
    vs = full_component(space, -1)
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


def _sweep_proved(mu: WElement, sub: GradedSubalgebra, trace: GenerationTrace) -> bool:
    """Whether the closure ``(sub, trace)`` proves the sweep down from mu,
    level k spanning L_(n-1-k) (proof in ``check_truncation``): n >= 2, the
    closure is closed, every recorded nonzero degree pair lands at or below
    n-1, and [L_0, mu] = 0.

    The last premise is read off the record unless the pair (0, n-1) is
    on it.  At a fixpoint every kept element was bracketed with mu, in
    the generator loop and in the pairwise rerun alike, and each nonzero
    bracket was recorded.  The kept elements of degree 0 span L_0, and
    u -> [u, mu] is linear, so with (0, n-1) never recorded [L_0, mu] = 0.
    With it recorded, mu is bracketed against a basis of L_0 here."""
    n = mu.degree + 1
    return (n >= 2 and trace.closed and all(a + b <= n - 1 for a, b in trace.nonzero)
            and ((0, n - 1) not in trace.nonzero
                 or all(w_bracket(mu, u).is_zero() for u in sub.basis(0))))


def check_truncation(space: SuperSpace, mu: WElement,
                     cap: int | None = None) -> TruncationReport:
    """Structure of the algebra generated by an admissible pair: nothing
    above degree n-1, a line at the top, every component swept out from
    mu by repeated bracketing with V, opposite components commuting,
    and everything below the top line forming an ideal.

    The closure is ``generate_subalgebra(space, mu, cap)``.  The
    vanishing verdict is read off its record of nonzero degree pairs: on
    a closed closure a component above n-1 is first reached by a
    generator bracket [x, s], which is on record.  So ``ok`` is False on
    an escape, and otherwise None unless the closure is closed.

    The sweep verdict needs no sweep when ``_sweep_proved`` holds: the
    closure is closed, every recorded nonzero pair lands at or below n-1,
    and [L_0, mu] = 0.  Every kept element was bracketed with mu, and a
    nonzero [u, mu] with deg u >= 1 lands above n-1, so it would be on
    record; the kept elements of degree >= 1 span L_(>=1), so ad mu kills
    L_(>=0), which holds mu itself.  Also [V, V] = 0, since W(V) has no
    degree -2.  The closed closure is spanned by the right-normed chains
    of V and mu.  By induction from the inside, each such chain is an
    element of V, zero, or +- a single-mu chain [v_1,[...,[v_k, mu]...]]:
    ad v kills V and lengthens a single-mu chain, ad mu sends v in V to
    -+[v, mu], and it kills a single-mu chain of degree >= 0.  So L_d,
    d >= 0, is the span of the single-mu chains of length n-1-d, which
    is level k = n-1-d of the sweep: that is premise (c) below.  The
    argument uses super Jacobi and linearity only, so it holds over any
    field.  When ``_sweep_proved`` fails, ``_descendant_levels`` sweeps
    and each level is compared with its component.

    The opposite-pair and ideal verdicts need no bracket between two
    components.  Let L be the generated algebra with (a) L_j = 0 for
    j >= n, (b) L_(n-1) the line through mu, (c) each L_k, 0 <= k <= n-2,
    spanned by [V, L_(k+1)] (the sweep), and (d) [L_0, mu] = 0.  Then
    [L_j, L_(n-1-j)] = 0 for every j >= 0, by induction on j: j = 0 is
    (b) and (d).  For j >= 1 and u in L_j, (c) writes an element of
    L_(n-1-j) as a sum of [v, w] with v in V and w in L_(n-j), and super
    Jacobi gives [u, [v, w]] = [[u, v], w] +- [v, [u, w]].  Here [u, w]
    lies in L_n = 0 by (a), and [u, v] in L_(j-1), which commutes with
    L_(n-j) by induction.  A bracket with a factor in degree b <= n-2
    that lands at n-1 or above is then zero too: above n-1 by (a), and
    at n-1 its other factor has degree n-1-b >= 1, an opposite pair.  So
    on a closed closure the premises, with (d) read off the record by
    ``_sweep_proved``, leave the record without a failing pair; when one
    of them fails, the two verdicts are read off a closure that brackets
    every pair, and name its least failing pair."""
    n = mu.degree + 1
    if n < 2:
        raise ValueError("mu must have degree at least 1")
    sub, trace = generate_subalgebra(space, mu, cap)
    failures = []

    vanishing = all(a + b <= n - 1 for a, b in trace.nonzero)
    if not vanishing:
        failures.append("nonzero component in degree above %d" % (n - 1))

    top_is_line = _is_line_through([e.coords for e in sub.basis(n - 1)], mu.coords,
                                   space.field)
    if not top_is_line:
        failures.append("top component is not the line through mu")

    # sweep down unless the closure proves it: level k spans
    # [v_1,[...,[v_k, mu]...]]; the claim covers degrees 0..n-1, so sweep
    # k = 1..n-1
    proved = _sweep_proved(mu, sub, trace)
    sweep_ok = True
    levels = () if proved else _descendant_levels(space, mu, n - 1)
    for k, level in enumerate(levels):
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

    # the premises of the induction; when one fails, the pairs come from
    # a closure that records every pair of a basis
    pairs = trace.nonzero
    if trace.closed and not (proved and top_is_line):
        pairs = _closure(space, mu, sub.cap, True)[1].nonzero

    # a nonzero [L_j, L_{n-1-j}] with j >= 0 breaks the opposite pairs,
    # named by its least j; a nonzero bracket landing at n-1 or above
    # with a factor at or below n-2 breaks the ideal, named as the least
    # pair (any degree, lower degree)
    first_opposite = min((a for a, b in pairs if a >= 0 and a + b == n - 1), default=None)
    pairs_ok = first_opposite is None
    if not pairs_ok:
        failures.append("[degree %d, degree %d] bracket is nonzero"
                        % (first_opposite, n - 1 - first_opposite))
    first_ideal = min(((a, b) if b <= n - 2 else (b, a)
                       for a, b in pairs if a + b >= n - 1 and a <= n - 2),
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

    A closure ``generate_subalgebra`` already stored on mu is read, at
    any cap; none is started.  When it proves the sweep (``_sweep_proved``, proof
    in ``check_truncation``), level k spans L_(n-1-k) and ad mu kills
    L_(>=0), which holds every descendant, so the bracket half holds
    with no bracket.  The composition half is then checked on a basis of
    each L_d, d = 1..n-1, and ``checked`` counts the sum of dim L_d over
    d = 0..n-1, the size of the levels.  A failing composition reruns
    the sweep, which names its tuple.

    The composition form is strictly stronger than the bracket form in
    the degrees where it applies; it cannot hold for k = n-1 since
    composing mu onto a nonzero degree-0 operator never vanishes when
    the operator acts nontrivially on the image of mu."""
    n = mu.degree + 1
    self_ok = w_bracket(mu, mu).is_zero()
    generated = _stored_closure(mu)
    if generated and _sweep_proved(mu, *generated):
        sub = generated[0]
        if all(box(mu, c).is_zero() for d in range(1, n) for c in sub.basis(d)):
            return MuRelationsReport(self_ok, sum(map(sub.dim, range(n))), self_ok, None)
    checked = 0
    for k, level in enumerate(_descendant_levels(space, mu, n - 1)):
        for tup, c in level:
            checked += 1
            composed = box(mu, c)  # mu o c, read by both relations
            if not bracket_of_products(c, mu, box(c, mu), composed).is_zero():
                witness = ("bracket", tup)
            elif k <= n - 2 and not composed.is_zero():
                witness = ("composition", tup)
            else:
                continue
            return MuRelationsReport(False, checked, self_ok, witness)
    return MuRelationsReport(self_ok, checked, self_ok, None)


@dataclass
class GradedModel:
    """A graded model of L = (+)_{j >= -1} L_j as ``structure_of`` reads
    it: ``pieces`` {degree: basis} over the degrees >= 0 it reads, an
    element's ``coords`` (a coordinate dict), ``depth`` elements of L_-1,
    each one unit coordinate vector, and whether they are all of it.
    ``prepare`` turns an element into the right side ``bracket`` takes,
    so each depth element is prepared once (``prepared_depth``)."""

    field: object
    pieces: dict
    bracket: object
    prepare: object
    coords: object
    depth: list
    depth_is_all: bool
    mu: object
    top: int  # the degree of mu
    _images: dict = dfield(default_factory=dict, init=False, repr=False)

    @cached_property
    def prepared_depth(self) -> list:
        return [self.prepare(v) for v in self.depth]

    def images(self, degree: int) -> list:
        """The coords of [u, v] for u in the piece, v in the depth; degree
        0's, which ``check_irreducible`` reads again, are bracketed once."""
        got = self._images.get(degree)
        if got is None:
            got = [[self.coords(self.bracket(u, v)) for v in self.prepared_depth]
                   for u in self.pieces.get(degree, ())]
            if degree == 0:
                self._images[0] = got
        return got


def closure_model(sub: GradedSubalgebra, mu: WElement) -> GradedModel:
    """The W(V) closure as a ``GradedModel``: each of its degrees >= 0,
    with all of V as the depth elements; ``w_bracket`` prepares nothing.

    Every such model is transitive.  For f of degree >= 0 and a in V,
    [f, a] = f*a, which plugs a into the first slot of f, since a*f = 0.
    So [f, V] = 0 makes f vanish on every argument tuple: f = 0.  The
    loop of ``is_transitive`` still runs on it, as on a carrier's model."""
    space = sub.space
    return GradedModel(space.field, {d: sub.basis(d) for d in sub.degrees() if d >= 0},
                       w_bracket, lambda w: w, attrgetter("coords"), full_component(space, -1),
                       True, mu, mu.degree)


def check_irreducible(model: GradedModel):
    """``linalg.irreducible`` on the action of L_0 on the depth elements:
    the matrix of u has column j the coordinates of [u, e_j], read off
    the degree-0 images that the transitivity loop bracketed."""
    index = {key: j for j, e in enumerate(model.depth) for key in model.coords(e)}
    mats = [matrix_of([{index[key]: c for key, c in img.items()} for img in row])
            for row in model.images(0)]
    return irreducible(model.field, mats, len(model.depth))


@dataclass
class Structure:
    top_dim: int
    top_is_line: bool  # dim L_top = 1 and mu spans it
    moves_mu: object  # (u, [mu, u]) for the first u in L_0 with [mu, u] != 0
    kernel: object  # ``is_transitive``'s (degree, dim, witness) of a kernel
    irreducibility: object  # ``check_irreducible``'s pair when depth_is_all

    @property
    def transitive(self) -> bool:
        return self.kernel is None

    @property
    def centralizes(self) -> bool:  # mu commutes with L_0
        return self.moves_mu is None


def _is_line_through(rows: list, v: dict, field) -> bool:
    """Whether the coordinate dicts ``rows``, a basis, span the line
    through the nonzero ``v``: the one top-line test of ``structure_of``
    and ``check_truncation``."""
    return len(rows) == 1 and tables_proportional({0: v}, {0: rows[0]}, field)[0]


def structure_of(model: GradedModel) -> Structure:
    """The facts the bijection asks of every L = (+)_{j=-1}^{n-1} L_j,
    read off either model of it (``closure_model``, and the carrier
    window of ``realizations.pair_model``): the top piece is the line
    through mu, mu centralizes L_0, L is transitive (``is_transitive``),
    and L_-1 is irreducible under L_0 (``check_irreducible``, only when
    the depth elements are all of L_-1).  Each caller reads its verdicts
    off these facts under its own policy."""
    top = model.pieces.get(model.top, [])
    line = _is_line_through(list(map(model.coords, top)), model.coords(model.mu), model.field)
    moves = next(((u, h) for u in model.pieces.get(0, ())
                  if model.coords(h := model.bracket(model.mu, u))), None)
    kernel = is_transitive(model)[1]
    irr = check_irreducible(model) if model.depth_is_all else None
    return Structure(len(top), line, moves, kernel, irr)


def induced_table(bracket, mu, depth, tuples, coords_of, parities) -> dict:
    """The n-bracket an L of depth one induces from its top element:
    [..[mu, d_k1], .., d_kn] for each n-tuple (k1..kn) of ``tuples``, read
    off by ``coords_of`` and signed by the ``conversion_sign`` of the
    keys' symmetric-side ``parities``.  ``depth[k]`` is the element of
    L_-1 for key k and ``bracket`` the Lie bracket of L, so W(V) and the
    polynomial carriers share this one routine.  ``chain`` keeps the
    partial brackets of the tuple before, so each tuple brackets only
    past the prefix it shares with that one, and stops at a zero
    partial bracket: every tuple through it is zero and gets no entry."""
    table, prev, chain = {}, (), [mu]
    for key in tuples:
        j = next((j for j, (a, b) in enumerate(zip(prev, key)) if a != b), len(prev))
        del chain[j + 1:]
        while len(chain) <= len(key) and not chain[-1].is_zero():
            chain.append(bracket(chain[-1], depth[key[len(chain) - 1]]))
        prev, h = key, chain[-1]
        coords = coords_of(h if conversion_sign([parities[k] for k in key]) == 1 else -h)
        if coords:
            table[key] = coords
    return table


def induced_bracket_table(space: SuperSpace, mu: WElement) -> dict:
    """Recover an n-bracket on the reversed space from mu: the
    ``induced_table`` of W(V) on the basis of V.

    Returns a table over canonically sorted index tuples of the reversed
    space with coordinate dict values, the table ``FiniteNAryAlgebra``
    takes: on mu from ``bracket_to_symmetric`` it is the source table.
    """
    tuples = canonical_tuples(range(space.dim), mu.degree + 1, space.reversed().parities)
    return induced_table(w_bracket, mu, full_component(space, -1), tuples,
                         lambda h: {i: c for (_, i), c in h.coords.items()}, space.parities)


def tables_proportional(t1: dict, t2: dict, field):
    """Compare two bracket tables of coordinate dicts up to one global
    scalar.  Returns (True, c) with t1 = c * t2, or (False, witness_key).
    """
    keys = sorted(set(t1) | set(t2))
    scalar = None
    for key in keys:
        c1, c2 = t1.get(key) or {}, t2.get(key) or {}
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
