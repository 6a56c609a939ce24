"""Generating graded subalgebras from a seed map and auditing the result."""

import dataclasses
import functools
import random
from itertools import combinations, product

import pytest

from nlielab import liegen
from nlielab.catalog import algebra_O
from nlielab.fields import GF, QQ
from nlielab.liegen import (
    AdmissiblePairReport,
    GenerationTrace,
    MuRelationsReport,
    Structure,
    check_admissible,
    check_irreducible,
    check_mu_relations,
    check_truncation,
    closure_model,
    generate_subalgebra,
    induced_bracket_table,
    induced_table,
    tables_proportional,
)
from nlielab.linalg import Span
from nlielab.multilinear import MultiMap, bracket_to_symmetric, canonical_tuples, conversion_sign
from nlielab.nlie import FiniteNAryAlgebra, check_filippov, serialize_table
from nlielab.realizations import pair_setup
from nlielab.superspace import SuperSpace
from nlielab.universal import GradedSubalgebra, WElement, box, full_component, w_bracket


def seed_of(alg):
    mm = bracket_to_symmetric(alg.space, alg.arity, alg.bracket_parity, alg.bracket_keys)
    return WElement.from_map(mm)


def sl2():
    V = SuperSpace(QQ, ("e", "h", "f"), (0, 0, 0))
    table = {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}}
    return FiniteNAryAlgebra(V, 2, 0, table)


def test_quaternary_seed_generates_the_expected_dims():
    alg = algebra_O(3)
    mu = seed_of(alg)
    rev = mu.space
    rep = check_admissible(rev, mu, cap=4)
    assert rep.arity == 3
    assert rep.graded_dims == {-1: 4, 0: 6, 1: 4, 2: 1}
    # the top is the line through mu, mu centralizes L_0, no kernel, irreducible
    assert rep.structure == Structure(1, True, None, None, (True, None))
    assert rep.structure.transitive and rep.structure.centralizes
    assert rep.admissible is True
    assert rep.generation.reached_fixpoint
    assert rep.generation.nrounds <= alg.arity + 2


def test_generation_stops_below_the_cap():
    alg = algebra_O(3)
    mu = seed_of(alg)
    sub, trace = generate_subalgebra(mu.space, mu, cap=4)
    assert trace.reached_fixpoint
    assert sub.dims() == {-1: 4, 0: 6, 1: 4, 2: 1}
    assert sub.dim(3) == 0 and sub.dim(4) == 0


def test_binary_seed_from_a_classical_algebra():
    alg = sl2()
    mu = seed_of(alg)
    rep = check_admissible(mu.space, mu, cap=3)
    assert rep.graded_dims == {-1: 3, 0: 3, 1: 1}
    assert rep.admissible is True
    # degree zero is the image of the inner action, here all of the
    # classical algebra itself
    assert rep.structure.irreducibility == (True, None)


def naive_closure(space, mu, cap):
    """Generation by full rounds: each round brackets every pair of a
    basis of the span reached so far.  Returns (subalgebra, rounds,
    reached_fixpoint)."""
    sub = GradedSubalgebra(space, cap)
    for v in full_component(space, -1):
        sub.insert(v)
    sub.insert(mu)
    rounds = [sub.dims()]
    for _ in range(200):
        snapshot = [w for d in sub.degrees() for w in sub.basis(d)]
        grew = False
        for i, u in enumerate(snapshot):
            for v in snapshot[i:]:
                if -1 <= u.degree + v.degree <= cap and sub.insert(w_bracket(u, v)):
                    grew = True
        rounds.append(sub.dims())
        if not grew:
            return sub, rounds, True
    return sub, rounds, False


def divergence_free_seed():
    """An odd quadratic field on V = (a, b | x) with every contraction
    zero: mu(a,a) = x, mu(a,x) = b, mu(b,x) = a."""
    V = SuperSpace(QQ, ("a", "b", "x"), (0, 0, 1))
    return WElement.from_map(MultiMap(V, 2, 1, {(0, 0): {2: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}}))


# the reversed spaces of O(n) are all odd, the one of sl2 is all even;
# the divergence-free seed has even and odd elements in one degree
@pytest.mark.parametrize("mu, cap", [
    (seed_of(algebra_O(3)), 4), (seed_of(algebra_O(4)), 5), (seed_of(sl2()), 3),
    (divergence_free_seed(), 3)], ids=["O3", "O4", "sl2", "mixed"])
def test_generation_rounds_match_full_rounds(mu, cap):
    sub, trace = generate_subalgebra(mu.space, mu, cap)
    ref, rounds, fixpoint = naive_closure(mu.space, mu, cap)
    assert trace.rounds == rounds
    assert trace.reached_fixpoint is fixpoint is True
    assert sub.degrees() == ref.degrees()
    for d in ref.degrees():
        assert sub.spans[d].pivots == ref.spans[d].pivots
        assert list(sub.spans[d]) == list(ref.spans[d])


def test_mixed_parity_generation_stays_divergence_free():
    # the divergence-free fields form the subalgebra S(2|1), whose
    # components have dims 3, 8, 12, 16, 20 (W(2|1) minus the divergence
    # image S^(k+1)V); V and the seed generate all of it up to the cap
    mu = divergence_free_seed()
    sub, trace = generate_subalgebra(mu.space, mu, cap=3)
    assert trace.reached_fixpoint
    assert sub.dims() == {-1: 3, 0: 8, 1: 12, 2: 16, 3: 20}
    # degree 0 holds rows of both parities, each labelled with its own:
    # a coordinate (key, i) has parity p(i) + sum of p(key)
    basis = sub.basis(0)
    assert {w.parity() for w in basis} == {0, 1}
    par = mu.space.parities
    for w in basis:
        assert {(par[i] + sum(par[k] for k in key)) % 2 for key, i in w.coords} == {w.parity()}


def test_bounded_generation_is_not_decided():
    def report(trace):
        return AdmissiblePairReport(
            arity=3, graded_dims={-1: 4, 0: 6, 1: 4, 2: 1},
            structure=Structure(1, True, None, None, (True, None)),
            irreducibility_detail="action envelope fills End(V)", generation=trace)

    assert report(GenerationTrace(reached_fixpoint=True)).admissible is True
    assert report(GenerationTrace(reached_fixpoint=False)).admissible is None


def test_generate_subalgebra_validates_input():
    alg = algebra_O(3)
    mu = seed_of(alg)
    with pytest.raises(ValueError):
        generate_subalgebra(mu.space, mu, cap=1)
    with pytest.raises(ValueError):
        generate_subalgebra(alg.space, mu, cap=4)  # wrong space


def test_truncation_structure_of_the_generated_algebra():
    alg = algebra_O(3)
    mu = seed_of(alg)
    rep = check_truncation(mu.space, mu)
    assert rep.ok and rep.failures == []
    assert rep.vanishing_above and rep.top_is_line
    assert rep.components_from_top
    assert rep.opposite_pairs_commute
    assert rep.positive_part_ideal


def chain(space, mu, tup):
    """[v_{i_1},[...,[v_{i_k}, mu]...]] for tup = (i_1, ..., i_k)."""
    c = mu
    for i in reversed(tup):
        c = w_bracket(full_component(space, -1)[i], c)
    return c


def mu_relations_by_tuples(space, mu):
    """Oracle: the seed relations on every ordered basis tuple of length
    0..n-1, each chain rebuilt from mu (the walk ``check_mu_relations``
    replaced by its basis sweep)."""
    n = mu.degree + 1
    checked = 0
    witness = None
    self_ok = w_bracket(mu, mu).is_zero()
    ok = True
    for k in range(0, n):
        for tup in product(range(space.dim), repeat=k):
            c = chain(space, mu, tup)
            checked += 1
            if c.is_zero():
                continue
            if not w_bracket(c, mu).is_zero():
                ok = False
                witness = ("bracket", tup)
                break
            if k <= n - 2 and not box(mu, c).is_zero():
                ok = False
                witness = ("composition", tup)
                break
        if not ok:
            break
    return MuRelationsReport(ok and self_ok, checked, self_ok, witness)


def truncation_by_pairs(space, mu, sub):
    """Oracle: the truncation flags and failures of ``sub`` with the
    all-pairs opposite and ideal loops that ``check_truncation``
    replaced by its reading of the closure."""
    n = mu.degree + 1
    failures = []
    vanishing = all(d <= n - 1 for d in sub.degrees())
    if not vanishing:
        failures.append("nonzero component in degree above %d" % (n - 1))
    top = sub.spans.get(n - 1)
    top_is_line = top is not None and top.dim == 1 and sub.contains(mu)
    if not top_is_line:
        failures.append("top component is not the line through mu")

    sweep_ok = True
    for k in range(1, n):
        deg = n - 1 - k
        chains = [chain(space, mu, tup) for tup in product(range(space.dim), repeat=k)]
        span = Span(space.field)
        for h in chains:
            span.insert(h.coords)
        if span.dim != sub.dim(deg):
            sweep_ok = False
            failures.append("degree %d: swept span has dim %d, component has dim %d"
                            % (deg, span.dim, sub.dim(deg)))
            continue
        if not all(sub.contains(h) for h in chains):
            sweep_ok = False
            failures.append("degree %d: swept element escapes the component" % deg)

    pairs_ok = True
    for j in range(0, n):
        k = n - 1 - j
        for u in sub.basis(j):
            for v in sub.basis(k):
                if not w_bracket(u, v).is_zero():
                    pairs_ok = False
                    failures.append("[degree %d, degree %d] bracket is nonzero" % (j, k))
                    break
            if not pairs_ok:
                break
        if not pairs_ok:
            break

    ideal_ok = True
    all_basis = [u for d in sub.degrees() for u in sub.basis(d)]
    lower = [u for u in all_basis if u.degree <= n - 2]
    for u in all_basis:
        for v in lower:
            if u.degree + v.degree < -1:
                continue
            h = w_bracket(u, v)
            if h.is_zero():
                continue
            if h.degree <= n - 2:
                if not sub.contains(h):
                    ideal_ok = False
                    failures.append("bracket escapes the generated algebra")
            else:
                ideal_ok = False
                failures.append(
                    "[degree %d, degree %d] lands in the top line" % (u.degree, v.degree))
            if not ideal_ok:
                break
        if not ideal_ok:
            break
    flags = (vanishing, top_is_line, sweep_ok, pairs_ok, ideal_ok)
    return all(flags), flags, failures


def noisy_seeds():
    """O(3)'s seed plus each other map of its degree and parity."""
    mu = seed_of(algebra_O(3))
    return [mu + w for w in full_component(mu.space, 2)
            if w.parity() == mu.parity() and not (w == mu or w == -mu)]


def even_square():
    """An even quadratic field mu(a, a) = a on one even line: [mu, mu]
    vanishes by parity while mu composed on itself does not."""
    V = SuperSpace(QQ, ("a",), (0,))
    return WElement.from_map(MultiMap(V, 2, 0, {(0, 0): {0: 1}}))


ORACLE_SEEDS = [(seed_of(algebra_O(3)), 4), (seed_of(algebra_O(4)), 5),
                (seed_of(algebra_O(5)), 6), (seed_of(sl2()), 3),
                (divergence_free_seed(), 3), (even_square(), 3)] + [
                    (w, 4) for w in noisy_seeds()]
ORACLE_IDS = ["O3", "O4", "O5", "sl2", "mixed", "even"] + [
    "O3+noise%d" % i for i in range(len(ORACLE_SEEDS) - 6)]


@functools.lru_cache(maxsize=None)
def oracle(i):
    """The old loops on seed i: (mu, cap, relations report, generated
    pair, truncation (ok, flags, failures))."""
    mu, cap = ORACLE_SEEDS[i]
    sub, trace = generate_subalgebra(mu.space, mu, cap)
    return (mu, cap, mu_relations_by_tuples(mu.space, mu), (sub, trace),
            truncation_by_pairs(mu.space, mu, sub))


@pytest.mark.parametrize("i", range(len(ORACLE_SEEDS)), ids=ORACLE_IDS)
def test_seed_relations_agree_with_the_tuple_walk(i):
    mu, _, ref, _, _ = oracle(i)
    space = mu.space
    rep = check_mu_relations(space, mu)
    assert (rep.ok, rep.self_bracket_zero) == (ref.ok, ref.self_bracket_zero)
    assert rep.checked <= ref.checked
    if rep.ok:
        assert rep.witness is None
        return
    kind, tup = rep.witness
    c = chain(space, mu, tup)
    residue = w_bracket(c, mu) if kind == "bracket" else box(mu, c)
    assert not residue.is_zero()


@pytest.mark.parametrize("i", range(len(ORACLE_SEEDS)), ids=ORACLE_IDS)
def test_truncation_agrees_with_the_all_pairs_loops(i):
    mu, cap, _, generated, (ok, flags, failures) = oracle(i)
    assert generated[1].reached_fixpoint
    rep = check_truncation(mu.space, mu, cap, generated=generated)
    assert rep.ok is ok
    assert (rep.vanishing_above, rep.top_is_line, rep.components_from_top,
            rep.opposite_pairs_commute, rep.positive_part_ideal) == flags
    assert rep.failures == failures
    assert rep.generation is generated[1]
    # generating inside the check reads the same algebra
    assert check_truncation(mu.space, mu, cap).failures == failures


@functools.lru_cache(maxsize=None)
def top_oracle(i):
    """Seed i closed at the default cap, the top degree: (generated
    pair, truncation (ok, flags, failures) of the old loops)."""
    mu, _ = ORACLE_SEEDS[i]
    sub, trace = generate_subalgebra(mu.space, mu)
    return (sub, trace), truncation_by_pairs(mu.space, mu, sub)


@pytest.mark.parametrize("i", range(len(ORACLE_SEEDS)), ids=ORACLE_IDS)
def test_truncation_at_the_top_cap_agrees_with_the_all_pairs_loops(i):
    mu = ORACLE_SEEDS[i][0]
    generated, (ok, flags, failures) = top_oracle(i)
    rep = check_truncation(mu.space, mu, generated=generated)
    if not generated[1].closed:
        # the old loops cannot see above the cap; the escape fails it
        assert generated[1].escape and rep.ok is False and not rep.vanishing_above
        return
    assert rep.ok is ok
    assert (rep.vanishing_above, rep.top_is_line, rep.components_from_top,
            rep.opposite_pairs_commute, rep.positive_part_ideal) == flags
    assert rep.failures == failures


def test_an_escape_is_a_nonzero_bracket_above_the_top():
    # exactly the seeds whose oracle closure has a component above the top
    # escape at the top cap, and the escape names a nonzero bracket
    escaped = 0
    for i, (mu, _) in enumerate(ORACLE_SEEDS):
        sub, trace = top_oracle(i)[0]
        above = max(oracle(i)[3][0].degrees()) > mu.degree
        assert trace.reached_fixpoint and (trace.escape is not None) == above
        if not above:
            assert trace.closed
            continue
        escaped += 1
        a, b = trace.escape
        assert a + b > mu.degree and not trace.closed
        assert any(not w_bracket(u, v).is_zero() for u in sub.basis(a) for v in sub.basis(b))
        assert check_admissible(mu.space, mu, generated=(sub, trace)).admissible is None
    assert escaped >= 2


@pytest.mark.parametrize("mu", [
    seed_of(algebra_O(3)), seed_of(algebra_O(4)), seed_of(algebra_O(5)),
    seed_of(algebra_O(6)), seed_of(sl2()), even_square()],
    ids=["O3", "O4", "O5", "O6", "sl2", "even"])
def test_the_top_capped_closure_is_exact(mu):
    sub, trace = generate_subalgebra(mu.space, mu)
    assert trace.cap == mu.degree and trace.closed
    # a closed closure is the generated algebra: a higher cap adds nothing
    high, high_trace = generate_subalgebra(mu.space, mu, mu.degree + 2)
    assert high_trace.closed
    assert (high_trace.rounds, high_trace.nonzero) == (trace.rounds, trace.nonzero)
    assert high.degrees() == sub.degrees()
    for d in sub.degrees():
        assert high.spans[d].pivots == sub.spans[d].pivots
        assert list(high.spans[d]) == list(sub.spans[d])


def diagonal_form_seed(n, seed):
    """O(n)'s seed under a seeded diagonal form with entries +-{1,2,3,5,7}."""
    rng = random.Random(seed)
    diag = [rng.choice((1, 2, 3, 5, 7)) * rng.choice((1, -1)) for _ in range(n + 1)]
    form = [[QQ.scalar(diag[i] if i == j else 0) for j in range(n + 1)] for i in range(n + 1)]
    return seed_of(algebra_O(n, QQ, form=form))


CLOSURE_SEEDS = [seed_of(algebra_O(n)) for n in (6, 7)] + [
    seed_of(algebra_O(n, GF(7))) for n in (3, 4, 5)] + [
    diagonal_form_seed(n, seed) for n, seed in ((3, 1), (4, 2), (5, 3))] + [
    mu for mu, _ in ORACLE_SEEDS]
CLOSURE_IDS = ["O6", "O7", "O3/fp7", "O4/fp7", "O5/fp7", "O3/form", "O4/form", "O5/form"] + ORACLE_IDS


@functools.lru_cache(maxsize=None)
def closures(i, lift):
    """Seed i of ``CLOSURE_SEEDS`` closed at its top degree + ``lift``:
    ``generate_subalgebra``'s pair and the loop's pairwise pass."""
    mu = CLOSURE_SEEDS[i]
    cap = mu.degree + lift
    return generate_subalgebra(mu.space, mu, cap), liegen._closure(mu.space, mu, cap, True)


@pytest.mark.parametrize("lift", [0, 2], ids=["top", "top+2"])
@pytest.mark.parametrize("i", range(len(CLOSURE_SEEDS)), ids=CLOSURE_IDS)
def test_generator_closure_agrees_with_the_pairwise_partners(i, lift):
    (sub, trace), (ref, ref_trace) = closures(i, lift)
    assert (trace.closed, trace.escape) == (ref_trace.closed, ref_trace.escape)
    assert trace.reached_fixpoint and trace.cap == ref_trace.cap
    assert sub.degrees() == ref.degrees()
    for d in ref.degrees():
        assert sub.spans[d].pivots == ref.spans[d].pivots
        assert list(sub.spans[d]) == list(ref.spans[d])
    assert trace.rounds[-1] == ref_trace.rounds[-1]
    if trace.closed:
        # the generator pairs are among every pair
        assert trace.nonzero <= ref_trace.nonzero
    else:
        assert trace == ref_trace


def test_generator_rounds_agree_but_on_deeper_noisy_closures():
    # a round of generator partners climbs one bracket, a pairwise round
    # doubles a bracket's length; on O(n), its forms and fields and the
    # other seeds the rounds agree, but twelve noisy O(3) seeds closed at
    # top + 2 take 9 generator rounds against 5 pairwise ones
    longer = {}
    for i, label in enumerate(CLOSURE_IDS):
        for lift in (0, 2):
            (_, trace), (_, ref_trace) = closures(i, lift)
            if trace.rounds != ref_trace.rounds:
                longer[label, lift] = (trace.nrounds - 1, ref_trace.nrounds - 1)
    assert set(longer.values()) == {(9, 5)}
    assert sorted(longer) == sorted(("O3+noise%d" % k, 2) for k in (0, 1, 2, 4, 5, 7, 8, 10, 11,
                                                                   13, 14, 15))


def test_generator_closure_brackets_each_element_with_the_generators(monkeypatch):
    # O(5) at cap 6: its 63 elements against V and mu, less the 36 pairs
    # inside V, against 1,995 unordered pairs of kept elements
    mu = seed_of(algebra_O(5))
    calls = []
    monkeypatch.setattr(liegen, "w_bracket", counted(w_bracket, calls))
    sub, trace = generate_subalgebra(mu.space, mu, 6)
    assert trace.closed and sum(sub.dims().values()) == 63
    assert len(calls) == 63 * 7 - 36 == 405
    calls.clear()
    liegen._closure(mu.space, mu, 6, True)
    assert len(calls) == 1995


def test_an_escaping_generator_closure_reruns_every_pair():
    # S(2|1) leaves cap 3; the generator pass escapes after 11 rounds, and
    # the pairs rerun reports its own least escape pair and 5 rounds
    mu = divergence_free_seed()
    generator = liegen._closure(mu.space, mu, 3, False)[1]
    pairwise = liegen._closure(mu.space, mu, 3, True)[1]
    assert generator.escape and generator.nrounds - 1 == 11
    sub, trace = generate_subalgebra(mu.space, mu, 3)
    assert trace == pairwise != generator
    assert trace.escape == (1, 3) and trace.nrounds - 1 == 5
    assert sub.dims() == {-1: 3, 0: 8, 1: 12, 2: 16, 3: 20}


@pytest.mark.parametrize("pair, flags, failures", [
    ((2, 2), (False, True, True), ["nonzero component in degree above 2"]),
    ((0, 2), (True, False, False), ["[degree 0, degree 2] bracket is nonzero",
                                    "[degree 2, degree 0] lands in the top line"]),
    ((1, 1), (True, False, False), ["[degree 1, degree 1] bracket is nonzero",
                                    "[degree 1, degree 1] lands in the top line"]),
    ((1, 2), (False, True, False), ["nonzero component in degree above 2",
                                    "[degree 2, degree 1] lands in the top line"]),
], ids=["top_top", "opposite", "middle", "escape"])
def test_truncation_reads_its_verdicts_off_the_recorded_pairs(pair, flags, failures):
    # O(3)'s closure with one more nonzero degree pair on record: only
    # a factor at or below n-2 = 1 makes an ideal failure
    mu = seed_of(algebra_O(3))
    sub, trace = generate_subalgebra(mu.space, mu)
    trace = dataclasses.replace(trace, nonzero=trace.nonzero | {pair})
    rep = check_truncation(mu.space, mu, generated=(sub, trace))
    assert (rep.vanishing_above, rep.opposite_pairs_commute,
            rep.positive_part_ideal) == flags
    assert rep.failures == failures and rep.ok is False


def test_truncation_brackets_only_in_the_sweep(monkeypatch):
    # the vanishing verdict is read off the closure and the opposite and
    # ideal verdicts follow from the premises: the only brackets are the
    # sweep's, V against levels 0..n-2 (level k of O(n) is L_{n-1-k}),
    # and mu against L_0, 80 + 10 at O(4)
    mu = seed_of(algebra_O(4))
    n = mu.degree + 1
    generated = generate_subalgebra(mu.space, mu)
    calls = []

    def counting(u, v):
        calls.append((u.degree, v.degree))
        return w_bracket(u, v)

    monkeypatch.setattr(liegen, "w_bracket", counting)
    assert check_truncation(mu.space, mu, generated=generated).ok is True
    sweep = mu.space.dim * sum(generated[0].dim(d) for d in range(1, n))
    assert (sweep, len(calls)) == (80, 90)
    assert calls[sweep:] == [(mu.degree, 0)] * generated[0].dim(0)


def test_the_oracle_seeds_exercise_every_failure():
    # the agreement tests above prove something only if the seeds break
    # each relation and each closure-read flag somewhere
    kinds = set()
    for i in range(len(ORACLE_SEEDS)):
        _, _, ref, _, (_, flags, _) = oracle(i)
        if ref.witness:
            kinds.add(ref.witness[0])
        kinds.update(name for name, flag in zip(
            ("vanishing", "top", "sweep", "opposite", "ideal"), flags) if not flag)
    assert {"bracket", "composition", "opposite", "ideal"} <= kinds


def test_sweep_counts_basis_descendants():
    # level k of O(n)'s sweep is L_{n-1-k}, of dim C(n+1, n+1-k)
    for n, checked in ((3, 11), (4, 26), (5, 57)):
        mu = seed_of(algebra_O(n))
        assert check_mu_relations(mu.space, mu).checked == checked


def test_without_a_fixpoint_truncation_is_not_decided():
    mu = seed_of(algebra_O(3))
    sub, trace = generate_subalgebra(mu.space, mu, cap=4)
    assert check_truncation(mu.space, mu, generated=(sub, trace)).ok is True
    open_trace = GenerationTrace(rounds=trace.rounds, reached_fixpoint=False)
    rep = check_truncation(mu.space, mu, generated=(sub, open_trace))
    assert rep.ok is None and rep.failures == []
    assert rep.generation is open_trace
    adm = check_admissible(mu.space, mu, generated=(sub, open_trace))
    assert adm.admissible is None and adm.graded_dims == sub.dims()


def test_seed_relations_hold_and_detect_corruption():
    alg = algebra_O(3)
    mu = seed_of(alg)
    rep = check_mu_relations(mu.space, mu)
    assert rep.ok and rep.self_bracket_zero and rep.checked > 0

    # push the seed off the admissible locus
    noise = None
    for w in full_component(mu.space, 2):
        if w.parity() == mu.parity() and not (w == mu or w == -mu):
            noise = w
            break
    bad = mu + noise
    bad_rep = check_mu_relations(mu.space, bad)
    trunc = check_truncation(mu.space, bad)
    assert not (bad_rep.ok and trunc.ok)
    if not bad_rep.ok:
        assert bad_rep.witness is not None
    if not trunc.ok:
        assert trunc.failures


def irreducibility(sub):
    """``check_irreducible``'s raw pair and ``check_admissible``'s detail on
    a hand-built subalgebra; neither reads the seed, so a zero of degree 1
    stands in."""
    mu = WElement.zero(sub.space, 1)
    generated = (sub, GenerationTrace(reached_fixpoint=True))
    detail = check_admissible(sub.space, mu, generated=generated).irreducibility_detail
    return check_irreducible(closure_model(sub, mu)), detail


def test_irreducibility_detects_an_invariant_line():
    V = SuperSpace(QQ, ("a", "b"), (0, 0))
    sub = GradedSubalgebra(V, cap=1)
    proj = MultiMap(V, 1, 0, {(0,): {0: 1}})
    sub.insert(WElement.from_map(proj))
    status, detail = irreducibility(sub)
    assert status == (False, (0, 1))
    assert detail == "basis vector 0 spans a 1-dim invariant subspace"


def test_irreducibility_by_envelope():
    V = SuperSpace(QQ, ("a", "b"), (0, 0))
    sub = GradedSubalgebra(V, cap=1)
    up = MultiMap(V, 1, 0, {(0,): {1: 1}})
    down = MultiMap(V, 1, 0, {(1,): {0: 1}})
    sub.insert(WElement.from_map(up))
    sub.insert(WElement.from_map(down))
    status, detail = irreducibility(sub)
    assert status == (True, None)
    assert detail == "action envelope fills End(V)"


def test_a_rotation_alone_is_not_decided():
    # no basis vector spans a proper invariant subspace over QQ, but the
    # envelope of one quarter turn J is span(1, J), 2 < 4
    V = SuperSpace(QQ, ("a", "b"), (0, 0))
    sub = GradedSubalgebra(V, cap=1)
    sub.insert(WElement.from_map(MultiMap(V, 1, 0, {(0,): {1: 1}, (1,): {0: -1}})))
    status, detail = irreducibility(sub)
    assert status == (None, 2)
    assert detail == "no invariant subspace through basis vectors; envelope dim 2 < 4"


def test_empty_degree_zero_is_irreducible_only_on_a_line():
    V1 = SuperSpace(QQ, ("a",), (0,))
    status, detail = irreducibility(GradedSubalgebra(V1, cap=0))
    assert status[0] is True and detail == "degree-zero part acts by zero"
    V2 = SuperSpace(QQ, ("a", "b"), (0, 0))
    status, detail = irreducibility(GradedSubalgebra(V2, cap=0))
    assert status[0] is False and detail == "degree-zero part acts by zero"


def mixed_ternary():
    """A ternary table on (a | x, y), repeated odd arguments included."""
    V = SuperSpace(QQ, ("a", "x", "y"), (0, 1, 1))
    table = {(0, 1, 2): {0: 1}, (0, 1, 1): {0: 2}, (1, 1, 2): {1: 1, 2: 1},
             (1, 2, 2): {1: -3}, (2, 2, 2): {2: 1}}
    return FiniteNAryAlgebra(V, 3, 0, table)


def test_induced_table_reproduces_the_source_bracket():
    for alg in (algebra_O(3), algebra_O(4), algebra_O(5), mixed_ternary()):
        mu = seed_of(alg)
        table = induced_bracket_table(mu.space, mu)
        ok, scalar = tables_proportional(table, alg.table, QQ)
        assert ok and scalar == QQ.one()


def induced_table_ref(bracket, mu, depth, tuples, coords_of, parities):
    """The induced table tuple by tuple, each chain bracketed from mu
    again: the reference for ``induced_table``'s walk by shared prefixes."""
    table = {}
    for key in tuples:
        h = mu
        for k in key:
            h = bracket(h, depth[k])
        coords = coords_of(h if conversion_sign([parities[k] for k in key]) == 1 else -h)
        if coords:
            table[key] = coords
    return table


def induced_cases():
    """(label, induced_table arguments): the carriers of ``pairs i..iv
    --n 3/4`` as ``verify_pair`` passes them, and W(V) on the seeds of
    O(3..5) and of the mixed ternary table as ``induced_bracket_table``
    passes them (repeated odd keys included)."""
    for which, n in product(("i", "ii", "iii", "iv"), (3, 4)):
        setup = pair_setup(which, n, 2)
        real = setup.real
        depth = {k: setup.elem_of(k) for k in setup.keys}
        yield "pairs %s --n %d" % (which, n), (
            real.bracket, setup.mu, depth, list(combinations(setup.keys, n)), real.vectorize,
            {k: real.lie_parity(v) for k, v in depth.items()})
    for label, alg in [("O(3)", algebra_O(3)), ("O(4)", algebra_O(4)), ("O(5)", algebra_O(5)),
                       ("mixed", mixed_ternary())]:
        mu = seed_of(alg)
        space = mu.space
        tuples = canonical_tuples(range(space.dim), mu.degree + 1, space.reversed().parities)
        yield label, (w_bracket, mu, full_component(space, -1), list(tuples),
                      lambda h: {i: c for (_, i), c in h.coords.items()}, space.parities)


def counted(bracket, calls):
    def wrapped(f, g):
        calls.append(1)
        return bracket(f, g)
    return wrapped


def test_induced_table_walk_matches_the_tuple_by_tuple_reference():
    rng = random.Random(33)
    brackets = {}
    for label, (bracket, mu, depth, tuples, coords_of, parities) in induced_cases():
        want = induced_table_ref(bracket, mu, depth, tuples, coords_of, parities)
        assert want, label
        walked = []
        got = induced_table(counted(bracket, walked), mu, depth, tuples, coords_of, parities)
        assert list(got.items()) == list(want.items()), label
        if bracket is w_bracket:
            assert list(induced_bracket_table(mu.space, mu).items()) == list(want.items())
        # in sorted order a prefix is bracketed once, when it first appears
        prefixes = {key[:j] for key in tuples for j in range(1, len(key) + 1)}
        assert len(walked) == len(prefixes) < len(tuples) * len(tuples[0]), label
        brackets[label] = len(walked)
        # the walk reads the tuple before, whatever the order
        shuffled = rng.sample(tuples, len(tuples))
        got = induced_table(bracket, mu, depth, shuffled, coords_of, parities)
        assert list(got.items()) == [(key, want[key]) for key in shuffled if key in want], label
    # against C(4, 3) * 3 = 12, C(14, 4) * 4 = 4,004 on the depth window of
    # SHO'(4,4), and C(6, 5) * 5 = 30 chain brackets from mu
    assert {k: brackets[k] for k in ("pairs i --n 3", "pairs ii --n 4", "O(5)")} == {
        "pairs i --n 3": 9, "pairs ii --n 4": 1364, "O(5)": 20}


def test_bracket_table_round_trip_through_the_symmetric_twin():
    # A -> mu -> A: the induced table builds the algebra it came from,
    # byte for byte, with the same identity verdict; O(n) passes, the
    # mixed table is no n-Lie algebra and fails at the same witness
    cases = [(algebra_O(n, field), True) for n in (3, 4, 5) for field in (QQ, GF(7))]
    for alg, lie in cases + [(mixed_ternary(), False)]:
        mu = seed_of(alg)
        back = FiniteNAryAlgebra(mu.space.reversed(), alg.arity, alg.bracket_parity,
                                 induced_bracket_table(mu.space, mu))
        assert back.space == alg.space
        assert serialize_table(back) == serialize_table(alg)
        rep = check_filippov(back)
        assert rep == check_filippov(alg) and rep.ok is lie


def test_tables_proportional_reports_scalar_and_witness():
    alg = algebra_O(3)
    t1 = dict(alg.table)
    t2 = {k: {i: QQ.scalar(-7, 2) * c for i, c in v.items()} for k, v in alg.table.items()}
    ok, scalar = tables_proportional(t2, t1, QQ)
    assert ok and scalar == QQ.scalar(-7, 2)
    t3 = dict(t2)
    key = next(iter(t3))
    t3[key] = {i: 2 * c for i, c in t3[key].items()}
    ok, witness = tables_proportional(t3, t1, QQ)
    assert not ok and witness is not None
