"""n-ary bracket tables, the n-ary Jacobi checker and derivation defects."""

from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from nlielab import nlie
from nlielab.catalog import GeneralizedJacobianNAry, algebra_O, algebra_S, algebra_SW, algebra_W
from nlielab.charp import CharPSeed
from nlielab.derivations import derivation_space, matrix_dmap
from nlielab.fields import GF, QQ
from nlielab.liegen import check_mu_relations
from nlielab.linalg import Span, matrix_of, vec_add_scaled
from nlielab.nlie import (
    FiniteNAryAlgebra,
    ad_table,
    check_filippov,
    derivation_defect,
    filippov_defect,
    identity_mode,
    independent_tuples,
    inner_parity,
    parse_table,
    serialize_table,
)
from nlielab.multilinear import bracket_to_symmetric, canonical_tuples, koszul_sort
from nlielab.polysuper import DiffOp, SuperPolyRing
from nlielab.superspace import ODD, SuperSpace
from nlielab.universal import WElement


def heisenberg_11(field=QQ):
    # one even, one odd generator; the odd square is central
    V = SuperSpace(field, ("e1", "e2"), (0, 1))
    return FiniteNAryAlgebra(V, 2, 0, {(1, 1): {0: field.one()}})


def canonical_keys(alg, keys, r):
    """The canonical r-tuples of a carrier's ordered keys."""
    keys = list(keys)
    return canonical_tuples(keys, r, [alg.key_parity(k) for k in keys])


def inner_map(alg, a_keys):
    """(parity, dmap) of ad_a: x -> [a_1..a_{n-1}, x] through the carrier's
    own brackets, of parity alpha + p(a)."""
    par = (alg.bracket_parity + sum(alg.key_parity(k) for k in a_keys)) % 2
    return par, lambda k: alg.bracket_keys(tuple(a_keys) + (k,))


def derivation_failures(alg, dmap, dparity):
    """The canonical tuples on which ``dmap`` breaks the derivation law."""
    ads = ad_table(alg)
    return [tup for tup in canonical_keys(alg, alg.keys(), alg.arity)
            if derivation_defect(alg, dmap, dparity, tup, ads)]


def test_full_mode_counts_every_ordered_instance():
    alg = algebra_O(3)
    rep = check_filippov(alg, mode="full")
    assert rep.ok and rep.witness is None
    assert rep.instances == 4 ** 2 * 4 ** 3


def test_sorted_mode_agrees_with_full_mode():
    alg = algebra_O(3)
    full = check_filippov(alg, mode="full")
    sorted_rep = check_filippov(alg, mode="sorted")
    assert full.ok == sorted_rep.ok is True
    assert sorted_rep.instances < full.instances


def test_auto_mode_picks_full_for_small_carriers():
    alg = algebra_O(3)
    assert check_filippov(alg).instances == check_filippov(alg, mode="full").instances
    with pytest.raises(ValueError):
        check_filippov(alg, mode="almost")


def test_corrupted_table_fails_with_witness():
    alg = algebra_O(3)
    table = dict(alg.table)
    table[(0, 1, 2)] = {**table[(0, 1, 2)], 0: 1}  # e1 added to the value e4
    bad = FiniteNAryAlgebra(alg.space, 3, 0, table)
    rep = check_filippov(bad, mode="sorted")
    assert not rep.ok
    a_keys, b_keys, _ = rep.witness
    assert len(a_keys) == 2 and len(b_keys) == 3
    assert filippov_defect(bad, a_keys, b_keys) != {}


def test_super_table_passes_binary_jacobi():
    alg = heisenberg_11()
    rep = check_filippov(alg, mode="full")
    assert rep.ok
    # the odd repeat (x, x) is an honest instance here
    assert alg.bracket_keys((1, 1)) == {0: 1}
    assert alg.bracket_keys((0, 1)) == {}


def test_canonical_tuples_respect_parities():
    alg = heisenberg_11()
    tuples = list(canonical_keys(alg, alg.keys(), 2))
    assert (1, 1) in tuples and (0, 0) not in tuples and (0, 1) in tuples


def test_table_roundtrip_plain_and_super():
    for alg in (algebra_O(3), algebra_O(4, field=GF(7)), heisenberg_11()):
        text = serialize_table(alg)
        back = parse_table(text)
        assert back.arity == alg.arity
        assert back.space.parities == alg.space.parities
        assert back.field == alg.field
        assert back.table == alg.table


def test_parse_table_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_table("")
    with pytest.raises(ValueError):
        parse_table("3 q 4\n")  # missing parity string
    with pytest.raises(ValueError):
        parse_table("2 q 2 ex\n")  # bad parity characters
    with pytest.raises(ValueError):
        parse_table("2 q 2 ee\n1 2 = 1*e1\n")  # missing arrow
    with pytest.raises(ValueError):
        parse_table("2 q 2 ee\n2 1 -> 1*e1\n")  # key not sorted
    with pytest.raises(ValueError):
        parse_table("1 q 2 ee\n1 -> 1*e2\n")  # arity below 2
    with pytest.raises(ValueError):
        parse_table("3 q 4 eeeo\n1 2 3 -> 1*e4 + 1*e1\n")  # value mixes parities


@pytest.mark.parametrize("index", [5, -1])
def test_table_value_index_outside_the_space_is_a_value_error(index):
    # a 2-dim space has no basis vector 5 or -1
    V = SuperSpace(QQ, ("e1", "e2"), (0, 0))
    with pytest.raises(ValueError, match=r"value at key \(0, 1\) names an index outside 0..1"):
        FiniteNAryAlgebra(V, 2, 0, {(0, 1): {index: 1}})


def test_table_value_zero_coefficients_are_dropped():
    V = SuperSpace(QQ, ("e1", "e2"), (0, 0))
    # no '0*e1' term, and an all-zero value keeps no key
    alg = FiniteNAryAlgebra(V, 2, 0, {(0, 1): {0: 0}})
    assert alg.table == {} and serialize_table(alg) == "2 q 2 ee\n"
    value = {0: 0, 1: QQ.scalar(2)}
    alg = FiniteNAryAlgebra(V, 2, 0, {(0, 1): value})
    assert serialize_table(alg) == "2 q 2 ee\n1 2 -> 2*e2\n"
    assert value == {0: 0, 1: 2}  # the caller's dict is not written


# headers valid and not: a composite field, a bad parity string, a short header
_HEADERS = ["3 q 4 eeee", "3 q 4 eeeo", "2 q 2 eo", "3 fp:7 4 eeee", "3 fp:4 4 eeee",
            "3 q 4 eexe", "3 q 3 eeee", "1 q 2 ee", "3 q 4", "3 fp:1_1 4 eeee"]
_NUMBERS = ["0", "1", "2", "3", "4", "5", "-1", "+2", "1/2", "1/0", "2/3/4", "", "x",
            "1_0", "\u0661"]
_garbage = st.lists(st.sampled_from(_NUMBERS + ["/", "*", "+", "->", " ", "e1", "e4", "e",
                                                "e\u0661", "#"]), max_size=12).map("".join)
_terms = st.lists(st.tuples(st.sampled_from(_NUMBERS), st.sampled_from(
    ["e1", "e2", "e3", "e4", "e5", "e0", "e", "e1_0", "e\u0661", "f1"])), max_size=3)
_entries = st.tuples(st.lists(st.sampled_from(_NUMBERS), min_size=1, max_size=4),
                     _terms).map(lambda kt: "%s -> %s" % (
                         " ".join(kt[0]), " + ".join("%s*%s" % t for t in kt[1])))


@settings(max_examples=500)
@given(st.sampled_from(_HEADERS), st.lists(st.one_of(_entries, _garbage), max_size=5))
def test_parse_table_accepts_or_raises_value_error(header, lines):
    # a table text either parses or is a usage error; nothing else escapes
    try:
        alg = parse_table("\n".join([header] + lines))
    except ValueError:
        return
    assert parse_table(serialize_table(alg)).table == alg.table


def test_inner_maps_are_derivations():
    alg = algebra_O(3)
    for a_keys in ((0, 1), (1, 2), (0, 3)):
        par, dmap = inner_map(alg, a_keys)
        assert derivation_failures(alg, dmap, par) == []


def test_non_derivation_is_caught():
    alg = algebra_O(3)

    def squash(k):
        # projection onto a line is not compatible with the bracket
        return {0: 1} if k == 0 else {}

    assert derivation_failures(alg, squash, 0)


def test_identity_mode_counts_ordered_instances():
    assert identity_mode(4, 3) == "full"  # O(3): 4^5 = 1,024
    assert identity_mode(5, 4) == "full"  # O(4): 5^7 = 78,125
    assert identity_mode(6, 5) == "sorted"  # O(5): 6^9 = 10,077,696
    assert identity_mode(6, 4) == "sorted"  # 6^7 = 279,936
    assert identity_mode(7, 2) == "sorted"  # more than 6 keys
    assert identity_mode(0, 3) == "full"
    rep = check_filippov(algebra_O(5))
    assert rep.ok and rep.mode == "sorted" and rep.instances == 90
    assert check_filippov(algebra_O(4)).mode == "full"


# -- the defect loop before the one-accumulator kernel, kept as an oracle ----

def _plus(alg, a: dict, b: dict, c=1) -> dict:
    """a + c*b on coordinate dicts, in a fresh dict without zeros."""
    out = dict(a)
    for k, v in b.items():
        w = alg.field.coerce(out.get(k, alg.field.zero()) + v * c)
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def _reference_substituted(alg, keys: tuple, pos: int, elem: dict) -> dict:
    out = {}
    for k, c in sorted(elem.items()):
        term = alg.bracket_keys(keys[:pos] + (k,) + keys[pos + 1:])
        out = _plus(alg, out, term, c)
    return out


def reference_filippov_defect(alg, a_keys: tuple, b_keys: tuple):
    n = alg.arity
    pa = (alg.bracket_parity + sum(alg.key_parity(k) for k in a_keys)) % 2  # of ad_a
    inner = alg.bracket_keys(tuple(b_keys))
    lhs = {}
    for k, c in sorted(inner.items()):
        lhs = _plus(alg, lhs, alg.bracket_keys(tuple(a_keys) + (k,)), c)
    rhs = {}
    acc = 0
    for pos in range(n):
        if pos > 0:
            acc = (acc + alg.key_parity(b_keys[pos - 1])) % 2
        inner_k = alg.bracket_keys(tuple(a_keys) + (b_keys[pos],))
        term = _reference_substituted(alg, tuple(b_keys), pos, inner_k)
        if pa and acc:
            term = _plus(alg, {}, term, -1)
        rhs = _plus(alg, rhs, term)
    if pa and alg.bracket_parity:
        rhs = _plus(alg, {}, rhs, -1)
    return _plus(alg, lhs, rhs, -1)


def reference_derivation_defect(alg, dmap, dparity: int, keys: tuple):
    n = alg.arity
    val = alg.bracket_keys(tuple(keys))
    lhs = {}
    for k, c in sorted(val.items()):
        lhs = _plus(alg, lhs, dmap(k), c)
    rhs = {}
    acc = 0
    for pos in range(n):
        if pos > 0:
            acc = (acc + alg.key_parity(keys[pos - 1])) % 2
        term = _reference_substituted(alg, tuple(keys), pos, dmap(keys[pos]))
        if dparity and acc:
            term = _plus(alg, {}, term, -1)
        rhs = _plus(alg, rhs, term)
    if dparity and alg.bracket_parity:
        rhs = _plus(alg, {}, rhs, -1)
    return _plus(alg, lhs, rhs, -1)


def reference_check(alg, keys, mode, defect):
    """(ok, instances, witness keys) of a loop over ``defect``."""
    n = alg.arity
    if mode == "full":
        a_iter, b_iter = product(keys, repeat=n - 1), list(product(keys, repeat=n))
    else:
        a_iter = canonical_keys(alg, keys, n - 1)
        b_iter = list(canonical_keys(alg, keys, n))
    count = 0
    for a_keys in a_iter:
        for b_keys in b_iter:
            count += 1
            if defect(alg, a_keys, b_keys):
                return False, count, (a_keys, b_keys)
    return True, count, None


# -- corrupted carriers ----------------------------------------------------

def _repeat_instances(alg, keys):
    """Ordered instances with a repeated odd key and with a repeated even
    key, where the keys hold one: sorting keeps the first, kills the second."""
    odd = [k for k in keys if alg.key_parity(k)]
    even = [k for k in keys if not alg.key_parity(k)]
    n = alg.arity
    out = []
    for k in odd[:1] + even[:1]:
        rest = [j for j in keys if j != k] or [k]
        a_keys = ((k,) * 2 + tuple(rest))[:n - 1]
        b_keys = (rest[0],) + (k,) * 2 + tuple(rest[1:])
        out.append((a_keys, (b_keys + (k,) * n)[:n]))
    return out


coeffs = st.integers(-2, 2)


def corrupt_table(alg, data, entries=2):
    """The table with a random vector of the right parity added at a few
    canonical keys (possibly none, when the draws are zero)."""
    field = alg.field
    space = alg.space
    canon = list(canonical_keys(alg, range(space.dim), alg.arity))
    table = dict(alg.table)
    for _ in range(data.draw(st.integers(0, entries))):
        key = data.draw(st.sampled_from(canon))
        par = (alg.bracket_parity + sum(space.parities[i] for i in key)) % 2
        value = dict(table.get(key, {}))
        vec_add_scaled(value, {i: field.coerce(data.draw(coeffs)) for i in range(space.dim)
                               if space.parities[i] == par}, 1, field.p)
        table[key] = value
    return FiniteNAryAlgebra(space, alg.arity, alg.bracket_parity, table)


def mixed_table(field, data, alpha=None):
    """A random table on a mixed-parity space with odd basis vectors, so odd
    repeats, odd a-blocks and an odd bracket all occur; the bracket's
    parity is ``alpha``, or drawn."""
    parities = data.draw(st.sampled_from([(0, 1, 1), (0, 0, 1), (1, 1, 0)]))
    space = SuperSpace(field, ("u", "v", "w"), parities)
    arity = data.draw(st.sampled_from([2, 3]))
    if alpha is None:
        alpha = data.draw(st.sampled_from([0, 1]))
    empty = FiniteNAryAlgebra(space, arity, alpha, {})
    return corrupt_table(empty, data, entries=6)


@pytest.mark.parametrize("alpha", [0, 1], ids=["even bracket", "odd bracket"])
@settings(max_examples=300)
@given(data=st.data())
def test_identity_is_the_derivation_law_of_the_inner_maps_and_the_seed_relations(alpha, data):
    # three checks of one law: the identity, ad_a as a derivation of parity
    # alpha + p(a) for every canonical a, and the relations of the seed mu
    # that the transport to the symmetric side makes of the bracket
    alg = mixed_table(QQ, data, alpha)
    inner = not any(derivation_failures(alg, dmap, par) for par, dmap in (
        inner_map(alg, a) for a in canonical_keys(alg, alg.keys(), alg.arity - 1)))
    mu = WElement.from_map(bracket_to_symmetric(alg.space, alg.arity, alpha, alg.bracket_keys))
    assert check_filippov(alg).ok == inner == check_mu_relations(mu.space, mu).ok


def corrupt_poly(alg, keys, data):
    """Add a drawn term to the raw brackets of up to two canonical window
    tuples, so the carrier's cache holds the perturbed brackets."""
    n = alg.arity
    tuples = list(combinations(keys, n))
    bad = {}
    for _ in range(data.draw(st.integers(0, 2))):
        tup = data.draw(st.sampled_from(tuples))
        bad[tup] = {data.draw(st.sampled_from(keys)): alg.field.coerce(data.draw(coeffs))}
    base = alg.raw_bracket

    def raw_bracket(ck):
        got = base(ck)
        extra = bad.get(ck)
        return _plus(alg, got, extra) if extra else got

    alg.raw_bracket = raw_bracket
    return drop_declarations(alg)


def drop_declarations(alg):
    """The carrier without its declared key symmetries and determining
    keys: a corrupted bracket no longer has the formula they were proved
    from, so the check must run the plain scan on the read set."""
    alg.key_symmetries = alg.determining_keys = None
    return alg


def jacobian_sets(field):
    """The generalized Jacobian operator sets of acceptance check 10."""
    R1 = SuperPolyRing(field, 1, 0)
    R2 = SuperPolyRing(field, 2, 0)
    x = R1.x(1)
    return [
        (R1, [DiffOp.ddx(R1, 1)]),
        (R1, [DiffOp.ddx(R1, 1), DiffOp.ddx(R1, 1, coeff=x)]),
        (R2, [DiffOp.ddx(R2, 1), DiffOp.ddx(R2, 2)]),
        (R1, [DiffOp.ddx(R1, 1), DiffOp.ddx(R1, 1, coeff=x * x)]),
        (R2, [DiffOp.ddx(R2, 1, coeff=R2.x(1)),
              DiffOp.ddx(R2, 2, coeff=R2.x(1)) + DiffOp.ddx(R2, 1)]),
    ]


def _poly_case(alg, window, data, mode="sorted"):
    keys = alg.window_keys(window)
    return corrupt_poly(alg, keys, data), keys, mode


def _jacobian_case(field, data):
    ring, ops = data.draw(st.sampled_from(jacobian_sets(field)))
    alg = GeneralizedJacobianNAry(field, ring.m, ops, bordered=True)
    return _poly_case(alg, 2, data)


# name -> (field, data) -> (carrier, keys, mode); full mode on at most 4 keys
CASES = {
    "O(3)": lambda F, data: (corrupt_table(algebra_O(3, field=F), data), range(4), "full"),
    "O(4)": lambda F, data: (corrupt_table(algebra_O(4, field=F), data), range(5), "sorted"),
    "heisenberg": lambda F, data: (corrupt_table(heisenberg_11(F), data, entries=3), range(2), "full"),
    "mixed": lambda F, data: (mixed_table(F, data), range(3), "full"),
    "mixed-sorted": lambda F, data: (mixed_table(F, data), range(3), "sorted"),
    "S(3)": lambda F, data: _poly_case(algebra_S(3, F), 2, data),
    "S(3)-full": lambda F, data: _poly_case(algebra_S(3, F), 1, data, "full"),
    "W(3)": lambda F, data: _poly_case(algebra_W(3, F), 1, data),
    "W(3)-full": lambda F, data: _poly_case(algebra_W(3, F), 1, data, "full"),
    "SW(4)": lambda F, data: _poly_case(algebra_SW(4, F), 1, data),
    "jacobian": _jacobian_case,
}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=12)
@given(data=st.data())
def test_kernel_matches_the_reference_loop(case, field, data):
    alg, keys, mode = CASES[case](field, data)
    keys = list(keys)
    n = alg.arity
    rep = check_filippov(alg, keys=keys, mode=mode)
    ok, instances, witness = reference_check(alg, keys, mode, reference_filippov_defect)
    assert (rep.ok, rep.instances, rep.witness and rep.witness[:2]) == (ok, instances, witness)
    assert rep.mode == mode

    # defects of ordered instances, repeats and unsorted orders included
    key = st.sampled_from(keys)
    drawn = [(tuple(data.draw(key) for _ in range(n - 1)), tuple(data.draw(key) for _ in range(n)))
             for _ in range(4)]
    ads = ad_table(alg)  # one table for every tuple, as derivation_space runs it
    for a_keys, b_keys in drawn + _repeat_instances(alg, keys):
        assert filippov_defect(alg, a_keys, b_keys) == reference_filippov_defect(alg, a_keys, b_keys)
        # the kernel's own sum keeps no zero entry, and over F_p only field scalars
        d = nlie._defect(alg, ads[a_keys], nlie._slots(alg, ads, b_keys), inner_parity(alg, a_keys))
        assert all(d.values())
        assert field.p is None or all(type(c) is int and 0 < c < field.p for c in d.values())

    # a random map of a drawn parity through the derivation defect
    images = {k: {j: alg.field.coerce(c) for j in keys if (c := data.draw(coeffs))}
              for k in keys}
    dparity = data.draw(st.sampled_from([0, 1]))

    def dmap(k):  # zero off the window
        return images.get(k, {})

    for tup in canonical_keys(alg, keys, n):
        assert (derivation_defect(alg, dmap, dparity, tup, ads)
                == reference_derivation_defect(alg, dmap, dparity, tup))


# -- one ad table per check --------------------------------------------------

def test_repeats_give_vanishing_and_surviving_entries():
    # (u | x): an even repeat vanishes, an odd repeat survives
    V = SuperSpace(QQ, ("u", "x"), (0, 1))
    alg = FiniteNAryAlgebra(V, 2, 0, {(1, 1): {0: 1}})
    ads = ad_table(alg)
    assert ads[(0,)][0] is ads[(1,)][0] and not ads[(0,)][0][1]
    assert ads[(1,)][1] == (False, {0: 1})
    assert ads[(0,)][1] is ads[(0,)][0]  # [u, x] is zero in the table


def _spy_tables(monkeypatch) -> list:
    """Every ad table the kernel builds from now on, in order."""
    tables = []

    def spy(alg):
        tables.append(ad_table(alg))
        return tables[-1]

    monkeypatch.setattr(nlie, "ad_table", spy)
    return tables


def test_identity_window_asks_each_canonical_bracket_about_once(monkeypatch):
    # verify S --n 3 --window 3: 165,699 instances; 7,230 distinct brackets
    tables = _spy_tables(monkeypatch)
    for field in (QQ, GF(10007)):
        alg = algebra_S(3, field)
        seen = []
        bracket = alg.bracket_keys

        def spy(keys):
            seen.append(keys)
            return bracket(keys)

        alg.bracket_keys = spy
        rep = check_filippov(alg, keys=alg.window_keys(3))
        assert rep.ok and rep.instances == 165699
        assert all(koszul_sort(keys) == (keys, 1) for keys in seen)
        assert len(seen) == len(set(seen)) == len(tables[-1].brackets) == 7230


def _snapshot(cache: dict) -> dict:
    return {k: (v, dict(v)) for k, v in cache.items()}


@pytest.mark.parametrize("make", [lambda f: (algebra_S(3, f), 2), lambda f: (algebra_W(3, f), 2),
                                  lambda f: (algebra_SW(4, f), 1)], ids=["S(3)", "W(3)", "SW(4)"])
def test_check_filippov_leaves_cached_brackets_unchanged(make, monkeypatch):
    tables = _spy_tables(monkeypatch)
    for field in (QQ, GF(10007)):
        alg, window = make(field)
        keys = alg.window_keys(window)
        assert check_filippov(alg, keys=keys).ok
        ads = tables[-1]
        before = _snapshot(ads.brackets)
        empties = [v for v in ads.brackets.values() if not v]
        assert empties and all(v is empties[0] for v in empties)  # one shared empty dict
        monomials = {}
        for ck, v in ads.brackets.items():
            assert {k: field.coerce(c) for k, c in v.items()} == alg.bracket_keys(ck)
            for k in v:
                assert monomials.setdefault(k, k) is k  # equal keys are one tuple
        assert check_filippov(alg, keys=keys).ok and tables[-1].brackets == ads.brackets
        assert check_filippov(alg, keys=keys[:4], mode="full").ok
        par, dmap = inner_map(alg, tuple(keys[1:alg.arity]))
        for tup in canonical_keys(alg, keys, alg.arity):  # the first check's table, reused
            assert not derivation_defect(alg, dmap, par, tup, ads)
        after = _snapshot(ads.brackets)
        assert after.keys() >= before.keys()
        for k, (v, copy) in before.items():
            assert after[k][0] is v and after[k][1] == copy
        assert not empties[0]


# -- GF(p) on plain ints --------------------------------------------------------

@pytest.mark.parametrize("make", [lambda f: (algebra_S(3, f), 2), lambda f: (algebra_W(3, f), 2),
                                  lambda f: (algebra_SW(4, f), 1), lambda f: (algebra_O(4, f), None)],
                         ids=["S(3)", "W(3)", "SW(4)", "O(4)"])
def test_prime_field_verdicts_match_the_rationals(make, monkeypatch):
    # at p = 3, 5, 7 constants such as -1, 3 or 4 wrap to residues (-1 -> 2 at p = 3)
    tables = _spy_tables(monkeypatch)
    alg, window = make(QQ)
    keys = None if window is None else alg.window_keys(window)
    want = check_filippov(alg, keys=keys)
    assert want.ok
    rational = tables[-1].brackets
    for p in (3, 5, 7, 10007):
        alg = make(GF(p))[0]
        rep = check_filippov(alg, keys=keys)
        assert (rep.ok, rep.instances, rep.mode) == (True, want.instances, want.mode)
        stored = tables[-1].brackets
        assert stored.keys() == rational.keys()
        for ck, v in rational.items():
            assert all(type(c) is int and 0 < c < p for c in stored[ck].values())
            assert {k: c % p for k, c in stored[ck].items()} == {
                k: c % p for k, c in v.items() if c % p}
        if p == 3 and window is not None:  # O(4)'s constants are all +-1
            assert any(stored[ck] != v for ck, v in rational.items())


def test_prime_field_reduces_a_defect_that_is_nonzero_over_the_integers():
    # CharPSeed(p, s): arity n = s p + 1 and ad_a even at any n, so the
    # defect LHS - RHS is a - n a = -s p a: nonzero over QQ, zero in F_p
    for p, s in ((3, 2), (5, 1), (3, 1)):
        seed = CharPSeed(p, s)
        n = seed.n
        rep = check_filippov(seed.algebra())
        assert rep.ok and rep.instances == 1
        rational = FiniteNAryAlgebra(SuperSpace(QQ, ("a",), (ODD,)), n, (n + 1) % 2,
                                     {(0,) * n: {0: 1}})
        rep = check_filippov(rational)
        assert not rep.ok and rep.instances == 1
        assert filippov_defect(rational, (0,) * (n - 1), (0,) * n) == {0: -s * p}


def test_prime_field_witness_is_pinned():
    text = serialize_table(algebra_O(3, GF(7)))
    assert "1 2 3 -> 1*e4\n" in text
    bad = parse_table(text.replace("1 2 3 -> 1*e4\n", "1 2 3 -> 1*e4 + 3*e1\n"))
    rep = check_filippov(bad)
    assert (rep.ok, rep.instances, rep.witness) == (False, 92, ((0, 1), (1, 2, 3), "4*e3"))
    defect = filippov_defect(bad, (0, 1), (1, 2, 3))
    assert defect == {2: GF(7).scalar(4)} and type(defect[2]) is int
    assert check_filippov(parse_table(text.replace("1 2 3 -> 1*e4\n",
                                                   "1 2 3 -> 1*e4 + 7*e1\n"))).ok


def test_prime_field_derivation_space_matches_the_rationals():
    for field in (QQ, GF(7)):
        alg = algebra_O(3, field)
        ds = derivation_space(alg)
        assert (ds.dim, ds.inner_dim) == (6, 6)
        for parity, mat in ds.basis:
            assert derivation_failures(alg, matrix_dmap(alg, mat), parity) == []
        dmap = matrix_dmap(alg, {(0, 0): field.one()})  # not a derivation
        defect = derivation_defect(alg, dmap, 0, (0, 1, 2))
        assert defect and all(field.check(c) for c in defect.values())


def test_finite_table_is_the_one_bracket_store():
    alg = algebra_O(3)
    table = {k: dict(v) for k, v in alg.table.items()}
    assert check_filippov(alg, mode="full").ok and check_filippov(alg, mode="sorted").ok
    assert alg.table == table
    assert not hasattr(alg, "_cache")
    # outside callers still get sorted, signed brackets
    assert alg.bracket_keys((2, 1, 0)) == {i: -c for i, c in alg.table[(0, 1, 2)].items()}
    assert alg.bracket_keys((0, 0, 1)) == {}


# -- the identity on a basis of the inner maps -----------------------------------

def ordered_scan(alg, keys, mode):
    """(ok, instances, witness) of the scan of every pair in order through
    ``filippov_defect``, which the basis scan must reproduce."""
    ok, count, first = reference_check(alg, list(keys), mode, filippov_defect)
    return ok, count, first and first + (alg.show(filippov_defect(alg, *first)),)


def flip_brackets(alg, tuples):
    """The carrier with the determinant sign of some canonical tuples flipped."""
    base = alg.raw_bracket
    alg.raw_bracket = lambda ck: (alg.field.reduced({k: -v for k, v in base(ck).items()})
                                  if ck in tuples else base(ck))
    return alg


def flip_bracket(alg, tup):
    """The carrier with the determinant sign of one canonical tuple flipped."""
    return drop_declarations(flip_brackets(alg, {tup}))


def bump_table(alg, pos, index):
    """The table with e_index added to the value at its pos-th sorted key."""
    table = {k: dict(v) for k, v in alg.table.items()}
    value = table[sorted(table)[pos]]
    vec_add_scaled(value, {index: alg.field.one()}, 1, alg.field.p)
    return FiniteNAryAlgebra(alg.space, alg.arity, alg.bracket_parity, table)


def heisenberg_twisted(field):
    """heisenberg_11 with [e1, e2] = e2 added: [e2, [e2, e2]] = -e2, so the
    odd key e2 breaks the super Jacobi identity."""
    alg = heisenberg_11(field)
    return FiniteNAryAlgebra(alg.space, 2, 0, {**alg.table, (0, 1): {1: field.one()}})


BASIS_CASES = {
    "S(3) flipped": lambda F: (flip_bracket(algebra_S(3, F), ((0, 1, 0), (0, 1, 1), (2, 0, 0))),
                               2, False),
    "S(3) flipped, identity kept": lambda F: (
        flip_bracket(algebra_S(3, F), ((0, 1, 0), (1, 0, 0), (0, 0, 2))), 2, True),
    "W(3) flipped": lambda F: (flip_bracket(algebra_W(3, F), ((0, 1), (1, 1), (2, 0))), 2, False),
    "SW(4) flipped": lambda F: (flip_bracket(algebra_SW(4, F), ((1, 0), (2, 0), (2, 1), (3, 0))),
                                1, False),
    "O(3) bumped": lambda F: (bump_table(algebra_O(3, F), -1, 1), None, False),
    "O(4) bumped first": lambda F: (bump_table(algebra_O(4, F), 0, 0), None, False),
    "O(4) bumped last": lambda F: (bump_table(algebra_O(4, F), -1, 1), None, False),
    "O(5) bumped": lambda F: (bump_table(algebra_O(5, F), -1, 1), None, False),
    "heisenberg": lambda F: (heisenberg_11(F), None, True),
    "heisenberg twisted": lambda F: (heisenberg_twisted(F), None, False),
}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("case", sorted(BASIS_CASES))
def test_basis_scan_matches_the_ordered_scan(case, field):
    alg, window, ok = BASIS_CASES[case](field)
    keys = list(alg.keys() if window is None else alg.window_keys(window))
    rep = check_filippov(alg, keys=keys)
    assert (rep.ok, rep.instances, rep.witness) == ordered_scan(alg, keys, rep.mode)
    assert rep.ok == ok
    if ok:  # every kept tuple against every b-block
        assert rep.defects < rep.instances
    else:  # the scan stops at the witness, which comes no later than in the ordered scan
        assert rep.defects <= rep.instances


def test_identity_window_scans_85_inner_maps():
    # S(3), window 3: 171 a-tuples, 85 independent inner maps
    # (3 C(7,3) - C(6,3) divergence-free fields), 969 b-blocks in 186 orbits
    for field in (QQ, GF(10007)):
        alg = algebra_S(3, field)
        keys = alg.window_keys(3)
        tuples = list(canonical_keys(alg, keys, 2))
        assert len(independent_tuples(alg, ad_table(alg), tuples, keys)) == 85
        rep = check_filippov(alg, keys=keys)
        assert (rep.ok, rep.instances, rep.defects) == (True, 165699, 15810) == (
            True, 171 * 969, 85 * 186)


@pytest.mark.parametrize("alg", [algebra_O(4, GF(7)), algebra_O(5, GF(3)),
                                 bump_table(algebra_O(4, GF(5)), 2, 0),
                                 heisenberg_twisted(GF(3))], ids=["O(4)", "O(5)", "O(4) bumped",
                                                                  "heisenberg twisted"])
def test_every_inner_map_lies_in_the_span_of_the_kept_tuples(alg):
    F = alg.field
    keys = list(alg.keys())
    for mode in ("full", "sorted"):
        tuples = list(product(keys, repeat=alg.arity - 1) if mode == "full"
                      else canonical_keys(alg, keys, alg.arity - 1))
        kept = independent_tuples(alg, ad_table(alg), tuples, keys)
        assert kept == [a for a in tuples if a in kept]  # in scan order
        spans = {0: Span(F), 1: Span(F)}

        def matrix(a):  # the carrier's own scalars of ad_a
            par, dmap = inner_map(alg, a)
            return spans[par], matrix_of(map(dmap, keys))

        for a in kept:
            span, mat = matrix(a)
            assert span.insert(mat)
        for a in tuples:
            span, mat = matrix(a)
            assert span.contains(mat)
        if mode == "full" and alg.arity > 2:  # reordered tuples are dependent
            assert len(kept) < len(tuples)


def test_kept_tuples_are_independent_over_the_checks_field():
    # the rows (1, 2) and (2, -1) are proportional mod 5 only, and
    # (1, 0) = ((1, 2) + 2 (2, -1)) / 5 lies in their span over QQ only
    rows = [{0: 1, 1: 2}, {0: 2, 1: -1}, {0: 1}]
    for field, want in ((QQ, [(0,), (1,)]), (GF(5), [(0,), (2,)])):
        alg = FiniteNAryAlgebra(SuperSpace(field, ("u", "v", "w"), (0, 0, 0)), 2, 0, {})
        ads = {(a,): {0: (False, row)} for a, row in enumerate(rows)}
        assert independent_tuples(alg, ads, [(0,), (1,), (2,)], [0]) == want



def test_the_read_set_holds_the_keys_of_each_bracket_value(monkeypatch):
    # the kernel reads ad_a on the keys of b and on those of the value [b],
    # so inner maps are compared there: e4 = [e1 e2 e3] lies off the keys
    reads = []
    independent = nlie.independent_tuples
    monkeypatch.setattr(nlie, "independent_tuples", lambda alg, ads, tuples, read: (
        reads.append(list(read)) or independent(alg, ads, tuples, read)))
    assert check_filippov(algebra_O(3), keys=[0, 1, 2]).ok
    assert check_filippov(algebra_S(3), keys=[(1, 0, 0), (0, 1, 0), (0, 0, 2)]).ok
    assert reads == [[0, 1, 2, 3], [(1, 0, 0), (0, 1, 0), (0, 0, 2), (0, 0, 1)]]


# -- declared symmetries and determining keys ------------------------------------

def sorted_blocks(alg, keys):
    return list(canonical_keys(alg, keys, alg.arity))


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["QQ", "GF10007"])
@pytest.mark.parametrize("make, n, window", [(algebra_S, 3, 3), (algebra_S, 4, 2), (algebra_S, 5, 2),
                                             (algebra_W, 3, 3), (algebra_W, 4, 2), (algebra_W, 5, 2)],
                         ids=["S(3)", "S(4)", "S(5)", "W(3)", "W(4)", "W(5)"])
def test_declared_transpositions_hold_on_every_canonical_bracket(make, n, window, field):
    # [g k_1..g k_n] = -g[k_1..k_n] for each swap g of adjacent variables
    alg = make(n, field)
    keys = alg.window_keys(window)
    maps = alg.key_symmetries()
    assert len(maps) == alg.nvars - 1
    brackets = {}
    for block in sorted_blocks(alg, keys):
        ck = koszul_sort(block)[0]
        brackets[ck] = alg.bracket_keys(ck)
    for i, g in enumerate(maps):
        swapped = [k[:i] + (k[i + 1], k[i]) + k[i + 2:] for k in keys]
        assert [g(k) for k in keys] == swapped and set(swapped) == set(keys)
        for ck, value in brackets.items():
            image, sign = koszul_sort(tuple(map(g, ck)))
            assert {g(k): c for k, c in value.items()} == field.reduced(
                {k: -sign * c for k, c in brackets[image].items()})


def test_block_orbits_are_counted_without_a_scan(monkeypatch):
    # b-blocks -> orbits under the permutations of the variables
    monkeypatch.setattr(nlie, "_defect", None)  # no defect is evaluated
    for alg, window, blocks, orbits in ((algebra_S(3), 3, 969, 186), (algebra_S(4), 2, 1001, 68),
                                        (algebra_W(4), 2, 210, 47), (algebra_S(5), 2, 15504, 239)):
        keys = alg.window_keys(window)
        tuples = sorted_blocks(alg, keys)
        reps = nlie.block_representatives(alg, keys, tuples, "sorted")
        assert (len(tuples), len(reps)) == (blocks, orbits)
        assert reps == [b for b in tuples if b in set(reps)]  # first of each orbit, in scan order
        assert reps[0] == tuples[0]


def test_block_orbits_need_a_declaration_and_stable_keys():
    S3 = algebra_S(3)
    keys = S3.window_keys(2)
    assert nlie.block_representatives(S3, keys[:-1], sorted_blocks(S3, keys[:-1]), "sorted") is None
    for alg, keys in ((algebra_O(4), range(5)), (algebra_SW(4), algebra_SW(4).window_keys(1)),
                      (drop_declarations(algebra_S(3)), keys)):
        assert nlie.block_representatives(alg, list(keys), sorted_blocks(alg, keys), "sorted") is None
    # ordered blocks are not sorted: the 27 ordered triples of x, y, z fall into
    # 5 orbits, by which positions hold equal keys
    full = list(product(S3.window_keys(1), repeat=3))
    assert len(nlie.block_representatives(S3, S3.window_keys(1), full, "full")) == 5


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=["QQ", "GF10007"])
@pytest.mark.parametrize("make, window, kept", [(lambda F: algebra_S(3, F), 3, 85),
                                                (lambda F: algebra_S(4, F), 2, 125),
                                                (lambda F: algebra_W(4, F), 2, 70)],
                         ids=["S(3) w3", "S(4) w2", "W(4) w2"])
def test_determining_keys_keep_the_tuples_of_the_read_set(make, window, kept, field):
    alg = make(field)
    keys = alg.window_keys(window)
    ads = ad_table(alg)
    tuples = list(canonical_keys(alg, keys, alg.arity - 1))
    read = nlie._read_set(ads, sorted_blocks(alg, keys))
    determining = alg.determining_keys()
    assert set(determining) <= set(keys) <= set(read)
    on_read = independent_tuples(alg, ads, tuples, read)
    assert independent_tuples(alg, ads, tuples, determining) == on_read
    assert len(on_read) == kept
    # every inner map of the window, on R, lies in the span of the kept ones
    span = Span(field)
    for a in on_read:
        assert span.insert(matrix_of(map(inner_map(alg, a)[1], read)))
    for a in tuples:
        assert span.contains(matrix_of(map(inner_map(alg, a)[1], read)))


def _spy_scans(monkeypatch) -> list:
    """The number of b-blocks of every scan pass, in order."""
    passes = []
    scan = nlie._scan

    def spy(alg, ads, kept, blocks):
        passes.append(len(blocks))
        return scan(alg, ads, kept, blocks)

    monkeypatch.setattr(nlie, "_scan", spy)
    return passes


def flip_orbit(alg, tup):
    """The carrier with the sign flipped on every canonical tuple in the
    orbit of ``tup`` under the permutations of the variables: it keeps
    the declared key symmetries but loses its determinant formula, so
    it drops its determining keys."""
    orbit = {koszul_sort(tuple(tuple(k[i] for i in perm) for k in tup))[0]
             for perm in permutations(range(alg.nvars))}
    alg = flip_brackets(alg, orbit)
    alg.determining_keys = None
    return alg


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("make, keys, tup", [
    (algebra_S, algebra_S(3).window_keys(2), ((0, 1, 0), (0, 1, 1), (2, 0, 0))),
    (algebra_S, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)],
     ((0, 0, 2), (0, 1, 0), (1, 0, 0))),
    (algebra_W, algebra_W(3).window_keys(2), ((0, 1), (1, 1), (2, 0))),
], ids=["S(3) sorted", "S(3) full", "W(3) full"])
def test_symmetric_corruption_fails_through_the_orbit_pass(make, keys, tup, field, monkeypatch):
    alg = flip_orbit(make(3, field), tup)
    passes = _spy_scans(monkeypatch)
    rep = check_filippov(alg, keys=keys)
    want = ordered_scan(alg, keys, rep.mode)
    assert (rep.ok, rep.instances, rep.witness) == want and not rep.ok
    tuples = (sorted_blocks(alg, keys) if rep.mode == "sorted"
              else list(product(keys, repeat=alg.arity)))
    reps = nlie.block_representatives(alg, keys, tuples, rep.mode)
    assert passes == [len(reps), len(tuples)] and len(reps) < len(tuples)


def test_keys_that_are_not_stable_fall_back_to_the_plain_scan(monkeypatch):
    passes = _spy_scans(monkeypatch)
    alg = algebra_S(3)
    keys = [k for k in alg.window_keys(2) if k != (0, 0, 2)]
    rep = check_filippov(alg, keys=keys)
    assert (rep.ok, rep.instances, rep.witness) == ordered_scan(alg, keys, rep.mode)
    blocks = sorted_blocks(alg, keys)
    assert passes == [len(blocks)]
    kept = independent_tuples(alg, ad_table(alg), list(canonical_keys(alg, keys, 2)),
                              alg.determining_keys())
    assert rep.defects == len(kept) * len(blocks)
