"""n-ary bracket tables, the n-ary Jacobi checker and derivation defects."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from nlielab import nlie
from nlielab.catalog import GeneralizedJacobianNAry, algebra_O, algebra_S, algebra_SW, algebra_W
from nlielab.charp import CharPSeed
from nlielab.derivations import derivation_space, matrix_dmap
from nlielab.fields import GF, QQ, ModP
from nlielab.nlie import (
    FiniteNAryAlgebra,
    ad_table,
    check_derivation,
    check_filippov,
    derivation_defect,
    filippov_defect,
    identity_mode,
    inner_derivation,
    parse_table,
    serialize_table,
)
from nlielab.multilinear import canonical_tuples, koszul_sort
from nlielab.polysuper import DiffOp, SuperPolyRing
from nlielab.superspace import SuperSpace


def heisenberg_11(field=QQ):
    # one even, one odd generator; the odd square is central
    V = SuperSpace(field, ("e1", "e2"), (0, 1))
    return FiniteNAryAlgebra(V, 2, 0, {(1, 1): V.basis_vector(0)})


def canonical_keys(alg, keys, r):
    """The canonical r-tuples of a carrier's ordered keys."""
    keys = list(keys)
    return canonical_tuples(keys, r, [alg.key_parity(k) for k in keys])


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
    table[(0, 1, 2)] = table[(0, 1, 2)] + alg.space.basis_vector(0)
    bad = FiniteNAryAlgebra(alg.space, 3, 0, table)
    rep = check_filippov(bad, mode="sorted")
    assert not rep.ok
    a_keys, b_keys, _ = rep.witness
    assert len(a_keys) == 2 and len(b_keys) == 3
    assert bad.coords(filippov_defect(bad, a_keys, b_keys)) != {}


def test_limit_stops_early():
    alg = algebra_O(3)
    rep = check_filippov(alg, mode="full", limit=10)
    assert rep.ok and rep.instances == 10


def test_super_table_passes_binary_jacobi():
    alg = heisenberg_11()
    rep = check_filippov(alg, mode="full")
    assert rep.ok
    # the odd repeat (x, x) is an honest instance here
    assert alg.bracket_keys((1, 1)) == alg.space.basis_vector(0)
    assert alg.bracket_keys((0, 1)).is_zero()


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
        assert {k: v.coords for k, v in back.table.items()} == {
            k: v.coords for k, v in alg.table.items()
        }


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


def test_inner_maps_are_derivations():
    alg = algebra_O(3)
    for a_keys in ((0, 1), (1, 2), (0, 3)):
        par, dmap = inner_derivation(alg, a_keys)
        rep = check_derivation(alg, dmap, dparity=par)
        assert rep.ok, rep.witness


def test_non_derivation_is_caught():
    alg = algebra_O(3)

    def squash(k):
        # projection onto a line is not compatible with the bracket
        return alg.space.basis_vector(0) if k == 0 else alg.space.zero()

    rep = check_derivation(alg, squash, dparity=0)
    assert not rep.ok and rep.witness is not None


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
        w = out.get(k, alg.field.zero()) + v * c
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def _reference_substituted(alg, keys: tuple, pos: int, elem: dict) -> dict:
    out = {}
    for k, c in sorted(elem.items()):
        term = alg.coords(alg.bracket_keys(keys[:pos] + (k,) + keys[pos + 1:]))
        out = _plus(alg, out, term, c)
    return out


def reference_filippov_defect(alg, a_keys: tuple, b_keys: tuple):
    n = alg.arity
    pa = sum(alg.key_parity(k) for k in a_keys) % 2
    inner = alg.coords(alg.bracket_keys(tuple(b_keys)))
    lhs = {}
    for k, c in sorted(inner.items()):
        lhs = _plus(alg, lhs, alg.coords(alg.bracket_keys(tuple(a_keys) + (k,))), c)
    rhs = {}
    acc = 0
    for pos in range(n):
        if pos > 0:
            acc = (acc + alg.key_parity(b_keys[pos - 1])) % 2
        inner_k = alg.coords(alg.bracket_keys(tuple(a_keys) + (b_keys[pos],)))
        term = _reference_substituted(alg, tuple(b_keys), pos, inner_k)
        if pa and acc:
            term = _plus(alg, {}, term, -1)
        rhs = _plus(alg, rhs, term)
    if pa and alg.bracket_parity:
        rhs = _plus(alg, {}, rhs, -1)
    return alg.element(_plus(alg, lhs, rhs, -1))


def reference_derivation_defect(alg, dmap, dparity: int, keys: tuple):
    n = alg.arity
    val = alg.coords(alg.bracket_keys(tuple(keys)))
    lhs = {}
    for k, c in sorted(val.items()):
        lhs = _plus(alg, lhs, alg.coords(dmap(k)), c)
    rhs = {}
    acc = 0
    for pos in range(n):
        if pos > 0:
            acc = (acc + alg.key_parity(keys[pos - 1])) % 2
        term = _reference_substituted(alg, tuple(keys), pos, alg.coords(dmap(keys[pos])))
        if dparity and acc:
            term = _plus(alg, {}, term, -1)
        rhs = _plus(alg, rhs, term)
    if dparity and alg.bracket_parity:
        rhs = _plus(alg, {}, rhs, -1)
    return alg.element(_plus(alg, lhs, rhs, -1))


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
            if alg.coords(defect(alg, a_keys, b_keys)):
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
    space = alg.space
    canon = list(canonical_keys(alg, range(space.dim), alg.arity))
    table = dict(alg.table)
    for _ in range(data.draw(st.integers(0, entries))):
        key = data.draw(st.sampled_from(canon))
        par = (alg.bracket_parity + sum(space.parities[i] for i in key)) % 2
        extra = space.vector({i: data.draw(coeffs) for i in range(space.dim)
                              if space.parities[i] == par})
        table[key] = table.get(key, space.zero()) + extra
    return FiniteNAryAlgebra(space, alg.arity, alg.bracket_parity, table)


def mixed_table(field, data):
    """A random table on a mixed-parity space with odd basis vectors, so odd
    repeats, odd a-blocks and an odd bracket all occur."""
    parities = data.draw(st.sampled_from([(0, 1, 1), (0, 0, 1), (1, 1, 0)]))
    space = SuperSpace(field, ("u", "v", "w"), parities)
    arity = data.draw(st.sampled_from([2, 3]))
    alpha = data.draw(st.sampled_from([0, 1]))
    empty = FiniteNAryAlgebra(space, arity, alpha, {})
    return corrupt_table(empty, data, entries=6)


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


def _as_map(alg, elem) -> dict:
    return dict(alg.coords(elem))


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
    for a_keys, b_keys in drawn + _repeat_instances(alg, keys):
        assert (_as_map(alg, filippov_defect(alg, a_keys, b_keys))
                == _as_map(alg, reference_filippov_defect(alg, a_keys, b_keys)))

    # a random map of a drawn parity through the derivation defect
    images = {k: alg.element({j: alg.field.coerce(c) for j in keys
                              if (c := data.draw(coeffs))}) for k in keys}
    dparity = data.draw(st.sampled_from([0, 1]))
    zero = alg.element({})

    def dmap(k):  # zero off the window
        return images.get(k, zero)

    ads = ad_table(alg)  # one table for every tuple, as derivation_space runs it
    for tup in canonical_keys(alg, keys, n):
        assert (_as_map(alg, derivation_defect(alg, dmap, dparity, tup, ads))
                == _as_map(alg, reference_derivation_defect(alg, dmap, dparity, tup)))
    drep = check_derivation(alg, dmap, dparity, keys=keys)
    count, want = 0, None
    for tup in canonical_keys(alg, keys, n):
        count += 1
        if alg.coords(reference_derivation_defect(alg, dmap, dparity, tup)):
            want = tup
            break
    assert (drep.ok, drep.instances, drep.witness and drep.witness[0]) == (want is None, count, want)


# -- one ad table per check --------------------------------------------------

def test_repeats_give_vanishing_and_surviving_entries():
    # (u | x): an even repeat vanishes, an odd repeat survives
    V = SuperSpace(QQ, ("u", "x"), (0, 1))
    alg = FiniteNAryAlgebra(V, 2, 0, {(1, 1): V.basis_vector(0)})
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
    # verify S --n 3 --window 3: 165,699 instances; 11,913 distinct brackets
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
        assert len(seen) == len(set(seen)) == len(tables[-1].brackets) == 11913


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
        par, dmap = inner_derivation(alg, tuple(keys[1:alg.arity]))
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
    # at p = 3, 5, 7 constants such as 2, 3 or 4 wrap to balanced ints (2 -> -1 at p = 3)
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
        lifted = tables[-1].brackets
        assert lifted.keys() == rational.keys()
        for ck, v in rational.items():
            assert all(type(c) is int and -p < 2 * c <= p for c in lifted[ck].values())
            assert {k: c % p for k, c in lifted[ck].items()} == {
                k: c % p for k, c in v.items() if c % p}
        if p == 3 and window is not None:  # O(4)'s constants are all +-1
            assert any(lifted[ck] != v for ck, v in rational.items())


def test_prime_field_reduces_a_defect_that_is_nonzero_over_the_integers(monkeypatch):
    # CharPSeed(3, 2): arity 7, integer defect -6, which vanishes mod 3
    sums = []
    survives = nlie._survives
    monkeypatch.setattr(nlie, "_survives", lambda acc, p: sums.append(dict(acc)) or survives(acc, p))
    rep = check_filippov(CharPSeed(3, 2).algebra())
    assert rep.ok and rep.instances == 1
    assert sums == [{0: 6}]  # RHS - LHS over Z
    for p, s in ((5, 1), (3, 1)):
        rep = check_filippov(CharPSeed(p, s).algebra())
        assert not rep.ok and rep.witness[2] == "1*a"


def test_prime_field_witness_is_pinned():
    text = serialize_table(algebra_O(3, GF(7)))
    assert "1 2 3 -> 1*e4\n" in text
    bad = parse_table(text.replace("1 2 3 -> 1*e4\n", "1 2 3 -> 1*e4 + 3*e1\n"))
    rep = check_filippov(bad)
    assert (rep.ok, rep.instances, rep.witness) == (False, 92, ((0, 1), (1, 2, 3), "4*e3"))
    defect = filippov_defect(bad, (0, 1), (1, 2, 3))
    assert defect.coords == {2: GF(7).scalar(4)} and type(defect.coords[2]) is ModP
    assert check_filippov(parse_table(text.replace("1 2 3 -> 1*e4\n",
                                                   "1 2 3 -> 1*e4 + 7*e1\n"))).ok


def test_prime_field_derivation_space_matches_the_rationals():
    for field in (QQ, GF(7)):
        alg = algebra_O(3, field)
        ds = derivation_space(alg)
        assert (ds.dim, ds.inner_dim) == (6, 6)
        for parity, mat in ds.basis:
            assert check_derivation(alg, matrix_dmap(alg, mat), parity).ok
        dmap = matrix_dmap(alg, {(0, 0): field.one()})  # not a derivation
        defect = derivation_defect(alg, dmap, 0, (0, 1, 2))
        assert defect.coords and all(field.check(c) for c in defect.coords.values())


def test_finite_table_is_the_one_bracket_store():
    alg = algebra_O(3)
    table = {k: dict(v.coords) for k, v in alg.table.items()}
    assert check_filippov(alg, mode="full").ok and check_filippov(alg, mode="sorted").ok
    assert {k: v.coords for k, v in alg.table.items()} == table
    assert not hasattr(alg, "_cache")
    # outside callers still get sorted, signed brackets
    assert alg.bracket_keys((2, 1, 0)) == -alg.table[(0, 1, 2)]
    assert alg.bracket_keys((0, 0, 1)).is_zero()
