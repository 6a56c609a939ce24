"""No float ever appears: every division goes through ``Field.div``, the
rational kernels yield only ints and Fractions, GF(p) scalars are ints in
0..p-1, and QQ agrees with GF(p)."""

import ast
import inspect
import json
import os
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from nlielab import liegen, realizations
from nlielab.catalog import algebra_O, algebra_S, algebra_SW, algebra_W
from nlielab.cli import main
from nlielab.fields import GF, QQ, Field
from nlielab.liegen import check_admissible, generate_subalgebra, tables_proportional
from nlielab.linalg import Span, invert_dense, kernel
from nlielab.multilinear import bracket_to_symmetric
from nlielab.nlie import check_filippov, filippov_defect, parse_table, serialize_table
from nlielab.polysuper import SuperPoly
from nlielab.realizations import pair_setup
from nlielab.universal import WElement

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "nlielab")

rationals = st.builds(QQ.scalar, st.integers(-9, 9), st.integers(1, 6))
nonzero_rationals = rationals.filter(bool)


def test_no_division_outside_fields():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "fields.py":
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), name)
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(getattr(node, "op", None), ast.Div)]
    assert found == []


def names_used(names, skip=None):
    """Where the package's code names any of ``names``, outside ``skip``."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == skip:
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            used = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name
                    if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef))
                    else node.value if isinstance(node, ast.Constant) else None)
            if used in names:
                found.append("%s:%d %s" % (name, getattr(node, "lineno", 0), used))
    return found


def test_only_linalg_builds_matrices_or_eliminates():
    # one elimination path: a reduced basis is a ``Span``, elsewhere a
    # kernel is ``linalg.kernel``, and the catalog's one polynomial
    # product is ``SuperPoly``'s
    assert names_used({"SparseMatrix", "rref", "solve_linear", "_poly_mul", "_dmono"}) == []
    assert names_used({"nullspace"}, skip="linalg.py") == []


def test_one_koszul_sorter_and_one_tuple_enumerator():
    # every sign sort is ``multilinear.koszul_sort`` and every list of
    # canonical tuples ``multilinear.canonical_tuples``
    assert names_used({"_insertion_sort_sign", "sort_with_sign_symmetric",
                       "sort_with_sign_alternating", "_sort_even_keys", "perm_sign",
                       "_split_sign", "_merge_xi", "iter_multi_indices",
                       "sorted_key_tuples"}) == []


def test_one_element_format_for_w():
    # an element of W(V) is its flat span coordinates, and a vector or a
    # table value is a coordinate dict: no vector class, no converter,
    # no dense map evaluation (only the tests' oracle evaluates a map
    # densely), no serializer of spaces or maps
    assert names_used({"payload", "from_coords"}) == []
    assert names_used({"SuperVector", "from_vector", "zdegrees", "evaluate_expand",
                       "symmetric_to_bracket", "serialize_map", "parse_map",
                       "serialize_space", "parse_space"}) == []
    # and the product is one scatter pass through the left operand's slot
    # index: no gather over candidate keys, no plug of an inner vector
    assert names_used({"_box_keys", "_plug"}) == []


def test_one_set_of_lie_side_routines_for_both_models():
    # W(V) and the polynomial carriers share the induced table
    # (``liegen.induced_table``), the transitivity kernel
    # (``linalg.annihilator``) and the irreducibility test
    # (``linalg.irreducible``): no pairing-specific reader, no second
    # kernel or envelope, no hand-rolled matrix or span loop
    assert names_used({"_poisson_coords", "_xpoly_coords", "_tagged_coords", "_depth_kernel",
                       "_span_of", "matrix_of_dmap"}) == []
    assert names_used({"envelope_dim", "orbit_span"}, skip="linalg.py") == []
    assert realizations.induced_table is liegen.induced_table
    # and one structure routine (``liegen.structure_of``) over either model
    # of L: only it, its transitivity loop ``universal.is_transitive`` and
    # ``linalg`` name the two kernels, never ``realizations`` or ``cli``
    kernels = names_used({"annihilator", "irreducible"})
    assert {hit.split(":")[0] for hit in kernels} == {"linalg.py", "liegen.py", "universal.py"}
    assert realizations.structure_of is liegen.structure_of
    assert not hasattr(realizations, "graded_dims")
    assert "coords_of" not in realizations.PairSetup.__dataclass_fields__
    # and the options no caller set are gone
    assert names_used({"alt_sign", "gen_slack", "ideal_xdeg", "ideal_failures"}) == []
    assert "limit" not in inspect.signature(check_filippov).parameters
    assert "b" not in inspect.signature(realizations.PoissonRealization).parameters
    assert "beta" not in inspect.signature(realizations.parse_handle).parameters
    assert "xwindow" not in inspect.signature(realizations.split_cases).parameters
    xwindow = inspect.signature(realizations.verify_pair).parameters["xwindow"]
    assert xwindow.default is inspect.Parameter.empty
    assert "sign" not in inspect.signature(SuperPoly.mul_into).parameters
    # and nothing restates what a carrier's ``pairing`` rows or a field's
    # characteristic already say: the shift is read off the rows (only the
    # vector fields, which have none, state theirs), a Field is its p
    assert names_used({"_paired_weights", "npairs"}) == []
    carriers = [cls for cls in vars(realizations).values()
                if isinstance(cls, type) and issubclass(cls, realizations.Carrier)]
    assert [cls for cls in carriers if "_shift" in vars(cls)] == [
        realizations.Carrier, realizations.VectorFieldRealization]
    assert Field.__slots__ == ("p",)


def test_named_carriers_come_from_their_handles():
    # ``parse_handle``'s table is the one map from a carrier's name to its
    # constructor: no other code builds a P/H', PO/SHO' or KO/SKO' carrier
    carriers = {"PoissonRealization", "ButtinRealization", "ContactRealization"}
    assert names_used(carriers, skip="realizations.py") == []
    with open(os.path.join(PACKAGE, "realizations.py")) as fh:
        tree = ast.parse(fh.read())
    builders = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in carriers}
    assert builders == {"parse_handle"}


def test_one_encoding_of_not_decided():
    # a check that decides nothing returns None; only the report renders
    # that, as ``reports.NOT_DECIDED``
    assert names_used({"not_decided"}, skip="reports.py") == []


def test_one_scalar_representation_per_field():
    # a GF(p) scalar is a plain int: no wrapper class, no lift into the kernel
    assert names_used({"ModP", "_lift"}) == []


def assert_exact(values):
    for x in values:
        assert QQ.check(x) and not isinstance(x, float), repr(x)


@given(rationals, nonzero_rationals)
def test_div_is_exact_and_normalized(a, b):
    r = QQ.div(a, b)
    assert_exact([r])
    assert r == Fraction(a) / Fraction(b)
    assert type(r) is int or r.denominator != 1


def rational_vectors(nkeys=6):
    return st.dictionaries(st.integers(0, nkeys - 1), nonzero_rationals, max_size=nkeys)


@given(st.lists(rational_vectors(), max_size=7), rational_vectors())
def test_span_stays_exact(stream, probe):
    s = Span(QQ)
    for vec in stream:
        s.insert(vec)
    for row in s.rows:
        assert_exact(row.values())
    assert_exact(s.reduce(probe).values())


def rational_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(lambda n: st.integers(1, max_dim).flatmap(
        lambda m: st.lists(st.lists(rationals, min_size=m, max_size=m),
                           min_size=n, max_size=n)))


@given(rational_matrices())
def test_elimination_stays_exact(dense):
    span = Span(QQ)
    for r in dense:
        span.insert({j: c for j, c in enumerate(r) if c})
    for row in span.rows:
        assert_exact(row.values())
    columns = [{i: r[j] for i, r in enumerate(dense) if r[j]} for j in range(len(dense[0]))]
    for v in kernel(QQ, columns):
        assert_exact(v.values())


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_invert_dense_stays_exact(dense):
    try:
        inv = invert_dense(QQ, dense)
    except ValueError:
        return  # singular
    for row in inv:
        assert_exact(row)
    n = len(dense)
    for i in range(n):
        for j in range(n):
            assert sum(dense[i][k] * inv[k][j] for k in range(n)) == (i == j)


@given(nonzero_rationals)
def test_tables_proportional_stays_exact(c):
    table = algebra_O(3).table
    scaled = {k: {i: c * x for i, x in v.items()} for k, v in table.items()}
    ok, scalar = tables_proportional(scaled, table, QQ)
    assert ok and scalar == c
    assert_exact([scalar])
    assert type(scalar) is int or scalar.denominator != 1


# -- QQ against GF(p) ------------------------------------------------------

FIELDS = [QQ, GF(10007), GF(10009)]


@pytest.mark.parametrize("n", [3, 4])
def test_generated_dims_agree_over_qq_and_prime_fields(n):
    dims = []
    for field in FIELDS:
        alg = algebra_O(n, field)
        mu = WElement.from_map(bracket_to_symmetric(
            alg.space, alg.arity, alg.bracket_parity, alg.bracket_keys))
        dims.append(check_admissible(mu.space, mu, n + 1).graded_dims)
    assert dims[0] == {j: comb(n + 1, j + 2) for j in range(-1, n)}
    assert dims[1] == dims[0] and dims[2] == dims[0]


def test_window_identity_agrees_over_qq_and_prime_fields(tmp_path, capsys):
    records = []
    for field in FIELDS:
        out = tmp_path / ("%s.json" % field.name.replace(":", "_"))
        code = main(["verify", "S", "--n", "3", "--window", "2",
                     "--field", field.name, "--json", str(out)])
        capsys.readouterr()
        records.append((code, json.loads(out.read_bytes())["checks"]))
    assert records[0][1][0]["status"] == "pass"
    assert records[1] == records[0] and records[2] == records[0]


def test_finite_suite_agrees_over_qq_and_prime_fields(tmp_path, capsys):
    # every record of verify O --n 5, dims and details included
    records = []
    for field in FIELDS:
        out = tmp_path / ("o5-%s.json" % field.name.replace(":", "_"))
        code = main(["verify", "O", "--n", "5", "--field", field.name, "--json", str(out)])
        capsys.readouterr()
        records.append((code, json.loads(out.read_bytes())["checks"]))
    assert records[0][0] == 0 and len(records[0][1]) == 8
    assert all(r["status"] == "pass" for r in records[0][1])
    assert records[1] == records[0] and records[2] == records[0]


def _records_over_fields(tmp_path, capsys, argv):
    records = []
    for field in FIELDS:
        out = tmp_path / ("%s.json" % field.name.replace(":", "_"))
        code = main(argv + ["--field", field.name, "--json", str(out)])
        capsys.readouterr()
        records.append((code, json.loads(out.read_bytes())["checks"]))
    return records


def test_carrier_splits_agree_over_qq_and_prime_fields(tmp_path, capsys):
    # every record of report --xwindow 1, window and derived dims included
    records = _records_over_fields(tmp_path, capsys, ["report", "--xwindow", "1"])
    assert records[0][0] == 0 and len(records[0][1]) == 5
    assert all(r["detail"].startswith("window ") for r in records[0][1])
    assert records[1] == records[0] and records[2] == records[0]


@pytest.mark.parametrize("which", ["i", "ii", "iii", "iv"])
def test_pairings_agree_over_qq_and_prime_fields(tmp_path, capsys, which):
    # the induced scalar prints as a residue over GF(p), so compare verdicts
    records = _records_over_fields(tmp_path, capsys, ["pairs", which, "--n", "3"])
    verdicts = [(code, [(r["name"], r["status"]) for r in checks])
                for code, checks in records]
    assert verdicts[0][0] == 0
    assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]


# -- GF(p) scalars are ints in 0..p-1 ---------------------------------------

PRIME_FIELDS = [GF(2), GF(3), GF(7), GF(10007)]


def assert_in_range(field, values):
    for x in values:
        assert field.check(x), (field, x)


def assert_table_in_range(field, table):
    for val in table.values():
        assert_in_range(field, val.values())


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=lambda f: f.name)
def test_prime_field_scalars_stay_in_range(field):
    for n in (3, 4, 5):
        alg = algebra_O(n, field)
        assert_table_in_range(field, alg.table)
        key = tuple(range(n))
        assert_in_range(field, alg.bracket_keys((key[1], key[0]) + key[2:]).values())
        mu = WElement.from_map(bracket_to_symmetric(
            alg.space, alg.arity, alg.bracket_parity, alg.bracket_keys))
        assert_in_range(field, mu.coords.values())
        if n == 3:
            sub, _ = generate_subalgebra(mu.space, mu)
            for d in sub.degrees():
                for w in sub.basis(d):
                    assert_in_range(field, w.coords.values())
    # window brackets, on sorted and on swapped keys
    for alg in (algebra_S(3, field), algebra_W(3, field), algebra_SW(3, field)):
        keys = alg.window_keys(2)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                for c in keys[:4]:
                    assert_in_range(field, alg.bracket_keys((a, b, c)).values())
                    assert_in_range(field, alg.bracket_keys((b, a, c)).values())
    # the carriers' window elements and their brackets
    for which in ("i", "ii", "iii", "iv"):
        real = pair_setup(which, 3, 1, field).real
        elems = real.window_elements(1)
        vecs = [real.vectorize(e) for e in elems]
        for v in vecs:
            assert_in_range(field, v.values())
        for e in elems[:6]:
            for f in elems:
                assert_in_range(field, real.vectorize(real.bracket(e, f)).values())
        # Span rows, from the window and from ints outside 0..p-1
        span = Span(field)
        for v in vecs:
            span.insert(v)
        span.insert({k: -3 * field.p - 1 for k in vecs[0]})
        for row in span.rows:
            assert_in_range(field, row.values())
    # filippov_defect on a table that breaks the identity
    text = serialize_table(algebra_O(3, field)).replace("1 2 3 -> 1*e4\n",
                                                        "1 2 3 -> 1*e4 + 1*e1\n")
    bad = parse_table(text)
    defects = [filippov_defect(bad, (0, 1), b) for b in ((1, 2, 3), (0, 2, 3), (0, 1, 3))]
    assert any(defects)
    for d in defects:
        assert_in_range(field, d.values())
    # the scalar of tables_proportional
    table = algebra_O(3, field).table
    c = field.coerce(-1)
    scaled = {k: field.reduced({i: c * x for i, x in v.items()}) for k, v in table.items()}
    ok, scalar = tables_proportional(scaled, table, field)
    assert ok and scalar == c
    assert_in_range(field, [scalar])


def test_parse_table_sums_repeated_terms_mod_p():
    alg = parse_table("3 fp:7 4 eeee\n1 2 3 -> 3*e1 + 4*e1\n1 2 4 -> 5*e3 + 6*e3\n")
    assert alg.bracket_keys((0, 1, 2)) == {}
    assert alg.bracket_keys((0, 1, 3)) == {2: 4}
