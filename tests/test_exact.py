"""No float ever appears: every division goes through ``Field.div``, the
rational kernels yield only ints and Fractions, and QQ agrees with GF(p)."""

import ast
import json
import os
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from nlielab.catalog import algebra_O
from nlielab.cli import main
from nlielab.fields import GF, QQ
from nlielab.liegen import check_admissible, tables_proportional
from nlielab.linalg import Span, invert_dense, kernel
from nlielab.multilinear import bracket_to_symmetric
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
    # an element of W(V) is its flat span coordinates; the dense map
    # evaluation is left to ``multilinear`` and the tests' oracle
    assert names_used({"payload", "from_coords"}) == []
    assert names_used({"evaluate_expand"}, skip="multilinear.py") == []
    # and the product is one scatter pass through the left operand's slot
    # index: no gather over candidate keys, no plug of an inner vector
    assert names_used({"_box_keys", "_plug"}) == []


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
    scaled = {k: v.scale(c) for k, v in table.items()}
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
