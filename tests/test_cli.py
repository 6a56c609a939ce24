"""Command line behavior: records, exit codes, deterministic output."""

import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
from itertools import product

import pytest

from nlielab import cli, realizations
from nlielab.catalog import algebra_O
from nlielab.cli import build_parser, main
from nlielab.fields import GF
from nlielab.nlie import serialize_table

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(argv, check_code=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "nlielab"] + argv,
        capture_output=True,
        text=True,
        env=env,
    )
    if check_code is not None:
        assert proc.returncode == check_code, proc.stderr or proc.stdout
    return proc


def test_verify_runs_the_finite_suite(capsys):
    code = main(["verify", "O", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] filippov_jacobi: 1024 instances, exhaustive" in out
    assert "[PASS] pair_graded_dims: {-1: 4, 0: 6, 1: 4, 2: 1}, 3 rounds, closed yes" in out
    assert "[PASS] truncation_structure" in out
    assert "[PASS] seed_relations: 11 basis descendants, self bracket zero: True" in out
    assert "8 passed, 0 failed, 0 not decided" in out


def test_verify_o7_closes_on_the_exterior_powers(capsys):
    # the generated algebra of O(7) has L_j = Lambda^(j+2) of the 8-dim space
    assert main(["verify", "O", "--n", "7"]) == 0
    out = capsys.readouterr().out
    dims = ", ".join("%d: %d" % (j, math.comb(8, j + 2)) for j in range(-1, 7))
    assert re.search(r"\[PASS\] pair_graded_dims: \{%s\}, \d+ rounds, closed yes" % dims, out)
    assert "[PASS] seed_relations: 247 basis descendants" in out
    assert "8 passed, 0 failed, 0 not decided" in out


def _stop_short(monkeypatch, escape=None):
    # the same closure, reported as stopped short of its fixpoint, with
    # one more nonzero degree pair recorded when ``escape`` is given
    def stopped(space, mu, cap=None):
        sub, trace = cli_generate(space, mu, cap)
        nonzero = trace.nonzero | ({escape} if escape else set())
        return sub, dataclasses.replace(trace, reached_fixpoint=False, nonzero=nonzero)

    cli_generate = cli.generate_subalgebra
    monkeypatch.setattr(cli, "generate_subalgebra", stopped)


def test_a_generation_without_fixpoint_decides_nothing(monkeypatch, capsys):
    # more elements may still appear: every record read off the closure
    # is open, not passed; only the identity and the seed relations stand
    _stop_short(monkeypatch)
    assert main(["verify", "O", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "[----] pair_graded_dims: {-1: 4, 0: 6, 1: 4, 2: 1}, 3 rounds, closed no" in out
    for name in ("truncation_structure", "pair_transitive", "pair_top_centralizes",
                 "pair_top_is_line", "pair_irreducible"):
        assert "[----] " + name in out
    assert "2 passed, 0 failed, 6 not decided" in out


def test_an_escape_is_a_standing_failure(monkeypatch, capsys):
    # a nonzero bracket above the top stays in every larger closure: the
    # dims and the truncation fail even without a fixpoint
    _stop_short(monkeypatch, escape=(1, 2))
    assert main(["verify", "O", "--n", "3"]) == 1
    out = capsys.readouterr().out
    assert ("[FAIL] pair_graded_dims: {-1: 4, 0: 6, 1: 4, 2: 1}, 3 rounds, closed no\n"
            "       witness: [degree 1, degree 2] bracket lands above degree 2") in out
    assert "[FAIL] truncation_structure: vanishing above top False" in out
    assert "[----] pair_transitive" in out


@pytest.mark.parametrize("top_dim,top_status", [(2, "FAIL"), (1, "----")])
def test_a_generation_without_fixpoint_keeps_lasting_failures(
        monkeypatch, capsys, top_dim, top_status):
    # a kernel element, a degree-0 element moving mu and a top of dim >= 2
    # stay in any larger closure; a reducible action may not
    def failing(space, mu, cap=None, *, generated=None):
        adm = cli_admissible(space, mu, cap, generated=generated)
        return dataclasses.replace(
            adm, transitive=False, mu_centralizes_degree_zero=False, top_is_line=False,
            irreducible=False, graded_dims={**adm.graded_dims, 2: top_dim})

    _stop_short(monkeypatch)
    cli_admissible = cli.check_admissible
    monkeypatch.setattr(cli, "check_admissible", failing)
    assert main(["verify", "O", "--n", "3"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] pair_transitive" in out
    assert "[FAIL] pair_top_centralizes" in out
    assert "[%s] pair_top_is_line" % top_status in out
    assert "[----] pair_irreducible" in out


def test_verify_json_is_byte_identical_across_runs(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run_cli(["verify", "O", "--n", "3", "--json", str(out1)], check_code=0)
    run_cli(["verify", "O", "--n", "3", "--json", str(out2)], check_code=0)
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["command"] == "verify"
    assert all(c["status"] == "pass" for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)


def test_verify_window_algebras(capsys):
    code = main(["verify", "S", "--n", "3", "--window", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] filippov_jacobi" in out
    assert "[----] pair_admissible" in out


def test_verify_over_a_prime_field(capsys):
    assert main(["verify", "O", "--n", "3", "--field", "fp:7"]) == 0
    out = capsys.readouterr().out
    assert "field=fp:7" in out


def test_verify_loaded_table_good_and_corrupted(tmp_path, capsys):
    alg = algebra_O(3)
    text = serialize_table(alg)
    good = tmp_path / "good.nlie"
    good.write_text(text)
    assert main(["verify", "--table", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.nlie"
    bad.write_text(text.replace("1 2 3 -> 1*e4", "1 2 3 -> 1*e4 + 1*e1"))
    code = main(["verify", "--table", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] filippov_jacobi" in out
    assert "witness:" in out


def test_verify_custom_form(tmp_path, capsys):
    form = tmp_path / "form.txt"
    form.write_text("2 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    assert main(["verify", "O", "--n", "3", "--form", str(form)]) == 0
    capsys.readouterr()


def test_pairs_command(capsys):
    code = main(["pairs", "i", "--n", "3", "--xwindow", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] induced_bracket_matches_catalog: scalar -1 over 4 tuples" in out
    assert "[PASS] realization: H'(0,4) against O^3" in out


def test_pairs_window_only_irreducibility_is_open(capsys):
    code = main(["pairs", "ii", "--n", "3", "--xwindow", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[----] depth_module_irreducible" in out


@pytest.mark.parametrize("which, xwindow, kernel", [
    ("ii", 1, 3), ("iii", 0, 2), ("iv", 0, 1)])
def test_pairs_window_artefacts_are_not_decided(capsys, which, xwindow, kernel):
    # L_-1 of pairings ii-iv is infinite: a degree-0 kernel on a small
    # depth window, and a catalog match over no tuple, decide nothing
    code = main(["pairs", which, "--n", "3", "--xwindow", str(xwindow)])
    out = capsys.readouterr().out
    assert code == 0
    assert ("[----] window_transitive: degree 0: %d-dim kernel against the depth "
            "window of an infinite L_-1" % kernel) in out
    assert "[----] induced_bracket_matches_catalog: no catalog tuple on the depth window" in out
    assert "3 passed, 0 failed, 3 not decided" in out


def test_pairs_kernel_on_a_finite_depth_module_fails(monkeypatch, capsys):
    # pairing i's window is all of L_-1, so a kernel there is a failure
    monkeypatch.setattr(realizations, "_depth_kernel", lambda real, basis, lm1: len(basis))
    assert main(["pairs", "i", "--n", "3", "--xwindow", "0"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] window_transitive: degree 0: 6-dim kernel against the depth module" in out
    assert main(["pairs", "ii", "--n", "3", "--xwindow", "2"]) == 0
    assert "[----] window_transitive: degree 0:" in capsys.readouterr().out


def test_charp_exhibits_the_violation_and_the_control_fails(capsys):
    code = main(["charp", "--p", "3", "--s", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[PASS] fj_residue_zero: residue 0 at arity 7" in out
    assert "[PASS] bound_violation_exhibited" in out
    assert "degree 11 > 6" in out
    assert "[FAIL] rational_control_truncates" in out
    assert "bound exceeded" in out


def test_charp_even_arity_is_reported_only(capsys):
    code = main(["charp", "--p", "3", "--s", "1", "--cap", "9"])
    out = capsys.readouterr().out
    assert "[----] fj_residue_zero" in out
    assert code == 1  # the rational control still fails honestly


def test_report_command(capsys):
    code = main(["report", "--xwindow", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] split_H'(0,4)" in out
    assert "[PASS] split_S'(1,2)" in out
    assert "[----] split_SKO'(3,4;1/3)" in out
    assert "reported without assertion" in out


def test_report_over_a_field_without_one_third_is_a_usage_error(capsys):
    # the reported SKO'(3,4;1/3) case needs beta = 1/3
    assert main(["report", "--xwindow", "0", "--field", "fp:3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: the SKO'(3,4;1/3) case needs beta = 1/3, which fp:3 lacks"]


def test_usage_errors_exit_two(tmp_path):
    assert main([]) == 2
    assert main(["verify"]) == 2  # selector or table required
    assert main(["verify", "O", "--field", "fp:9"]) == 2
    assert main(["verify", "O", "--field", "z"]) == 2
    assert main(["verify", "O", "--n", "1"]) == 2
    assert main(["verify", "--table", str(tmp_path / "missing.nlie")]) == 2
    assert main(["charp", "--p", "6"]) == 2
    assert main(["pairs", "i", "--n", "2"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["verify", "S", "--n", "3", "--window", "1", "--form", "FORM"],
     "--form applies to selector O only"),
    (["verify", "--table", "TABLE", "--form", "FORM"], "--form applies to selector O only"),
    (["verify", "O", "--n", "3", "--window", "5"],
     "--window applies to selectors S, W and SW only"),
    (["verify", "--table", "TABLE", "--window", "2"],
     "--window applies to selectors S, W and SW only"),
    (["verify", "O", "--table", "TABLE"], "give a selector or --table, not both"),
    (["verify", "--table", "TABLE", "--field", "fp:7"],
     "--field fp:7 disagrees with the table's field q"),
    (["verify", "--table", "TABLE", "--n", "5"], "--n 5 disagrees with the table's arity 3"),
], ids=["form_with_S", "form_with_table", "window_with_O", "window_with_table",
        "selector_with_table", "field_against_table", "n_against_table"])
def test_options_that_do_not_apply_are_one_line_usage_errors(tmp_path, capsys, argv,
                                                              message):
    # the inputs are valid, so only the combination is refused
    table, form = tmp_path / "o3.nlie", tmp_path / "form.txt"
    table.write_text(serialize_table(algebra_O(3)))
    form.write_text("2 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    argv = [{"TABLE": str(table), "FORM": str(form)}.get(a, a) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_table_header_echoes_the_tables_own_field_and_arity(tmp_path, capsys):
    table = tmp_path / "o4.nlie"
    table.write_text(serialize_table(algebra_O(4, GF(7))))
    outs = []
    for extra in ([], ["--field", "fp:7"], ["--n", "4"], ["--field", "fp:7", "--n", "4"]):
        assert main(["verify", "--table", str(table)] + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0].startswith("verify (field=fp:7, n=4, seed=0, table=")
    assert outs == outs[:1] * 4
    for extra, message in ((["--field", "q"], "--field q disagrees with the table's field fp:7"),
                           (["--n", "3"], "--n 3 disagrees with the table's arity 4")):
        assert main(["verify", "--table", str(table)] + extra) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


def test_negative_window_is_a_one_line_usage_error(capsys):
    for argv in (["pairs", "i", "--n", "3", "--xwindow", "-1"], ["report", "--xwindow", "-1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --xwindow must be at least 0\n"


def test_negative_verify_window_is_a_one_line_usage_error(capsys):
    assert main(["verify", "S", "--n", "3", "--window", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --window must be at least 0\n"
    # window 0 stays valid: W(3) keeps its one constant key there
    assert main(["verify", "W", "--n", "3", "--window", "0"]) == 0
    assert "1 instances over 1 window keys (degree <= 0)" in capsys.readouterr().out


def test_unwritable_json_path_is_a_one_line_usage_error(tmp_path, capsys):
    # a directory cannot be opened for writing
    assert main(["verify", "O", "--n", "3", "--json", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_empty_identity_window_is_not_decided(tmp_path, capsys):
    # S(3) has no window key of degree 0: no instance, no verdict
    out = tmp_path / "s0.json"
    assert main(["verify", "S", "--n", "3", "--window", "0", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[----] filippov_jacobi: 0 instances over 0 window keys (degree <= 0)" in text
    assert "0 passed, 0 failed, 2 not decided" in text
    record = json.loads(out.read_bytes())["checks"][0]
    assert (record["name"], record["status"]) == ("filippov_jacobi", "not_decided")


def test_table_identity_detail_names_the_mode(tmp_path, capsys):
    for n, mode in ((3, "exhaustive"), (5, "sorted")):
        table = tmp_path / ("o%d.nlie" % n)
        table.write_text(serialize_table(algebra_O(n)))
        assert main(["verify", "--table", str(table)]) == 0
        assert ("on a %d-dim table of arity %d, %s" % (n + 1, n, mode)
                in capsys.readouterr().out)


def test_charp_cap_below_the_arity_is_a_one_line_usage_error(capsys):
    # s=1, p=3 gives arity n = 4
    for cap in ("-3", "0", "3"):
        assert main(["charp", "--p", "3", "--s", "1", "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cap must be at least the arity n = 4\n"
    assert main(["charp", "--p", "3", "--s", "1", "--cap", "4"]) == 1
    assert "rational_control_truncates" in capsys.readouterr().out


@pytest.mark.parametrize("edit, message", [
    (("1 2 3 -> 1*e4", "1 2 3 -> 1/0*e4"), "error: zero denominator in '1/0'\n"),
    (("1 2 3 -> 1*e4", "0 2 3 -> 1*e4"),
     "error: key index out of range 1..4 in '0 2 3 -> 1*e4'\n"),
    (("1 2 3 -> 1*e4", "1 2 3 -> 1*e5"), "error: basis label 'e5' out of range e1..e4\n"),
    (("1 2 3 -> 1*e4", "1 2 3 -> 1*e4\n1 2 3 -> 5*e1\n1 2 3 -> 1*e4"),
     "error: repeated key in '1 2 3 -> 5*e1'\n"),
    # e4 is odd and e1 even, so the first value has no parity
    (("3 q 4 eeee\n1 2 3 -> 1*e4", "3 q 4 eeeo\n1 2 3 -> 1*e4 + 1*e1"),
     "error: value at key (e1, e2, e3) mixes parities\n"),
], ids=["zero_denominator", "key_index_zero", "label_past_dim", "repeated_key",
        "mixed_parity_value"])
def test_bad_table_entries_are_one_line_usage_errors(tmp_path, capsys, edit, message):
    table = tmp_path / "bad.nlie"
    table.write_text(serialize_table(algebra_O(3)).replace(*edit))
    assert main(["verify", "--table", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_argparse_rejects_unknown_selectors():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "Q"])
    assert exc.value.code == 2


def readme_examples():
    """Every ``nlielab ...`` command in README's code blocks, once for
    each value of the shell ``for`` loops around it."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = re.findall(r"```[^\n]*\n(.*?)```", fh.read(), re.S)
    commands = []
    for line in (ln for block in blocks for ln in block.splitlines()):
        m = re.search(r"nlielab ([^;#]*)", line)
        if not m:
            continue
        loops = re.findall(r"for (\w+) in ([^;]+);", line)
        for values in product(*(vals.split() for _, vals in loops)):
            cmd = m.group(1)
            for (name, _), value in zip(loops, values):
                cmd = cmd.replace("$" + name, value)
            commands.append(shlex.split(cmd))
    return commands


def test_readme_examples_parse():
    # a stale flag in the docs (such as a removed option) fails here
    examples = readme_examples()
    assert len(examples) >= 20
    for argv in examples:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail("README example does not parse: nlielab %s" % " ".join(argv))
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "O", "--n", "3", "--cap", "5"])


def test_module_entry_point():
    proc = run_cli(["verify", "O", "--n", "3"], check_code=0)
    assert "filippov_jacobi" in proc.stdout
