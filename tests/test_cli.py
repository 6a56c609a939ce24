"""Command line behavior: records, exit codes, deterministic output."""

import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from itertools import product

import pytest

from nlielab import cli, liegen, realizations, universal
from nlielab.catalog import algebra_O
from nlielab.cli import build_parser, main
from nlielab.fields import GF, field_from_name
from nlielab.liegen import Structure
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
    # one more nonzero degree pair recorded when ``escape`` is given; it
    # is what generate_subalgebra stores on mu, so every check reads it
    def stopped(space, mu, cap, pairwise):
        sub, trace = closure(space, mu, cap, pairwise)
        nonzero = trace.nonzero | ({escape} if escape else set())
        return sub, dataclasses.replace(trace, reached_fixpoint=False, nonzero=nonzero)

    closure = liegen._closure
    monkeypatch.setattr(liegen, "_closure", stopped)


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
    def failing(space, mu, cap=None):
        adm = cli_admissible(space, mu, cap)
        return dataclasses.replace(adm, structure=Structure(
            top_dim, False, ("u", "[mu, u]"), (0, 1, None), (False, (0, 1))))

    _stop_short(monkeypatch)
    cli_admissible = cli.check_admissible
    monkeypatch.setattr(cli, "check_admissible", failing)
    assert main(["verify", "O", "--n", "3"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] pair_transitive" in out
    assert "[FAIL] pair_top_centralizes" in out
    assert "[%s] pair_top_is_line" % top_status in out
    assert "[----] pair_irreducible" in out


@pytest.mark.parametrize("escape", [False, None, (1, 2)], ids=["closed", "open", "escape"])
def test_every_structure_record_reads_one_closure(monkeypatch, escape):
    # the admissibility, truncation and seed-relation records of one run
    # read one trace, the one stored on mu, also when it is not closed
    traces = []

    def admissible(space, mu, cap=None):
        adm = cli_admissible(space, mu, cap)
        traces.append(adm.generation)
        return adm

    def proved(mu, sub, trace):
        traces.append(trace)
        return sweep_proved(mu, sub, trace)

    cli_admissible, sweep_proved = cli.check_admissible, liegen._sweep_proved
    monkeypatch.setattr(cli, "check_admissible", admissible)
    monkeypatch.setattr(liegen, "_sweep_proved", proved)
    if escape is not False:
        _stop_short(monkeypatch, escape)
    main(["verify", "O", "--n", "3"])
    assert len(traces) == 3 and traces[1] is traces[0] and traces[2] is traces[0]
    assert traces[0].closed is (escape is False)


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


def test_verify_over_a_17_digit_prime_starts_at_once(capsys):
    # a deterministic Miller-Rabin decides P; trial division took seconds
    start = time.perf_counter()
    assert main(["verify", "O", "--n", "3", "--field", "fp:10000000000000061"]) == 0
    assert time.perf_counter() - start < 2
    assert "field=fp:10000000000000061" in capsys.readouterr().out
    assert main(["verify", "O", "--n", "3", "--field", "fp:%d" % 10 ** 30]) == 2
    assert "below" in capsys.readouterr().err


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
    monkeypatch.setattr(universal, "annihilator", lambda field, images: [{}] * len(images))
    assert main(["pairs", "i", "--n", "3", "--xwindow", "0"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] window_transitive: degree 0: 6-dim kernel against the depth module" in out
    assert main(["pairs", "ii", "--n", "3", "--xwindow", "2"]) == 0
    assert "[----] window_transitive: degree 0:" in capsys.readouterr().out


def test_pairs_term_off_the_depth_component_is_a_mismatch(monkeypatch, capsys):
    # the induced table is read in carrier coordinates: a bracket that
    # leaves a term outside degree -1 is a failed comparison (exit 1),
    # not a usage error
    bracket = realizations.ButtinRealization.bracket

    def leaky(self, f, g):
        h = bracket(self, f, g)
        if h.terms and not any(xis for _, xis in h.terms):
            h = h + self.ring.xi(1)
        return h

    monkeypatch.setattr(realizations.ButtinRealization, "bracket", leaky)
    assert main(["pairs", "ii", "--n", "3", "--xwindow", "2"]) == 1
    assert ("[FAIL] induced_bracket_matches_catalog: mismatch at "
            "((0, 0, 1), (0, 1, 0), (1, 0, 1))") in capsys.readouterr().out


def test_charp_exhibits_the_violation_and_the_control_fails(capsys):
    code = main(["charp", "--p", "3", "--s", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[PASS] fj_residue_zero: residue 0 at arity 7" in out
    assert "[PASS] bound_violation_exhibited" in out
    assert "degree 11 > 6" in out
    assert "[FAIL] rational_control_truncates" in out
    assert "bound exceeded" in out


def test_charp_even_arity_passes_the_identity(capsys):
    code = main(["charp", "--p", "3", "--s", "1", "--cap", "9"])
    out = capsys.readouterr().out
    assert "[PASS] fj_residue_zero: residue 0 at arity 4 over fp:3\n" in out
    assert code == 1  # the rational control still fails honestly


@pytest.mark.parametrize("field", ["fp:3", "fp:2", "q", "fp:4"])
def test_charp_field_is_a_one_line_usage_error(field, capsys):
    # charp's field is fp:P from --p; a --field would go unread
    assert main(["charp", "--p", "2", "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_charp_help_does_not_offer_field(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charp", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--p P" in out and "--json PATH" in out
    assert "--field" not in out


@pytest.mark.parametrize("command,default", [
    ("verify", "monomial degree window (default 3)"),
    ("pairs", "x-degree window (default 2)"),
    ("report", "x-degree window (default 2)")])
def test_window_help_states_the_default(command, default, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert default in " ".join(capsys.readouterr().out.split())


def test_report_command(capsys):
    code = main(["report", "--xwindow", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] split_H'(0,4)" in out
    assert "[PASS] split_S'(1,2)" in out
    assert "[----] split_SKO'(3,4;1/3)" in out
    assert "reported without assertion" in out


def test_report_prints_the_codimension_of_a_failing_split(capsys):
    # over GF(2) the window of S'(1,2) is its derived part plus three lines
    assert main(["report", "--xwindow", "1", "--field", "fp:2"]) == 1
    out = capsys.readouterr().out
    assert ("[FAIL] split_S'(1,2): window 17 = 14 + 3, complement outside derived: True, "
            "ideal 238/238\n") in out


def test_report_over_a_field_without_one_third_is_a_usage_error(capsys):
    # the reported SKO'(3,4;1/3) case needs beta = 1/3
    assert main(["report", "--xwindow", "0", "--field", "fp:3"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: the SKO'(3,4;1/3) case needs beta = 1/3, which fp:3 lacks"]


def test_internal_errors_exit_three_with_one_line(tmp_path, monkeypatch, capsys):
    # exit 1 means a check failed, so a broken invariant must not reach it
    def broken(xwindow, field):
        raise RuntimeError("S'(1,2): a slack element is not x-homogeneous")

    monkeypatch.setattr(cli, "check_splits", broken)
    path = tmp_path / "report.json"
    assert main(["report", "--xwindow", "0", "--json", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and not path.exists()
    assert err.splitlines() == [
        "internal error: RuntimeError(\"S'(1,2): a slack element is not x-homogeneous\")"]


@pytest.mark.parametrize("argv", [["verify", "O", "--n", "3"], ["charp", "--p", "3"]],
                         ids=["pass", "fail"])
def test_a_closed_stdout_exits_141_with_one_line(argv):
    # a reader that closes the pipe first: exit 1 would read as a failed
    # check, and the flush at interpreter exit must not raise again
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run([sys.executable, "-m", "nlielab"] + argv, stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr.splitlines() == ["error: stdout closed before the report was written"]


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


def test_odd_bracket_table_fails_the_koszul_law(tmp_path, capsys):
    # the bracket is odd, so ad_e1 is: [e1, [e1, e2]] = [e1, e3] = e2, while
    # the right side is -([[e1, e1], e2] + [e1, [e1, e2]]) = -e2
    table = tmp_path / "odd.nlie"
    table.write_text("2 q 3 eeo\n1 2 -> 1*e3\n1 3 -> 1*e2\n")
    path = tmp_path / "odd.json"
    assert main(["verify", "--table", str(table), "--json", str(path)]) == 1
    assert "       witness: [[0], [0, 1], '2*e2']\n" in capsys.readouterr().out
    record = json.loads(path.read_bytes())["checks"][0]
    assert (record["status"], record["witness"]) == ("fail", [[0], [0, 1], "2*e2"])


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
    # int() would read these as 10, 1 and e1, and the table would pass
    (("1 2 3 -> 1*e4", "1 2 3 -> 1_0*e4"),
     "error: bad integer literal '1_0' in '1 2 3 -> 1_0*e4'\n"),
    (("1 2 3 -> 1*e4", "1 2 3 -> \u0661*e4"),
     "error: bad integer literal '\u0661' in '1 2 3 -> \u0661*e4'\n"),
    (("1 2 3 -> 1*e4", "1 2 3 -> 1*e\u0661"),
     "error: bad integer literal '\u0661' in '1 2 3 -> 1*e\u0661'\n"),
    (("1 2 3 -> 1*e4", "1 2 \u0663 -> 1*e4"),
     "error: bad integer literal '\u0663' in '1 2 \u0663 -> 1*e4'\n"),
    (("3 q 4 eeee", "3 q 4_ eeee"), "error: bad integer literal '4_' in '3 q 4_ eeee'\n"),
    (("1 2 3 -> 1*e4", "1 2 3 -> 1*e"), "error: bad integer literal '' in '1 2 3 -> 1*e'\n"),
], ids=["zero_denominator", "key_index_zero", "label_past_dim", "repeated_key",
        "mixed_parity_value", "underscored_coefficient", "arabic_indic_coefficient",
        "arabic_indic_label", "arabic_indic_key", "underscored_dim", "empty_label_index"])
def test_bad_table_entries_are_one_line_usage_errors(tmp_path, capsys, edit, message):
    table = tmp_path / "bad.nlie"
    table.write_text(serialize_table(algebra_O(3)).replace(*edit))
    assert main(["verify", "--table", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_non_ascii_and_underscored_literals_are_one_line_usage_errors(tmp_path, capsys):
    form = tmp_path / "form.txt"
    form.write_text("2 0 0 0\n0 1 0 0\n0 0 1_0 0\n0 0 0 \u0661\n")
    for argv, message in (
            (["verify", "O", "--n", "3", "--form", str(form)],
             "bad integer literal '1_0' in '0 0 1_0 0'"),
            (["verify", "O", "--n", "3", "--field", "fp:1_1"], "bad integer literal '1_1'")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: %s\n" % message)
    form.write_text("2 0 0 0\n0 1 0 0\n0 0 1/3 0\n0 0 0 -1\n")
    assert main(["verify", "O", "--n", "3", "--form", str(form)]) == 0


@pytest.mark.parametrize("literal", ["1_0", "\u0663"], ids=["underscored", "arabic_indic"])
@pytest.mark.parametrize("argv", [
    ["verify", "S", "--n", "{}"], ["verify", "S", "--window", "{}"],
    ["verify", "O", "--seed", "{}"], ["pairs", "i", "--n", "{}"],
    ["pairs", "i", "--xwindow", "{}"], ["charp", "--p", "{}"], ["charp", "--p", "3", "--s", "{}"],
    ["charp", "--p", "3", "--cap", "{}"], ["report", "--xwindow", "{}"]],
    ids=lambda argv: "_".join(argv[:-1]))
def test_int_options_refuse_non_ascii_and_underscored_literals(capsys, argv, literal):
    # int() reads these as 10 and 3, so a typo could start a huge run
    assert main([a.format(literal) for a in argv]) == 2
    assert capsys.readouterr() == ("", "error: bad integer literal %r\n" % literal)


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


def test_readme_quick_start_runs(capsys):
    # the bracket_to_symmetric -> WElement.from_map path of the benchmark's
    # generation workload, as the README shows it
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        block = re.search(r"## Quick start\s+```python\n(.*?)```", fh.read(), re.S).group(1)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["rep"].graded_dims == {-1: 4, 0: 6, 1: 4, 2: 1}
    assert capsys.readouterr().out.splitlines()[-1] == "{-1: 4, 0: 6, 1: 4, 2: 1}"


def test_module_entry_point():
    proc = run_cli(["verify", "O", "--n", "3"], check_code=0)
    assert "filippov_jacobi" in proc.stdout


# sha256 of stdout and of the --json file, with the exit code, of prime-field
# runs whose scalars reach the reports (witnesses, scalars, residues), of
# the split reports that the pair cuts of check_split must not move, and
# of QQ split and pair runs whose graded pieces and windows are read off one
# constraint kernel (at --xwindow 1 the ideal sample is the window itself),
# and of QQ pair and finite-suite runs whose carriers are built from their
# handles and whose tables pass ``multilinear.checked_table``, and of S, W
# and pair runs at arities where the determinant walk prunes its rows and
# the induced table shares its tuples' prefixes
GOLDEN = [
    ("verify O --n 4 --field fp:7", 0,
     "84b9ab25c77fb8f3851ea85607e6719213b9bae945619960cc1e6bd0659f8a53",
     "0db5f3c5f2710c8fed965e31a72847633f4421fd930a45061763ed376faab6d0"),
    ("verify S --n 3 --window 2 --field fp:3", 0,
     "74deb3410bc6d770c2fffbc9679a2ab6f1ef9b8086859f1d10d4ae18b80d49e7",
     "6b66ab4b8cac3555201787094c4c39c4465e80bff4c49caefefd56b6e34e721b"),
    ("verify S --n 3 --window 2 --field fp:7", 0,
     "626ca3ee5ed01e1cc1b5eec82078a5523610a1710165f092222020df6d0a373f",
     "774b52edafa8d4b24b89ae7a4b8160134208b6208b8d57a26d04be3953dd4ab3"),
    ("verify W --n 3 --window 2 --field fp:3", 0,
     "c27564c57bdcee501a4aaed37d17c2ac615ef574a2dbbd5068466315ca82af40",
     "57a7eb3eace76f820616b5d58f6062d270bdb524bd2b62b2935f94950c8e941e"),
    ("verify W --n 3 --window 2 --field fp:7", 0,
     "a315811698c0e3ec5c8119180184199b6111dce9c3141805c6e285c0728d62bb",
     "8943b9431740875c075fd5612a50d92f2825951a51b9dc9a9ff418dc94ab856e"),
    ("verify SW --n 3 --window 2 --field fp:3", 0,
     "de144b788b62ecd0b67431496f1f3ab2295c81bee636957195e7b7e64f690728",
     "3cc4b13539065a29044205a72e53daf104b4c96fe896a9d66562fc8d81a3a3e9"),
    ("verify SW --n 3 --window 2 --field fp:7", 0,
     "578fb409d3100710362b616387d267b157fa7bd726e2eeb79b7b79252252e7a5",
     "ca5648ce0830ec4f0ceb1514253494f6bdb9f1dd457e160a3ec55dadc4444bde"),
    ("pairs i --n 3 --field fp:2", 0,
     "b7567da6011a96aaaa6708230881a5bb304ec127fce59c3a98f0913d1d56cbec",
     "d00179e649f1a165fd112376ddf52accf66990a4a100412ac58d6d03e74f2ed7"),
    ("pairs i --n 3 --field fp:7", 0,
     "4b562759062a361ab3aa8d3d8b76ee57602be80e57464eddca2f4a4aae453952",
     "364560ad489ccbe99ec8638b9964c78574d15b3100f7e1b8f6825e41430e6c65"),
    ("pairs ii --n 3 --field fp:2", 1,
     "9b05ca3acb28a6f09786d6ddce9a86b4f1def1ec10dcd49c5dd70fa5499b3fae",
     "1a9985ad7d832e945cee76d42d32e5fb99f55640f4b8405aaa0d209b2c71b855"),
    ("pairs ii --n 3 --field fp:7", 0,
     "43deba4cfcd3b199f04470be147315a52ca1c468c8a526520c38578f4de366f0",
     "0fddf9771b35307dc818a394f0c565c77382629475782bf89d24df415b3b8942"),
    ("pairs iii --n 3 --field fp:2", 1,
     "a5eb3a70ddba162ba62c5295090a290d3c47345347b757f0bc3aeb6ba6dad8ea",
     "bf2a4969af36f7a4dcd5bcb829414d5e5d9a482b607e0fccae8793820d42caeb"),
    ("pairs iii --n 3 --field fp:7", 0,
     "59170d63950b53de784178610425fdde5e59984ccb27288fa35c00610efc7e96",
     "3fdba6ad52ebca7f853a39b358e3c755d985c20f53bbfbba177613bf1213297b"),
    ("pairs iv --n 3 --field fp:2", 1,
     "e47394ccaf1b4d373f1fcde712280ba74f34ded06639c9b2c9b59d3a72b0170a",
     "4e2f763d4d6ffeb09b351c33407e6c634a0482671946b61b64c55b450ddc3fd3"),
    ("pairs iv --n 3 --field fp:7", 0,
     "f45ea0470e904de9d417ee6a2dd66dfecb2a46a6df5be931797f50ad9662e144",
     "c5071216d64cb4e52cfb2f53f569f383c8ba206c1f44521b35f1d9ef21a272a4"),
    ("pairs ii --n 4", 0,
     "4e42f31bc1b9a363f83735d3f36737375d446150c6dd1c902385c9b084b46106",
     "90bb97f6f3627bd42783951785ae1406350f441c9b96c4d5cb3995547ebb0b5a"),
    ("pairs iii --n 4", 0,
     "d323bddcd54a43e5406f5660f2564111bf5146a6c6924a39d1b91f4673d5d288",
     "410e870fd687712a896f525d38956a50ede7366ae27d55cf5b3a527c612a9bf6"),
    ("pairs i --n 4", 0,
     "b02e21a893f072c79e2255b293d9ab12506959e64d2f1a7f365f46a736c6b182",
     "c565a045e2e92b13783d0dc1643008a3696c2e8402084336659507c310278014"),
    ("pairs iv --n 4", 0,
     "ea151d064001899af571f29506f191f930f755c863096849863f3ee561f1a78b",
     "8969439e1008e89d8139af91f4dd82b42b6e2692192bf39e048442e813a297fc"),
    ("verify O --n 5", 0,
     "73f88265281b88482657697443c242fdf6e04dcbfb5f1f7ca5d18a8902c4e9fa",
     "d8573c188c51087c441147539173a35236c046f68d0626d5acb9282dd9e63262"),
    ("report --xwindow 0", 0,
     "c05a92043f2190726fc7532d9974efb9374f70b694f2e738dbf21ec101368a7e",
     "46de9cbda9999550b38df7cc32466c177d18c3124513b7121e399fea7f6ace4d"),
    ("report --xwindow 1", 0,
     "778f1066833ba2167c52be1056871a229fa9567e64ca26a28fabb1c29c116e27",
     "c8284f8638a52ac3c5ac2197845bc0f2ee10304fd84fe31a9711af28f709154a"),
    ("report --xwindow 1 --field fp:2", 1,
     "c935d709ffc09ebc0390a34d835496bd8c5b0fd61759b3e80a50437c5f701564",
     "0c53ba93c9c2f7ff1fc89bf2e05fc012d6135a6f83d92a2c9158aa91b45cb1b6"),
    ("report --xwindow 1 --field fp:7", 0,
     "1c313e013d29b807d4be1c067ca1bba52d5a9567bb67105e06821026ccddecd2",
     "51fe192b3d841312eebd39e0a0635b1c07db77dd832be2b65210fa45209f3516"),
    ("report --xwindow 2", 0,
     "512a4908eaafa82e8807ee9feaeb27b6c49207377e41ac9debcf76ee06c599ab",
     "b7ebdad1ed18715c8df09e8ca351ab35aef6683d44d6c514dc03cf7f7066d761"),
    ("report --xwindow 2 --field fp:7", 0,
     "824557fbb505e07b117dc0383aa9098475630ff65adc38f34517ea6efb301efc",
     "e4967df2c7c2edde1343d646944d77a2b5de407de25a32cb89ab84d51b45a521"),
    ("report --xwindow 3", 0,
     "1a99272d57561f0d998e4a2fffbe594511ea12e3d103ef810ee4fab542a11e8f",
     "a23c608e0b8997462206a7c9e5a76ed32f7b0bc6e6577f05c255838c3568166e"),
    ("verify S --n 4 --window 2", 0,
     "b639a1943f8d3096b9416bb4789326089fb07ab561818381b9d692e125448dea",
     "f141094303e5d85e9ad56797ec1987dca9bce9534d69a77d6950a35f9c683645"),
    ("verify W --n 4 --window 2", 0,
     "0613dec8f2f8f466752676227c7ae8612fd329269c6f9f3e0c7f0b24aab9af4a",
     "c656988bef743c221f51730fbf4a756723777e7ee3acd648a105b7ce32c53498"),
    ("pairs ii --n 5", 0,
     "0b19b3ea0a181b7fe4b25e080274f16e7dc04daf03a0a7f5acdb6e6703ccb57c",
     "7b25bb165b7cff65f28d3d6dc4276ea35401236c7ea5c2c876e23c9e9403b569"),
    ("pairs iii --n 5", 0,
     "42d3163947743c3e1c46ab7121c71ed430712ec2f0270c081917d4fe6203fc4f",
     "b5ba76218c844b1b9dd04dfe80f9fc4a5f982d364ee88b68d410951205fb80d0"),
    ("charp --p 3", 1,
     "93a51a76f8ea506fc4023d6ba1fd338abe6e569c4922c0bd17e5aa0c81202f1e",
     "9ca4aca0aa32ffefea44e62b065ab50be87c59d53b167b6c28beaaa39c016137"),
    # windows above 2, decided by the window-2 certificate except over fp:2
    ("verify S --n 3 --window 3", 0,
     "dd4cdf1a5669f2fc7484622ae39b3cd2d261d323361522e27007f7c778dda98d",
     "94a8a9a9694b534cc87722d4f40403733ebe3a0673a56f84d4478971fe4ccc05"),
    ("verify S --n 3 --window 3 --field fp:10007", 0,
     "75accac8185f7d83b915ad30192d2d162e7ab54a34db6e8e2e8ca6c1dc7ce3f7",
     "a8febc832f64ea94d14b05022117216ef2cc13b7ff8918cb3288f545c125f609"),
    ("verify S --n 3 --window 3 --field fp:2", 0,
     "07ffa20689bfa6d894c499e3708c8926d5739cf32cfe912cf8582f50b15f10b5",
     "90003a8ef42fafa4df3fbd1ec0b9a31c7f3602af29814a48b5bd4b9c30e67c38"),
    ("verify W --n 3 --window 4", 0,
     "6640e89ceb661bea69cf665186ba23677df21f7bb257387d90e0801000be588a",
     "5b8d3fdf8bb16cf75fdbcf2b1bfaa0cf734e45a888a221b4af5fb095002687df"),
    ("verify SW --n 4 --window 3", 0,
     "fb25f2735d4ac50524c7af3eef241c3cec2adc0055085c4a1c3d336815003a22",
     "32268ab08353547d9e0cbcf06601d995abd2f7459e7ee24417e9533ac4e4614e"),
    ("verify S --n 4 --window 3", 0,
     "72eff9a9b13680d0b4c20c9d7fc18bf6937e35f0559f2e30099bbb40b4fef8f8",
     "954dfd597e0b532d95ac0d1c49c2966cc79d4a603d141d13ca6c8ed9efd56ae6"),
]


@pytest.mark.parametrize("command,code,stdout_sha,json_sha", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_prime_field_output_bytes_are_pinned(command, code, stdout_sha, json_sha, tmp_path,
                                             capsys):
    path = tmp_path / "report.json"
    assert main(command.split() + ["--json", str(path)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == json_sha


# the identity witnesses of a corrupted O(3) table (one term 3*e1 added to
# [e1 e2 e3]): stdout and --json sha256 with exit 1; the only CLI bytes that
# the identity kernel's reduction reaches
WITNESS_GOLDEN = [
    ("q", "f2d0e08a478d74104891525cf0a0db267509dfbfd1902080658d64d70dc79da0",
     "2fc712c6828ca28c9815115e47b2a6709762fdabfc8758160f301c184648c494"),
    ("fp:7", "de7be75b5edecbdced81f93779efb5ca7e31f938fc65766e7205e187fdd30d3e",
     "e52daba1dd4bc0ab144b4cdf7937b1d1d1448d06f20c3d060848fe0b136d8f52"),
]


@pytest.mark.parametrize("field,stdout_sha,json_sha", WITNESS_GOLDEN,
                         ids=[g[0] for g in WITNESS_GOLDEN])
def test_identity_witness_output_bytes_are_pinned(field, stdout_sha, json_sha, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a relative name keeps the echoed table= stable
    text = serialize_table(algebra_O(3, field_from_name(field)))
    (tmp_path / "bad.nlie").write_text(text.replace("1 2 3 -> 1*e4\n",
                                                    "1 2 3 -> 1*e4 + 3*e1\n"))
    argv = ["verify", "--table", "bad.nlie", "--field", field, "--json", "report.json"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "[FAIL] filippov_jacobi: 92 instances" in out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, out
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == json_sha
