"""Deterministic result documents."""

import json

import nlielab
from nlielab.fields import GF, QQ
from nlielab.reports import FAIL, NOT_DECIDED, PASS, CheckRecord, Report, _plain


def sample_report():
    rep = Report("verify", {"n": 3, "field": "q", "window": None})
    rep.add("zeta", True, "fine")
    rep.add("alpha", False, "broken", witness=((0, 1), (1, 2, 3)))
    rep.add("mid", None, "window evidence only")
    return rep


def test_status_mapping_and_witness_policy():
    rep = sample_report()
    by_name = {r.name: r for r in rep.records}
    assert by_name["zeta"].status == PASS
    assert by_name["alpha"].status == FAIL
    assert by_name["mid"].status == NOT_DECIDED
    assert by_name["alpha"].witness is not None
    rep.add("ok_with_witness", True, witness="ignored")
    assert rep.records[-1].witness is None  # witnesses accompany failures only


def test_exit_code_tracks_failures():
    rep = Report("verify", {})
    rep.add("a", True)
    assert rep.exit_code() == 0
    rep.add("b", None)
    assert rep.exit_code() == 0
    rep.add("c", False)
    assert rep.exit_code() == 1


def test_records_render_sorted_by_name():
    rep = sample_report()
    names = [r.name for r in rep.sorted_records()]
    assert names == sorted(names)
    doc = json.loads(rep.to_json())
    assert [c["name"] for c in doc["checks"]] == names


def test_json_is_stable_and_newline_terminated():
    a = sample_report().to_json()
    b = sample_report().to_json()
    assert a == b
    assert a.endswith("\n")
    doc = json.loads(a)
    assert doc["command"] == "verify"
    assert doc["config"]["n"] == 3
    assert "version" in doc


def test_version_is_the_package_version():
    assert sample_report().version == nlielab.__version__
    assert json.loads(sample_report().to_json())["version"] == nlielab.__version__


def test_plain_handles_exact_scalars_and_tuple_keys():
    # integral rationals and prime-field scalars are ints and pass through
    # as JSON numbers; Fractions render as strings
    data = {
        (0, 1): QQ.scalar(1, 2),
        "z": [QQ.scalar(3), None, True],
        ("a", "b"): {"nested": QQ.scalar(-1)},
        "p": GF(7).scalar(-1),
    }
    out = _plain(data)
    assert out == {"0 1": "1/2", "a b": {"nested": -1}, "p": 6, "z": [3, None, True]}
    assert json.dumps(out, sort_keys=True)


def test_text_rendering():
    text = sample_report().to_text()
    lines = text.splitlines()
    assert lines[0] == "verify (field=q, n=3)"  # None values dropped, keys sorted
    assert "[FAIL] alpha: broken" in lines
    assert any(ln.strip().startswith("witness:") for ln in lines)
    assert "[----] mid: window evidence only" in lines
    assert "[PASS] zeta: fine" in lines
    assert lines[-1] == "1 passed, 1 failed, 1 not decided"


def test_dims_are_attached_and_plain():
    rec = CheckRecord("dims", PASS, dims={-1: 4, 0: 6})
    out = rec.to_dict()
    assert out["dims"] == {"-1": 4, "0": 6}
