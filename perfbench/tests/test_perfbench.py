"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/tests -q

Runs every workload's code path untraced and traced, checks that the
expected-output gate rejects a flipped verdict, that two seeds do the
same work, that the tracer fails loudly, and that BENCHMARK.json names
the metrics the benchmark prints.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nlielab import cli, nlie, universal  # noqa: E402
from nlielab.fields import is_prime  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def bench(*args, root=ROOT):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def tiny(workload, seed=1, trace=0):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                 "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_reports_end_to_end_metrics(workload):
    result, lines = tiny(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [n for n, _, _ in metrics.END_TO_END] == list(result["metrics"])
    for name, unit, _ in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    env = json.loads(lines[0][len("# env "):])
    assert env["seed"] == 1 and env["nproc"] >= 1
    assert {"python", "loadavg_at_start", "gmpy2", "git_sha"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_reports_every_layer_metric(workload):
    result, lines = tiny(workload, trace=1)
    assert result["correct"] and result["attempted"] == 2
    names = [m[0] for m in metrics.PER_LAYER] + ["trace_overhead_s"]
    assert list(result["metrics"]) == names
    path = os.path.join(ROOT, ".perfbench_out", "spans-%s.bin.gz" % workload)
    header, cols = tracer.read_spans(path)
    assert header["spans"] == len(cols["starts"]) > 0
    assert all(e >= s for s, e in zip(cols["starts"], cols["ends"]))
    assert set(cols["invocations"]) == {1}
    absent = lines[1].split(": ", 1)[1].split(", ")
    for name, _, _, layer, _, _ in metrics.PER_LAYER:
        assert (result["metrics"][name]["value"] == 0) >= (name in absent)
        if workload in metrics.SHOULD_MOVE[layer]:
            assert name not in absent


@pytest.mark.parametrize("workload", ["identity_primefield", "generation_o5"])
def test_two_seeds_do_the_same_work(workload):
    w = workloads.WORKLOADS[workload]
    def drawn(inputs):  # the form or the prime, without the echoed seed
        return inputs.get("diag") or inputs["argv"][:-2]
    assert drawn(w.make_inputs(1, "tiny")) != drawn(w.make_inputs(2, "tiny"))
    first, _ = tiny(workload, seed=1, trace=1)
    second, _ = tiny(workload, seed=2, trace=1)
    counts = [m[0] for m in metrics.PER_LAYER if m[1] == "count"]
    assert {"nlie.instances", "universal.w_bracket.calls", "linalg.span_insert.calls",
            "realizations.carrier_bracket.calls"} <= set(counts)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_primes_are_prime():
    assert all(is_prime(p) for p in workloads.PRIMES)


def _outcome(name):
    w = workloads.WORKLOADS[name]
    inputs = w.make_inputs(5, "tiny")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    outcome = w.run(inputs, os.path.join(ROOT, ".perfbench_out"))
    assert w.check(outcome, inputs) == []
    return w, inputs, outcome


@pytest.mark.parametrize("workload", ["identity_window", "identity_primefield", "splits"])
def test_gate_rejects_one_flipped_record(workload):
    w, inputs, outcome = _outcome(workload)
    for i, rec in enumerate(outcome["report"]["checks"]):
        bad = copy.deepcopy(outcome)
        flipped = {"pass": "fail", "fail": "pass", "not_decided": "pass"}[rec["status"]]
        bad["report"]["checks"][i]["status"] = flipped
        assert w.check(bad, inputs), rec["name"]


def test_gate_rejects_wrong_generation_outcome():
    w, inputs, outcome = _outcome("generation_o5")
    for key, value in [("admissible", "not_decided"), ("truncation", False),
                       ("relations", False), ("filippov", False)]:
        bad = dict(outcome, **{key: value})
        assert w.check(bad, inputs), key
    dims = dict(outcome["graded_dims"])
    dims[0] += 1
    assert w.check(dict(outcome, graded_dims=dims), inputs)


def test_gate_reads_invariants_not_detail_bytes():
    w, inputs, outcome = _outcome("splits")
    padded = copy.deepcopy(outcome)
    for rec in padded["report"]["checks"]:
        rec["detail"] += ", a field added later"
        rec["extra"] = 1
    assert w.check(padded, inputs) == []


def test_tracer_patches_imported_names_and_restores_them():
    original = nlie.check_filippov
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.check_filippov is nlie.check_filippov is not original
        assert universal.w_bracket.__wrapped__ is not None
    finally:
        t.uninstall()
    assert cli.check_filippov is nlie.check_filippov is original


def test_tracer_raises_for_a_missing_layer_function(monkeypatch):
    targets = dict(tracer.TARGETS)
    targets["universal.box"] = ("nlielab.universal", ["renamed_box"])
    monkeypatch.setattr(tracer, "TARGETS", targets)
    with pytest.raises(tracer.TracerError):
        tracer.Tracer().install()
    assert not hasattr(universal.box, "__wrapped__")
    assert not hasattr(nlie.check_filippov, "__wrapped__")


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    t.install()
    try:
        workloads.WORKLOADS["generation_o5"].run(
            workloads.WORKLOADS["generation_o5"].make_inputs(1, "tiny"), None)
    finally:
        t.uninstall()
    # each bracket is two box products
    assert t.edge("universal.w_bracket", "universal.box") == 2 * t.count("universal.w_bracket")
    total = sum(t.self_ns) / 1e9
    roots = [i for i, p in enumerate(t.parents) if p == -1]
    covered = sum(t.ends[i] - t.starts[i] for i in roots) / 1e9
    assert abs(total - covered) < 1e-6


def test_missing_layer_raises_in_per_layer():
    t = tracer.Tracer()
    with pytest.raises(ValueError):
        metrics.per_layer(t, "splits")


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [m[:3] for m in metrics.PER_LAYER] + [("trace_overhead_s", "s", "lower")]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "splits", "--seed", "1", "--seconds", "1", "--trace", "0",
                 root=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_probe_restores_the_signal_handler_and_excludes_tail_samples():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        deadline = start + 3 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= speed.TAIL_SAMPLES + 2
    inside = probe.time_within(start, end)
    assert 0 < inside < sum(probe.kernel_times())
    assert speed.rescale(2.0, [speed.REF_KERNEL_S] * 3) == 2.0
