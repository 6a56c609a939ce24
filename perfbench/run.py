"""Benchmark for nlielab: wall time to a verdict on four proof workloads.

    python3 perfbench/run.py --workload identity_window --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports nlielab from ``src/`` of the
same checkout and nowhere else, and exits nonzero without a result when
that is missing.

Load is closed-loop from this one process, with no threads: each
invocation of the workload starts after the previous one finishes, and
a new one starts only while it is expected to end within ``--seconds``
(there is always at least one).  With ``--trace 0`` the result holds the
end-to-end metrics:

* ``verdict_s``   median wall seconds per invocation (``attempted`` is
  the sample count), rescaled to the reference interpreter speed of
  ``speed.py``;
* ``setup_s``     median wall seconds, over separate child processes, of
  importing nlielab and generating the workload's inputs;
* ``peak_rss_mb`` peak resident set of this process.

The raw wall times are printed and recorded beside the rescaled ones.

``failed`` counts invocations whose verdicts or invariants missed the
expected values (``failed / attempted`` is the failed share); any miss
makes the run exit 1.  With ``--trace 1`` the run makes one untraced and
one traced invocation and reports the per-layer metrics of the traced
one, plus ``trace_overhead_s``, the difference of their rescaled times.

The last line of standard output is the result as one JSON object.
Earlier lines, prefixed ``#``, give the environment record, the samples
and which per-layer metrics are absent; the same record, and every span
of a traced run, are written under ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def load_program():
    """Import nlielab from this checkout's ``src/``; exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "nlielab", "__init__.py")):
        print("error: no nlielab sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import nlielab
    if not os.path.abspath(nlielab.__file__).startswith(SRC + os.sep):
        print("error: nlielab imported from %s, not from %s" % (nlielab.__file__, SRC),
              file=sys.stderr)
        sys.exit(2)


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args):
    import importlib.util
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "git_sha": git_sha(),
    }


def measure_setup(args):
    """Fresh-process timings of import plus input generation."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, probe, args.workload, str(args.seed), args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def invoke(workload, inputs):
    """One invocation: (wall seconds, the same at reference speed, gate misses).
    The wall excludes the time the speed samples took."""
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        outcome = workload.run(inputs, OUT)
        end = time.perf_counter()
    wall = end - start - probe.time_within(start, end)
    return wall, speed.rescale(wall, probe.kernel_times()), workload.check(outcome, inputs)


def closed_loop(workload, inputs, seconds):
    walls, scaled, misses = [], [], []
    begin = time.perf_counter()
    while True:
        wall, ref, miss = invoke(workload, inputs)
        walls.append(wall)
        scaled.append(ref)
        misses.append(miss)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > seconds:
            return walls, scaled, misses


def traced_pair(workload, inputs, name, spans_path):
    """One untraced then one traced invocation; per-layer values and spans."""
    from metrics import per_layer
    from tracer import Tracer

    wall_plain, ref_plain, miss_plain = invoke(workload, inputs)
    tracer = Tracer()
    tracer.invocation = 1
    tracer.install()
    try:
        wall_traced, ref_traced, miss_traced = invoke(workload, inputs)
    finally:
        tracer.uninstall()
    values, absent = per_layer(tracer, name)
    # both at reference speed, like verdict_s, so host drift does not show as overhead
    values["trace_overhead_s"] = {"value": ref_traced - ref_plain, "unit": "s"}
    tracer.write(spans_path)
    return [wall_plain, wall_traced], [miss_plain, miss_traced], values, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny runs the same code paths on small inputs (self-test)")
    args = parser.parse_args(argv)

    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    inputs = workload.make_inputs(args.seed, args.size)
    speed.time_kernel(20)  # warm up, so the first speed samples are not the slowest
    record = {"env": env}
    if args.trace:
        from tracer import UNTRACED
        spans = os.path.join(OUT, "spans-%s.bin.gz" % args.workload)
        walls, misses, metrics, absent = traced_pair(workload, inputs, args.workload, spans)
        record.update(absent=absent, untraced_layers=UNTRACED)
        print("# absent on this workload (value 0): " + ", ".join(absent))
        for layer, why in sorted(UNTRACED.items()):
            print("# %s: %s" % (layer, why))
    else:
        setup = measure_setup(args)
        walls, scaled, misses = closed_loop(workload, inputs, args.seconds)
        metrics = {
            "verdict_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        record.update(setup_s=setup, verdict_s=scaled, wall_median_s=statistics.median(walls))
        print("# verdict_s at reference speed %s; setup_s samples %s"
              % ([round(v, 4) for v in scaled], [round(v, 4) for v in setup]))

    failed = sum(1 for m in misses if m)
    result = {"correct": failed == 0, "attempted": len(walls), "failed": failed,
              "metrics": metrics}
    record.update(walls_s=walls, misses=misses, result=result)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("# walls_s %s; failed share %d/%d"
          % ([round(w, 4) for w in walls], failed, len(walls)))
    for i, m in enumerate(misses):
        for line in m:
            print("# invocation %d missed: %s" % (i, line))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
