#!/usr/bin/env python3
"""Simulator benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/perfbench.exe with
dune, then:

  --trace 0  repeats `perfbench pass` in fresh processes for about S
             seconds (at least one pass) and reports, per end-to-end
             metric, the median over the passes, with times at
             reference host speed (README.md);
  --trace 1  runs one untraced pass, one traced pass with the layer
             microbenchmarks, and the workload on the other sweep
             backends, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Anything that goes wrong (build, a pass
that crashes or times out) exits non-zero without printing a result.
Every process started here leads its own process group and is killed
with the group on timeout, so no sweep worker outlives this script.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = "_perfbench"
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 170  # after the build, the whole run must end within 180 s
deadline = None


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(argv, timeout, capture):
    """Run argv as a process-group leader; on timeout kill the group."""
    try:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr,
            text=True,
            start_new_session=True,
        )
    except OSError as e:
        fail("cannot run %s: %s" % (argv[0], e))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %.0f s" % (" ".join(argv), timeout))
    finally:
        # sweep workers are forked into the same group: reap stragglers
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def build():
    # no shared dune cache: the build reads and writes the checkout only
    os.environ["DUNE_CACHE"] = "disabled"
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet", "perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
        capture=False,
    )
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed (run from the root of a checkout of the repository)")


def run_exe(args):
    code, out = run_group([EXE] + args, max(1, deadline - time.monotonic()), capture=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        fail("perfbench %s exited with %d" % (" ".join(args), code))
    for l in lines[:-1]:
        print(l)
    return json.loads(lines[-1])


def pass_metrics(p):
    """End-to-end metrics of one pass; times at reference host speed."""
    events = p["sim_events"]
    simulated = p["simulate_ref_s"] > 0 and events > 0  # false only if every sweep raised
    return {
        "wall_s": p["wall_s"] * p["speed_scale"],
        "setup_s": p["setup_ref_s"],
        "events_per_s": events / p["simulate_ref_s"] if simulated else 0.0,
        "alloc_words_per_event": p["simulate_words"] / events if simulated else 0.0,
        "peak_rss_mb": p["peak_rss_kb"] / 1024.0,
        "success_rate": 1.0 - p["failed"] / p["attempted"],
    }


def host_times(p):
    """The same pass in plain host seconds, for the record."""
    return {"host_wall_s": p["wall_s"], "host_setup_s": p["setup_s"],
            "host_simulate_s": p["simulate_s"], "speed_scale": p["speed_scale"]}


UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "alloc_words_per_event": "words",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def untraced(args):
    """Passes back to back while the next one is expected to end within
    --seconds (at least one)."""
    started = time.monotonic()
    passes = []
    while True:
        t0 = time.monotonic()
        p = run_exe(["pass", "--workload", args.workload, "--seed", str(args.seed)] + args.jobs)
        p["_elapsed"] = time.monotonic() - t0
        passes.append(p)
        for v in p["violations"]:
            print("perfbench: check failed: " + v, file=sys.stderr)
        spent = time.monotonic() - started
        typical = statistics.median(q["_elapsed"] for q in passes)
        if spent + typical > args.seconds:
            break
    per_pass = [pass_metrics(p) for p in passes]
    print(json.dumps({"passes": len(passes), "host": passes[0]["host"],
                      "per_pass": [dict(m, **host_times(p)) for m, p in zip(per_pass, passes)]}))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
        for name, unit in UNITS.items()
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(args):
    """Untraced pass, traced pass, then the other backends, each in its
    own process; the traced pass and every backend must reproduce the
    untraced pass's result rows exactly."""
    os.makedirs(OUT_DIR, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain = run_exe(["pass"] + base + args.jobs)
    out = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
    tr = run_exe(["trace"] + base + args.jobs + ["--out", out])
    nproc = plain["host"]["nproc"]
    passes = [plain, tr]
    metrics = dict(tr["metrics"])
    problems = list(plain["violations"]) + list(tr["violations"])
    problems += ["profiler perturbed " + p for p in tr["perturbed"]]
    if (tr["digest"], tr["sim_events"]) != (plain["digest"], plain["sim_events"]):
        problems.append("traced pass did not reproduce the untraced result rows")
    metrics["trace.overhead_s"] = {
        "value": tr["wall_s"] * tr["speed_scale"] - plain["wall_s"] * plain["speed_scale"],
        "unit": "s"}
    for name, jobs, mode in (("sequential", 1, "fork"), ("fork", nproc, "fork"),
                             ("domains", nproc, "domains")):
        if plain["host"]["backend"] == name:
            p = plain
        else:
            p = run_exe(["pass"] + base + ["--jobs", str(jobs), "--mode", mode])
            passes.append(p)
            problems += p["violations"]
            if p["digest"] != plain["digest"]:
                problems.append("backend %s diverged from the untraced pass" % name)
        metrics["exp.%s_s" % name] = {"value": p["sweep_s"] * p["speed_scale"], "unit": "s"}
    for p in passes:
        print(json.dumps({k: p[k] for k in ("host", "wall_s", "sweep_s", "setup_s",
                                            "simulate_s", "speed_scale", "peak_rss_kb",
                                            "digest")}))
    for msg in problems:
        print("perfbench: check failed: " + msg, file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes) + tr["prof_runs"]
    failed = sum(p["failed"] for p in passes) + len(tr["perturbed"])
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    global deadline
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, help="sweep jobs (clamped to nproc)")
    args = ap.parse_args()
    args.jobs = [] if args.jobs is None else ["--jobs", str(args.jobs)]
    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    result = traced(args) if args.trace else untraced(args)
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
