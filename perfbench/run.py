"""Benchmark entry point: one workload, one seed, one measuring run.

    python3 perfbench/run.py --workload {pullback,effective,finite} \
        --seed N --seconds S --trace 0|1

A closed loop with one client: each round is a fresh interpreter
(perfbench/worker.py) that imports the package, generates the round's
inputs from the seed and runs the workload's jobs one at a time.  Rounds
repeat while another one fits in S seconds (at least two), then a few
more interpreters stop after set-up, and the medians are reported.  The
end-to-end times are in reference seconds: wall time scaled by the
machine's speed, which each untraced worker samples as it runs (speed.py).
With --trace 1 the run makes one untraced and one traced round on the
same inputs and reports the per-layer metrics of the traced one, with the
difference of their wall run_s as the tracing overhead.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
SETUP_SAMPLES = 10  # extra starts that stop after set-up, for a steady median
DEADLINE_S = 170  # the whole run, worker time-outs included


class RoundFailed(RuntimeError):
    pass


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def run_round(workload, seed, index, trace, deadline, setup_only=False):
    """Spawn one worker and return its result with set-up and wall time."""
    outdir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(outdir, exist_ok=True)
    out = os.path.join(outdir, f"{workload}-{seed}-{index}-{int(trace)}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--round", str(index), "--trace",
           str(int(trace)), "--out", out] + (["--setup-only"] if setup_only
                                             else [])
    t0 = time.perf_counter()
    cmd += ["--started", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round {index} ran past the run's deadline") from None
    finally:
        if proc.poll() is None:  # past the deadline, or this run was stopped
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not os.path.exists(out):
        raise RoundFailed(f"round {index} exited {proc.returncode}:\n{err}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    # both clocks are CLOCK_MONOTONIC, so the worker's stamp is comparable
    result["setup_wall_s"] = result["ready"] - t0
    result["wall_s"] = wall
    return result


def measure(workload, seed, seconds, deadline):
    """The rounds that fit in `seconds`, and set-up times of extra starts."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, seed, len(rounds), False, deadline))
        elapsed = time.perf_counter() - start
        predicted = statistics.median(r["wall_s"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + predicted > seconds:
            break
    setups = [r["setup_ref_s"] for r in rounds] + [
        run_round(workload, seed, len(rounds) + k, False, deadline,
                  setup_only=True)["setup_ref_s"]
        for k in range(SETUP_SAMPLES)]
    return rounds, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running worker is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.exists(os.path.join(ROOT, "src", "quantales",
                                       "__init__.py")):
        print(f"error: no quantales package under {ROOT}/src", file=sys.stderr)
        return 2
    env = environment()
    print(f"environment: Python {env['python']}, nproc {env['nproc']}, "
          f"{env['cpu']}")
    try:
        if args.trace:
            rounds = [run_round(args.workload, args.seed, 0, False, deadline),
                      run_round(args.workload, args.seed, 0, True, deadline)]
        else:
            rounds, setups = measure(args.workload, args.seed, args.seconds,
                                     deadline)
    except RoundFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for i, r in enumerate(rounds):
        times = (f"run_s {r['run_ref_s']:.3f} (wall {r['run_s']:.3f}, probe "
                 f"{r['probe_median_s'] * 1e6:.0f} us)  setup_s "
                 f"{r['setup_ref_s']:.3f} (wall {r['setup_wall_s']:.3f})"
                 if "run_ref_s" in r else f"wall run {r['run_s']:.3f}")
        print(f"round {i}: {times}  peak_rss_mb {r['peak_rss_mb']:.1f}  "
              f"jobs {r['attempted']}  failed {r['failed']}")
        for f in r["failures"]:
            print(f"  FAILED {f['job']}: {'; '.join(f['problems'])}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(f"error_ratio: {failed / attempted:.6f} ratio "
          f"({failed} failed of {attempted} attempted)")
    if args.trace:
        plain, traced = rounds
        layers = traced["per_layer"]
        layers["trace.run_s"]["value"] = traced["run_s"]
        layers["trace.overhead_s"]["value"] = traced["run_s"] - plain["run_s"]
        print(f"tracing overhead: {traced['run_s'] - plain['run_s']:.3f} s "
              f"({plain['run_s']:.3f} s untraced, {traced['run_s']:.3f} s "
              f"traced)")
        for name, m in layers.items():
            if name.startswith("layer."):
                print(f"  {name:<28} {m['value']:8.3f} s  "
                      f"{m['value'] / traced['run_s']:6.1%} of traced run_s")
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "run_s": {"value": statistics.median(r["run_ref_s"]
                                                 for r in rounds),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"]
                                                       for r in rounds),
                            "unit": "MB"},
        }
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']} {m['unit']}")
    with open(os.path.join(ROOT, ".perfbench", "results",
                           f"{args.workload}-{args.seed}-trace{args.trace}"
                           ".summary.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
