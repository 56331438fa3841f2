"""One round of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --round R \
        --trace 0|1 --out RESULT.json --started T [--setup-only]

Set-up (interpreter start from T, package import and generation of the
round's inputs) ends at the `ready` timestamp.  The jobs then run one at a time in this process; a job
is a `quantales.cli.main(argv)` call or a public library call.  After the
timed loop every outcome is checked against the known answers, and the
round's figures are written to RESULT.json.  Untraced, the worker samples
the machine's speed from its first line (speed.py) and adds the reference
times of its set-up and its jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB_LIMIT_S = 60


class JobTimeout(BaseException):
    """Raised by the job timer; not an Exception, so no handler in the
    program can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(job, tracer=None):
    """Run one job under the per-job time limit and capture what it shows."""
    from quantales import cli
    buf = io.StringIO()
    out = {"rc": None, "exc": None, "timeout": False}
    if tracer is not None:
        tracer.job = job.id
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if job.argv is not None:
                out["rc"] = cli.main(list(job.argv))
            else:
                out["value"] = job.call()
    except JobTimeout:
        out["timeout"] = True
    except Exception as e:  # a raising job is a failed job, not a crash
        out["exc"] = f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out["seconds"] = time.perf_counter() - t0
    out["out"] = buf.getvalue()
    return out


def verify(jobs, outcomes, answers):
    """Failed jobs with their problems, plus replay and report figures."""
    import check
    by_id = {job.id: job for job in jobs}
    failures = []
    replayed = skipped = report_bytes = 0
    for job, outcome in zip(jobs, outcomes):
        probs = check.problems(job, outcome, by_id, answers)
        if probs:
            failures.append({"job": job.id, "problems": probs})
        if job.answer == "report-verify" and not probs:
            r, s = check.replay_counts(outcome, by_id[job.params["of"]])
            replayed += r
            skipped += s
        if job.report and os.path.exists(job.report):
            report_bytes += os.path.getsize(job.report)
    return failures, {"cli.report_verify.replayed": replayed,
                      "cli.report_verify.skipped": skipped,
                      "fileformats.report_bytes": report_bytes}


def run_round(workload, seed, round_index, trace=False, answers=None,
              workdir=None, setup_only=False, sampler=None):
    """Set up, run and check one round; returns the round's result dict.

    A running speed.SpeedSampler adds the round's reference times."""
    import workloads
    workdir = workdir or os.path.join(
        ROOT, ".perfbench", "work",
        f"{workload}-{seed}-{round_index}{'-trace' if trace else ''}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = workloads.jobs(workload, seed, round_index, workdir)
    ready = time.perf_counter()
    if setup_only:
        return {"ready": ready}

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    outcomes = [run_job(job, tracer) for job in jobs]
    end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()

    answers = answers or workloads.load_known()["answers"]
    failures, figures = verify(jobs, outcomes, answers)
    result = {
        "ready": ready,
        "run_s": end - start,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "job_seconds": {job.id: o["seconds"] for job, o in zip(jobs, outcomes)},
        "figures": figures,
    }
    if sampler is not None:
        result["run_ref_s"] = sampler.reference_seconds(start, end)
        result["probe_median_s"] = sampler.probe_median_s(start, end)
    if tracer is not None:
        result["per_layer"] = tracer.metrics(figures)
        tracer.write(os.path.join(workdir, "spans.json"))
    else:
        shutil.rmtree(workdir)  # a traced round's files stay for inspection
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up, to sample set-up time")
    parser.add_argument("--started", type=float, required=True,
                        help="time.perf_counter() just before this worker "
                        "was spawned, the start of its set-up")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    import speed
    sampler = None
    if not args.trace:  # a traced round reports raw times only
        sampler = speed.SpeedSampler()
        sampler.start()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import quantales  # noqa: F401  (package import is part of set-up)
    import quantales.cli  # noqa: F401
    import quantales.examples  # noqa: F401
    import quantales.freeprod  # noqa: F401
    result = run_round(args.workload, args.seed, args.round,
                       trace=bool(args.trace), setup_only=args.setup_only,
                       sampler=sampler)
    if sampler is not None:
        sampler.stop()
        result["setup_ref_s"] = sampler.reference_seconds(args.started,
                                                          result["ready"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
