"""Self-test of the benchmark.

    python3 -m pytest perfbench -q -s

Shows that the known answers hold, that one planted wrong answer makes
error_ratio positive, that a report-verify run which skips a failed check
is caught, that reference times scale each stretch by its probe, that the
README pullback session gives the same verdicts and
about the same wall time through `python -m quantales` subprocesses as in
process, and that BENCHMARK.json names exactly the metrics the benchmark
prints.  Work files go under .perfbench/ at the repository root.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _fresh(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _finite_round(answers, name):
    return worker.run_round("finite", 7, 0, answers=answers,
                            workdir=_fresh(name))


def test_planted_wrong_answer_makes_error_ratio_positive():
    answers = workloads.load_known()["answers"]
    good = _finite_round(answers, "good")
    assert good["failed"] == 0, good["failures"]

    planted = copy.deepcopy(answers)
    planted["validate-perturbed"]["exit"] = 0  # the true answer is 1
    bad = _finite_round(planted, "planted")
    assert bad["failed"] == 1
    assert bad["failures"][0]["job"] == "validate-perturbed"
    assert bad["failed"] / bad["attempted"] > 0


def test_skipped_replay_is_a_failure_unless_known():
    path = os.path.join(_fresh("replay"), "report.json")
    with open(path, "w") as fh:
        json.dump({"checks": [{"check": "suite", "ok": True}],
                   "frobenius": {"checks": [{"check": "fr2", "ok": False}]}},
                  fh)
    producer = workloads.Job("suite", "group-algebra", report=path)
    replay = workloads.Job("suite/report-verify", "report-verify",
                           params={"of": "suite"})
    outcome = {"rc": 0, "out": "replayed 0 witnesses, 0 problems\n"}
    assert check.replay_counts(outcome, producer) == (0, 1)
    answers = workloads.load_known()["answers"]
    jobs = {"suite": producer}
    assert check.problems(replay, outcome, jobs, answers) == []
    strict = copy.deepcopy(answers)
    strict["group-algebra"]["unreplayable"] = 0
    assert check.problems(replay, outcome, jobs, strict)


def test_reference_time_scales_each_stretch_by_its_probe():
    p = speed.P_REF_S
    sampler = speed.SpeedSampler()
    # a probe at full speed after 1 s, one at half speed after 2 s
    sampler.samples = [(1.0, 1.0 + p, 1.0 + 2 * p),
                       (2.0, 2.0 + 2 * p, 2.0 + 4 * p)]
    expected = 1.0 + (1.0 - 2 * p) / 2 + (1.0 - 4 * p) / 2
    assert abs(sampler.reference_seconds(0.0, 3.0) - expected) < 1e-9
    assert sampler.reference_seconds(5.0, 6.5) == 1.5  # no probe inside

    sampler.samples = []
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:  # busy, so CPU time passes
        sum(range(1000))
    sampler.stop()
    assert sampler.samples
    assert sampler.reference_seconds(t0, time.perf_counter()) > 0


def _readme_session(workdir, run):
    pmap = os.path.join(workdir, "omega-support-z2.map.json")
    fmap = os.path.join(workdir, "delta-embedding-2.map.json")
    report = os.path.join(workdir, "pullback.json")
    argvs = [["example", "omega-support", "--group", "z2", "--out", workdir],
             ["example", "delta-embedding", "--n", "2", "--out", workdir],
             ["pullback-verify", "--p", pmap, "--f", fmap, "--maxlen", "4",
              "--report", report],
             ["report-verify", report]]
    t0 = time.perf_counter()
    codes = [run(argv) for argv in argvs]
    wall = time.perf_counter() - t0
    with open(report) as fh:
        verdicts = {c["check"]: c["ok"] for c in json.load(fh)["checks"]}
    return codes, verdicts, wall


def test_readme_session_in_subprocesses_matches_in_process():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def subprocess_run(argv):
        return subprocess.run([sys.executable, "-m", "quantales"] + argv,
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=120).returncode

    def in_process(argv):
        return worker.run_job(workloads.Job("readme", "readme",
                                            argv=argv))["rc"]

    sub = _readme_session(_fresh("subprocess"), subprocess_run)
    inproc = _readme_session(_fresh("in-process"), in_process)
    print(f"\nREADME session: {sub[2]:.2f} s through python -m quantales, "
          f"{inproc[2]:.2f} s in process")
    assert sub[0] == inproc[0] == [0, 0, 0, 0]
    assert sub[1] == inproc[1]
    assert abs(sub[2] - inproc[2]) <= 0.25 * inproc[2]


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == [
        name for name, _, _ in tracing.per_layer_names()]
    assert [(m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (unit, better) for _, unit, better in tracing.per_layer_names()]
    assert [m["name"] for m in bench["end_to_end"]] == [
        "run_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)


def test_refuses_to_run_without_the_program():
    bare = _fresh("bare")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "finite", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
