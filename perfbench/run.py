#!/usr/bin/env python3
"""posedit benchmark: CLI-job latency and throughput, plus a traced per-layer run.

    python3 perfbench/run.py --workload edit_crowd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A job is one ``posedit <command> --config ... --out-dir <fresh dir>`` run as
its own process, as users run the tool: every job pays interpreter start-up
and the numpy import, and nothing cached in memory survives to the next job.
The loop is closed with one client: the next job starts when the last exits.

Per seed, before any timing: the committed e2e bundles are replayed against
their goldens, the workload's inputs are generated (without importing
posedit), and every job runs once and is checked by the oracles in
``gate.py``.  Timed jobs must then reproduce the checked output tree digest.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced runs of each job and reports per-layer self times and work counts
(see ``tracing.py``).  The last line of output is one JSON object.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ("src/posedit/cli.py", "scripts/make_fixtures.py", "tests/oracles.py",
            "tests/fixtures")
JOB_MAIN = "import sys; from posedit.cli import main; sys.exit(main())"
SETUP_PROBE = "import posedit.cli"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_BEYOND = 10    # the tail percentile keeps at least this many samples above it
PROBE_EVERY = 3     # one set-up probe after every third timed job
MIN_PROBES = 7
LAYERS = ("pose_model", "procrustes", "retrieval", "editor", "blending", "ddim",
          "metrics", "pipeline", "cli")


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """Highest whole percentile, from 99 down to 50, whose nearest-rank value has
    at least ``beyond`` samples ranked above it: ``(percentile, value)``, or
    None when even the median has fewer above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)  # nearest rank, 1-based
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return None


class Runner:
    """Spawns job processes one at a time and reaps each with ``os.wait4``."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
        )
        self._serial = 0

    def fresh_dir(self):
        self._serial += 1
        return os.path.join(self.work, "out", f"{self._serial:06d}")

    def spawn(self, argv):
        """Run one process; return (exit code, wall seconds, max RSS in KiB)."""
        stderr_path = os.path.join(self.work, "stderr.txt")
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss

    def last_stderr(self):
        with open(os.path.join(self.work, "stderr.txt"), "r", errors="replace") as fh:
            return fh.read()[-2000:]

    def job(self, job, out_dir):
        return self.spawn(["-c", JOB_MAIN] + job["argv"] + ["--out-dir", out_dir])

    def traced_job(self, job, out_dir):
        spec = os.path.join(self.work, "trace_spec.json")
        result = os.path.join(self.work, "trace_result.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"argv": job["argv"] + ["--out-dir", out_dir],
                       "clip_paths": job.get("clip_paths", []), "result": result}, fh)
        if os.path.exists(result):
            os.remove(result)
        code, seconds, _ = self.spawn([os.path.join(HERE, "tracing.py"), spec])
        if not os.path.exists(result):
            raise RuntimeError(f"traced job {job['name']} wrote no trace:\n{self.last_stderr()}")
        with open(result, "r", encoding="utf-8") as fh:
            return code, seconds, json.load(fh)

    def probe(self):
        code, seconds, _ = self.spawn(["-c", SETUP_PROBE])
        if code != 0:
            raise RuntimeError(f"importing posedit.cli failed:\n{self.last_stderr()}")
        return seconds


def machine():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k, "unset") for k in BLAS_ENV},
    }


# --- preparation: pre-flight, inputs, correctness gate -----------------------------


def prepare(runner, workload, seed, log):
    """Generate the seed's inputs and gate every job; return (jobs, sizes, problems)."""
    import gate
    import workloads

    problems = []
    for bundle in gate.E2E_BUNDLES:
        out = runner.fresh_dir()
        code, _, _ = runner.job({"argv": ["edit", "--config", gate.bundle_config(bundle)]},
                                out)
        found = [f"{bundle}: exit {code}"] if code else gate.golden_problems(bundle, out)
        log(f"preflight {bundle}: {'ok' if not found else '; '.join(found)}")
        problems += found
        shutil.rmtree(out, ignore_errors=True)

    jobs, sizes = workloads.generate(workload, os.path.join(runner.work, "inputs"), seed)
    for job in jobs:
        out = runner.fresh_dir()
        code, _, _ = runner.job(job, out)
        if code != 0:
            found, facts = [f"exit {code}: {runner.last_stderr().strip()}"], {}
        else:
            found, facts = gate.check_job(job, out)
        job["digest"] = gate.tree_digest(out) if not found else None
        facts_text = " ".join(f"{k}={v}" for k, v in facts.items())
        log(f"gate {job['name']}: {'ok' if not found else 'FAIL'} "
            f"digest={job['digest']} {facts_text}".rstrip())
        problems += [f"{job['name']}: {p}" for p in found]
        shutil.rmtree(out, ignore_errors=True)
    return jobs, sizes, problems


def _timed_ok(job, code, out_dir):
    """A timed job passes when it exits 0 with a manifest and the gated tree."""
    import gate

    return (code == 0 and job["digest"] is not None
            and os.path.isfile(os.path.join(out_dir, "manifest.json"))
            and gate.tree_digest(out_dir) == job["digest"])


# --- untraced run: end-to-end metrics -----------------------------------------------


def cycle_means(durations, per_cycle):
    """Mean job time of every run of ``per_cycle`` consecutive jobs.  The loop
    takes the jobs round-robin, so each such window holds every job of the
    cycle once, whichever job it starts at."""
    return [sum(durations[i:i + per_cycle]) / per_cycle
            for i in range(len(durations) - per_cycle + 1)]


def measure(runner, jobs, seconds, log):
    runner.probe()  # compiled bytecode and page cache are warm before timing
    durations, probes, peak_kib = [], [], 0
    failed = busy = 0
    # enough windows for the tail percentile to sit at or above the median
    min_jobs = 2 * TAIL_BEYOND + len(jobs)
    while busy < seconds or len(durations) < min_jobs:
        job = jobs[len(durations) % len(jobs)]
        out = runner.fresh_dir()
        start = time.perf_counter()
        code, job_seconds, rss = runner.job(job, out)
        if not _timed_ok(job, code, out):
            failed += 1
        shutil.rmtree(out, ignore_errors=True)
        busy += time.perf_counter() - start
        durations.append(job_seconds)
        peak_kib = max(peak_kib, rss)
        if len(durations) % PROBE_EVERY == 0:
            probes.append(runner.probe())
    while len(probes) < MIN_PROBES:
        probes.append(runner.probe())

    means = cycle_means(durations, len(jobs))
    pct, tail = tail_percentile(means)
    completed = len(durations) - failed
    metrics = {
        "jobs_per_s": (completed / sum(durations), "1/s"),
        "job_ms_p50": (1e3 * statistics.median(means), "ms"),
        "job_ms_tail": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    for name, (value, unit) in metrics.items():
        log(f"{name:<12} {value:12.4f} {unit}")
    by_job = {}
    for i, d in enumerate(durations):
        by_job.setdefault(jobs[i % len(jobs)]["name"], []).append(d)
    log("job_ms_p50 by job: " + " ".join(
        f"{name}={1e3 * statistics.median(d):.1f}" for name, d in by_job.items()))
    log(f"job_ms_p50 and job_ms_tail (p{pct}) are over the mean job time of each "
        f"of {len(means)} windows of {len(jobs)} consecutive jobs, from "
        f"{len(durations)} timed jobs; setup_s is the median of {len(probes)} imports")
    log(f"failed_ratio {failed / len(durations):.4f} ({failed}/{len(durations)})")
    return metrics, len(durations), failed


# --- traced run: per-layer metrics -----------------------------------------------------


def _cycle_metrics(summaries, traced_s, plain_s):
    """Per-layer metrics of one cycle of jobs: per-job means and cycle ratios."""
    n = len(summaries)
    spans, counts = {}, {}
    for s in summaries:
        for k, v in s["self_ms"].items():
            spans[k] = spans.get(k, 0.0) + v
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v

    def ms(span):
        return spans.get(span, 0.0) / n

    def per_job(key):
        return counts.get(key, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    layer_ms = {layer: 0.0 for layer in LAYERS}
    for span, v in spans.items():
        layer_ms[span.split(".")[0]] += v
    total = sum(layer_ms.values())
    m = {
        "pose_model.parse_ms": ms("pose_model.parse"),
        "pose_model.serialize_ms": ms("pose_model.serialize"),
        "pose_model.keypoints_parsed": per_job("pose_model.keypoints_parsed"),
        "pose_model.keypoints_serialized": per_job("pose_model.keypoints_serialized"),
        "pose_model.parse_per_unique_clip": ratio(counts.get("pose_model.clip_parses", 0),
                                                  counts.get("pose_model.distinct_clips", 0)),
        "procrustes.apply_ms": ms("procrustes.apply"),
        "procrustes.keypoints_transformed": per_job("procrustes.keypoints_transformed"),
        "procrustes.solve_ms": ms("procrustes.solve"),
        "procrustes.solve_calls": per_job("procrustes.solve_calls"),
        "procrustes.solve_per_match": ratio(counts.get("procrustes.solve_calls", 0),
                                            counts.get("editor.instances_replaced", 0)),
        "editor.assign_ms": ms("editor.assign"),
        "editor.resample_ms": ms("editor.resample"),
        "editor.edit_self_ms": ms("editor.edit"),
        "editor.instances_replaced": per_job("editor.instances_replaced"),
        "retrieval.parse_manifest_ms": ms("retrieval.parse_manifest"),
        "retrieval.values_parsed": per_job("retrieval.values_parsed"),
        "retrieval.build_index_ms": ms("retrieval.build_index"),
        "retrieval.query_ms": ms("retrieval.query"),
        "retrieval.scored_per_returned": ratio(counts.get("retrieval.scored", 0),
                                               counts.get("retrieval.returned", 0)),
        "blending.parse_stack_ms": ms("blending.parse_stack"),
        "blending.cells_parsed": per_job("blending.cells_parsed"),
        "blending.schedule_ms": ms("blending.schedule"),
        "ddim.invert_ms": ms("ddim.invert"),
        "ddim.sample_ms": ms("ddim.sample"),
        "ddim.steps": per_job("ddim.steps"),
        "metrics.parse_cases_ms": ms("metrics.parse_cases"),
        "metrics.score_ms": ms("metrics.score"),
        "metrics.cosine_evals": per_job("metrics.cosine_evals"),
        "pipeline.self_ms": ms("pipeline"),
        "pipeline.bytes_read": per_job("pipeline.bytes_read"),
        "pipeline.bytes_written": per_job("pipeline.bytes_written"),
        "cli.self_ms": ms("cli"),
        "trace.overhead_ratio": sum(traced_s) / sum(plain_s),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = ratio(layer_ms[layer], total)
    return m


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def trace(runner, jobs, seconds, log):
    """Alternate plain and traced runs of each job for whole cycles."""
    runner.probe()
    cycles, attempted, failed = [], 0, 0
    busy = 0.0
    while busy < seconds or not cycles:
        summaries, traced_s, plain_s = [], [], []
        for job in jobs:
            start = time.perf_counter()
            out = runner.fresh_dir()
            code, seconds_plain, _ = runner.job(job, out)
            ok = _timed_ok(job, code, out)
            shutil.rmtree(out, ignore_errors=True)
            out = runner.fresh_dir()
            code, seconds_traced, summary = runner.traced_job(job, out)
            traced_ok = _timed_ok(job, code, out)
            shutil.rmtree(out, ignore_errors=True)
            busy += time.perf_counter() - start
            attempted += 2
            failed += (not ok) + (not traced_ok)
            summaries.append(summary)
            traced_s.append(seconds_traced)
            plain_s.append(seconds_plain)
        cycles.append(_cycle_metrics(summaries, traced_s, plain_s))

    units = per_layer_units()
    metrics = {name: (statistics.median(c[name] for c in cycles), units[name])
               for name in cycles[0]}
    for name, (value, unit) in metrics.items():
        log(f"{name:<34} {value:14.4f} {unit}")
    log(f"per-layer values are medians over {len(cycles)} cycles of {len(jobs)} jobs")
    return metrics, attempted, failed


# --- entry point -----------------------------------------------------------------------


def run_workload(workload, seed, seconds, traced, log):
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    started = time.perf_counter()
    try:
        runner = Runner(work)
        log(f"workload {workload} seed {seed}: closed loop, 1 client, "
            f"{'traced' if traced else 'untraced'}")
        jobs, sizes, problems = prepare(runner, workload, seed, log)
        log(f"inputs {json.dumps(sizes, sort_keys=True)}")
        for p in problems:
            log(f"PROBLEM {p}")
        if traced:
            metrics, attempted, failed = trace(runner, jobs, seconds, log)
        else:
            metrics, attempted, failed = measure(runner, jobs, seconds, log)
        return metrics, attempted, failed, not problems and failed == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        log(f"workload {workload} took {time.perf_counter() - started:.1f} s")


def main():
    sys.path.insert(0, HERE)
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    log = lambda line: print(line, flush=True)  # noqa: E731
    log(f"machine {json.dumps(machine(), sort_keys=True)}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        m, a, f, ok = run_workload(name, args.seed, args.seconds, bool(args.trace), log)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        attempted += a
        failed += f
        correct = correct and ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _check_checkout():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a posedit checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    _check_checkout()
    sys.exit(main())
