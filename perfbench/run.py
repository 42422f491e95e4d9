#!/usr/bin/env python3
"""Benchmark of regime_extract: verify, simulate and sweep workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the run measures set-up time in fresh interpreters, warms up with
one round, then repeats the workload's round for --seconds seconds and
reports the end-to-end metrics, each time scaled to a reference machine
speed (speed.py). With --trace 1 it alternates untraced rounds with rounds
that record spans around every public function of each layer, and reports
the per-layer metrics. Each run prints a readable report, then one JSON
object as its last line. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT/"src"
OUT = Path(__file__).resolve().parent/"out"

# One serial process, every native pool pinned to one thread, the
# simulator's own pool left at its serial default.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11
SETUP_CODE = """
import json, sys
import regime_extract as rx
for path in sys.argv[1:]:
    with open(path) as fh:
        rx.from_stopping(rx.solve_z(rx.params_from_config(json.load(fh))))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "simulate", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return args


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT/".git"/"HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT/".git"/ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed, uses_seed):
    import numpy
    return {"seed": seed, "seed_used": uses_seed, "commit": git_commit(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads": {k: os.environ.get(k) for k in
                        (*THREAD_ENV, "REGIME_EXTRACT_THREADS")},
            "loadavg_start": os.getloadavg()}


def measure_setup(configs, speed):
    """Median time, at reference speed, of a fresh interpreter that imports
    the package, parses the configs and solves them (solve_z,
    from_stopping); and the times as measured."""
    from speed import scale
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    before = speed.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, configs)],
                       cwd=ROOT, env=env, check=True, capture_output=True)
        raw.append(time.perf_counter() - t0)
        after = speed.sample()
        scaled.append(scale(raw[-1], before, after))
        before = after
    return statistics.median(scaled), raw


class Round:
    """Outcome of one pass over a workload's jobs."""

    def __init__(self):
        self.wall = 0.0
        self.elapsed_ms = {}     # job id -> ms
        self.scaled_ms = {}      # job id -> ms at reference speed
        self.kernel_s = []       # calibration samples
        self.outcomes = {}       # job id -> ("ok", value) | ("error"|"check", detail)
        self.fails = Counter()   # layer -> failed jobs
        self.errors = Counter()  # exception type -> failed jobs
        self.warnings = Counter()


def run_round(wl, counter, tracer=None, tag="", speed=None):
    """One pass over the jobs. With a speed, the calibration kernel runs
    before the first job and after a job when EVERY_S has passed since it
    last ran, and after the last; each job is scaled by the samples taken
    just before and just after it."""
    from speed import EVERY_S, scale
    from tracing import layer_of_exception
    from workloads import CheckFailed
    rnd = Round()
    before = Counter(counter.counts)
    t_round = time.perf_counter()
    jobs = wl.round_jobs()
    pending = []
    if speed:
        rnd.kernel_s.append(speed.sample())
        t_cal = time.perf_counter()
    for n, job in enumerate(jobs, 1):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = job.run()
            else:
                with tracer.job(f"{tag}{job.id}"):
                    value = job.run()
        except CheckFailed as exc:
            rnd.outcomes[job.id] = ("check", str(exc))
            rnd.fails[exc.layer] += 1
            rnd.errors["CheckFailed"] += 1
        except Exception as exc:  # every failure counts, whatever its type
            rnd.outcomes[job.id] = ("error", type(exc).__name__)
            rnd.fails[layer_of_exception(exc)] += 1
            rnd.errors[type(exc).__name__] += 1
        else:
            rnd.outcomes[job.id] = ("ok", value)
        t1 = time.perf_counter()
        rnd.elapsed_ms[job.id] = 1e3*(t1 - t0)
        if not speed:
            continue
        pending.append(job.id)
        if t1 - t_cal >= EVERY_S or n == len(jobs):
            rnd.kernel_s.append(speed.sample())
            t_cal = time.perf_counter()
            for j in pending:
                rnd.scaled_ms[j] = scale(rnd.elapsed_ms[j], *rnd.kernel_s[-2:])
            pending.clear()
    rnd.wall = time.perf_counter() - t_round
    rnd.warnings = Counter(counter.counts)
    rnd.warnings.subtract(before)
    return rnd


def _time_left(t0, seconds, last):
    """Whether another step as long as the last one ends within seconds."""
    now = time.perf_counter()
    return now - t0 + (now - last) <= seconds


def run_rounds(wl, counter, seconds, speed):
    rounds = []
    t0 = last = time.perf_counter()
    while not rounds or _time_left(t0, seconds, last):
        last = time.perf_counter()
        rounds.append(run_round(wl, counter, speed=speed))
    return rounds


def run_round_pairs(wl, counter, seconds, tracer):
    """Untraced and traced rounds in alternation, so that a drift in
    machine speed reaches both sides of the overhead ratio alike."""
    untraced, traced = [], []
    t0 = last = time.perf_counter()
    while not traced or _time_left(t0, seconds, last):
        last = time.perf_counter()
        untraced.append(run_round(wl, counter))
        with tracer.installed():
            traced.append(run_round(wl, counter, tracer, f"t{len(traced)}/"))
    return untraced, traced


def p90(values):
    """90th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def fingerprint(wl, reference):
    blob = repr((wl.name, wl.inputs, sorted(reference.outcomes.items())))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def consistency(reference, rounds):
    """Problems that make the run incorrect: failed output checks, and any
    job whose outcome differs from the warm-up round's."""
    problems = []
    for k, rnd in enumerate([reference] + rounds):
        for job_id, outcome in rnd.outcomes.items():
            if outcome[0] == "check":
                problems.append(f"round {k} {job_id}: {outcome[1]}")
            elif repr(outcome) != repr(reference.outcomes[job_id]):
                problems.append(f"round {k} {job_id}: outcome differs from "
                                "the warm-up round")
    return problems


def gap_over_gate(rounds):
    return max((v[1]["gap_over_gate"] for r in rounds
                for v in r.outcomes.values()
                if v[0] == "ok" and isinstance(v[1], dict)), default=0.0)


def per_job_median(rounds, field):
    """Per job, the median of its times over the rounds."""
    times = {}
    for r in rounds:
        for job, ms in getattr(r, field).items():
            times.setdefault(job, []).append(ms)
    return {job: statistics.median(v) for job, v in times.items()}


def timings(rounds, field):
    """wall_s, job_p50_ms and job_p90_ms from one field of the rounds:
    the sum of each job's median, and percentiles over the successful
    jobs of each job's median. A job's median rather than its every run,
    so that a percentile falling between two unlike jobs does not move
    with the luck of a few rounds. A job ends the same way in every round
    (see consistency), so the first round tells which jobs succeed."""
    medians = per_job_median(rounds, field)
    lat = [ms for job, ms in medians.items()
           if rounds[0].outcomes[job][0] == "ok"]
    return {
        "wall_s": sum(medians.values())/1e3,
        "job_p50_ms": statistics.median(lat),
        "job_p90_ms": p90(lat),
    }


def end_to_end(rounds, setup_s):
    """The end-to-end metrics; times at reference speed."""
    lat = timings(rounds, "scaled_ms")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (lat["wall_s"], "s"),
        "job_p50_ms": (lat["job_p50_ms"], "ms"),
        "job_p90_ms": (lat["job_p90_ms"], "ms"),
        "peak_rss_mb": (rss_kb/1024.0, "MB"),
    }
    kernel = [k for r in rounds for k in r.kernel_s]
    samples = {"setup_runs": SETUP_REPEATS, "rounds": len(rounds),
               "jobs_ok": sum(v[0] == "ok" for r in rounds
                              for v in r.outcomes.values()),
               "peak_rss_mb": 1, "kernel_samples": len(kernel),
               "kernel_ms_min_median_max": [
                   round(1e3*f(kernel), 3) for f in (min, statistics.median, max)]}
    return metrics, samples


# (metric, span, scale from seconds, unit): mean time per call of a span
PER_CALL = (
    ("model.check_assumptions.us", "model.check_assumptions", 1e6, "us/call"),
    ("roots.solve_characteristic.us", "roots.solve_characteristic", 1e6,
     "us/call"),
    ("stopping.solve_z.ms", "stopping.solve_z", 1e3, "ms/call"),
    ("stopping.verify_fbp.ms", "stopping.verify_fbp", 1e3, "ms/level"),
    ("control.U.us", "control.U", 1e6, "us/call"),
    ("control.U_xx.us", "control.U_xx", 1e6, "us/call"),
    ("control.U_report.ms", "control.U_report", 1e3, "ms/call"),
    ("control.verify_hjb.s", "control.verify_hjb", 1.0, "s/call"),
    ("mcsim.estimate_value.s", "mcsim.estimate_value", 1.0, "s/state"),
    ("mcsim.simulate_traces.s", "mcsim.simulate_traces", 1.0, "s/call"),
    ("mcsim.skorokhod_check.s", "mcsim.skorokhod_check", 1.0, "s/call"),
    ("cli.verify.s", "cli.main", 1.0, "s/call"),
)
# spans whose calls per round are reported as <span>.calls
COUNTED = ("model.check_assumptions", "roots.solve_characteristic",
           "stopping.solve_z", "stopping.verify_fbp", "stopping.x_star",
           "stopping.v", "control.U", "control.U_xx", "control.U_report",
           "mcsim.estimate_value")


def per_layer(tracer, untraced, traced):
    from tracing import LAYERS
    n = len(traced)
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "work": 0,
            "under_estimate": 0.0, "work_under_estimate": 0}
    summary = tracer.summary()

    def get(span):
        return summary.get(span, zero)

    def ratio(a, b, scale=1.0):
        return scale*a/b if b else 0.0

    m = {}
    for metric, span, scale, unit in PER_CALL:
        m[metric] = (ratio(get(span)["total"], get(span)["calls"], scale), unit)
    for span in COUNTED:
        m[f"{span}.calls"] = (get(span)["calls"]/n, "calls/round")

    hjb = get("control.verify_hjb")
    fast, generic = get("mcsim._fast_reflect_batch"), get("mcsim._generic_batch")
    layer_self = {L: sum(v["self"] for k, v in summary.items()
                         if k.split(".")[0] == L) for L in LAYERS}
    m["control.verify_hjb.self_s"] = (ratio(hjb["self"], hjb["calls"]),
                                      "s/call")
    m["control.verify_hjb.us_per_state"] = (
        ratio(hjb["total"], hjb["work"], 1e6), "us/state")
    m["mcsim.fast.ns_per_path_step"] = (
        ratio(fast["total"], fast["work"], 1e9), "ns")
    # the generic engine as estimate_value runs it, not while recording traces
    m["mcsim.generic.ns_per_path_step"] = (
        ratio(generic["under_estimate"], generic["work_under_estimate"], 1e9),
        "ns")
    m["mcsim.path_steps"] = ((fast["work"] + generic["work"])/n, "count/round")
    m["mcsim.gap_over_gate"] = (gap_over_gate(traced), "ratio")
    m["cli.overhead_ms"] = (ratio(layer_self["cli"], get("cli.main")["calls"],
                                  1e3), "ms/call")

    fails, warns = Counter(), Counter()
    for r in traced:
        fails.update(r.fails)
        warns.update(r.warnings)
    for L in LAYERS:
        m[f"{L}.self_s"] = (layer_self[L]/n, "s/round")
        m[f"{L}.fails"] = (fails[L]/n, "count/round")
        m[f"{L}.numeric_warnings"] = (warns[L]/n, "count/round")
    m["bench.fails"] = (fails["bench"]/n, "count/round")
    traced_median = statistics.median(r.wall for r in traced)
    m["bench.traced_wall_s"] = (traced_median, "s")
    m["bench.trace_overhead_frac"] = (
        traced_median/statistics.median(r.wall for r in untraced) - 1.0,
        "ratio")
    m["bench.outside_layers_frac"] = (
        1.0 - sum(layer_self.values())/sum(r.wall for r in traced), "ratio")
    samples = {"traced_rounds": n, "untraced_rounds": len(untraced),
               "spans": len(tracer.spans)}
    return m, samples


def write_spans(path, header, tracer):
    """One JSON header line, then one line per span:
    [name, start_s, end_s, parent_index, job_id, work]."""
    OUT.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for name, a, b, parent, job, work in tracer.spans:
            fh.write(json.dumps([name, a - t0, b - t0, parent, job, work])
                     + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    os.environ.pop("REGIME_EXTRACT_THREADS", None)
    if not (SRC/"regime_extract"/"__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from speed import Speed

    sizes = workloads.TOY if args.toy else workloads.Sizes()
    wl = workloads.WORKLOADS[args.workload](ROOT/"configs", args.seed, sizes)
    env = environment(args.seed, wl.uses_seed)
    counter = tracing.WarningCounter()
    with counter.active():
        setup = None
        if not args.trace:
            speed = Speed()
            setup = measure_setup(wl.setup_configs, speed)
        reference = run_round(wl, counter)      # warm-up, untimed
        if args.trace:
            tracer = tracing.Tracer()
            untraced, traced = run_round_pairs(wl, counter, args.seconds,
                                               tracer)
            rounds = untraced + traced
        else:
            rounds = run_rounds(wl, counter, args.seconds, speed)
    env["loadavg_end"] = os.getloadavg()

    if args.trace:
        metrics, samples = per_layer(tracer, untraced, traced)
    else:
        metrics, samples = end_to_end(rounds, setup[0])
        samples["setup_runs_s"] = [round(t, 4) for t in setup[1]]
    # An operation is one of the workload's jobs; the rounds repeat it for
    # timing, and consistency() makes the run incorrect unless each job
    # ends the same way in every round. So the counts depend on the seed
    # only, not on how many rounds fitted into --seconds.
    attempted = len(reference.outcomes)
    failed = sum(v[0] != "ok" for v in reference.outcomes.values())
    if args.trace:
        metrics["bench.fail_frac"] = (failed/attempted, "ratio")
    problems = consistency(reference, rounds)
    fp = fingerprint(wl, reference)

    errors = Counter()
    for r in rounds:
        errors.update(r.errors)
    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} jobs/round={len(reference.outcomes)}")
    print("env " + json.dumps(env))
    print(f"fingerprint {fp}")
    print("samples " + json.dumps(samples))
    print(f"failures {failed}/{attempted} jobs; job runs failed by type "
          f"{dict(errors)}")
    print(f"  {'fail_frac':36s} {failed/attempted:14.6g} ratio")
    if not args.trace:
        raw = timings(rounds, "elapsed_ms")
        raw["setup_s"] = statistics.median(setup[1])
        print("as measured, not scaled " + json.dumps(
            {k: round(v, 4) for k, v in raw.items()}))
    if len(reference.outcomes) <= 20:
        print("job_median_ms " + json.dumps(
            {j: round(ms, 3) for j, ms in per_job_median(
                rounds, "elapsed_ms" if args.trace else "scaled_ms"
            ).items()}))
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")

    record = {"env": env, "fingerprint": fp, "samples": samples,
              "workload": wl.name, "trace": args.trace}
    if args.trace:
        write_spans(OUT/f"{wl.name}-seed{args.seed}-spans.jsonl", record,
                    tracer)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
