"""pshdef benchmark: time to verdict, one request at a time.

Run from the repository root, one workload at a time or all three:

    python3 perfbench/run.py --workload type4-staged --seed 1 --seconds 30 --trace 0
    for w in type4-staged multiz-ladder certify-check; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0 | tail -1
    done

Each workload is a closed loop with one client in this process: the next
request is sent when the previous verdict is in.  A request is expression
text; the program parses it and answers from scratch, as one CLI call does.
The run measures whole passes (each input class once per pass) until
`--seconds` have gone by and a minimum number of passes is done, checks
every verdict against the hand-written table in `expected.py`, and
re-checks each returned certificate on a shell with another seed.

Between untraced requests, outside their measured time, the run times a
fixed reference workload (`reference.py`) that uses no pshdef code.  The
end-to-end times are given in units of its median time in the same run
(`ref`), so that a shared host running faster or slower for a while moves
both and cancels; the detail line before the result also gives them in
seconds, with the reference time.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs each pass
twice in a row, untraced and with every wrapped pshdef function recording
spans, the order alternating from pass to pass; it checks that both copies
give identical outcomes and prints the per-layer metrics (per request),
the tracing overhead and the share of wall time in named spans.  Spans are
written to `.perfbench_out/` at exit.

The last line of standard output is the result as one JSON object.
Lines before it describe the run: environment, per-class times, layers.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS/OpenMP thread: on a small shared machine, measure the program,
# not the scheduler.  Set before numpy is first imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
# the reference workload runs once per this much untraced request time
REFERENCE_EVERY_S = 0.5
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("type4-staged", "multiz-ladder", "certify-check")

END_TO_END = {
    "verdicts_per_ref": "1/ref",
    "verdict_ref.p50": "ref",
    "verdict_ref.tail": "ref",
    "verdict_ref.geomean": "ref",
    "right_verdicts": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def setup_probe(src: str, workload: str, seed: int) -> dict:
    """Set-up time in one fresh interpreter: {"import_s", "inputs_s"}."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), src, workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_request(workloads, row, seed, tracer=None):
    """One request; returns (row, seed, outcome, seconds)."""
    if tracer is not None:
        tracer.begin_request()
    t0 = time.perf_counter()
    try:
        answer = workloads.call(row, seed)
    except Exception as e:  # a crash is a failed request, not a crashed run
        traceback.print_exc(file=sys.stderr)
        answer = e
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.end_request()
    return row, seed, workloads.summarise(row, answer), t1 - t0


def run_loop(workloads, work, seconds, gauge, tracer=None, between=None):
    """Closed loop over whole passes until `seconds` of requests have run,
    and untraced, at least `work.min_passes` passes.

    `gauge()` runs between untraced requests, outside their measured time,
    once at the start and then once per `REFERENCE_EVERY_S` of request
    time, and returns the reference workload's time.

    With `tracer`, each pass runs twice in a row, untraced and traced, with
    the order alternating, so both copies meet the same state of a shared
    host.  `between(s)` and a garbage collection run after each pass,
    outside the measured time.
    Returns the untraced and traced (row, seed, outcome, seconds) records,
    the wall time of each and the reference times.
    """
    plain, traced, refs = [], [], []
    plain_s = traced_s = 0.0

    def run_plain(batch):
        nonlocal plain_s
        for row, s in batch:
            t0 = time.perf_counter()
            plain.append(timed_request(workloads, row, s))
            plain_s += time.perf_counter() - t0
            while len(refs) < 1 + plain_s / REFERENCE_EVERY_S:
                refs.append(gauge())

    def run_traced(batch):
        nonlocal traced_s
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced.extend(timed_request(workloads, row, s, tracer) for row, s in batch)
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()

    for i, batch in enumerate(work.passes()):
        if tracer is None:
            run_plain(batch)
        elif i % 2:
            run_traced(batch)
            run_plain(batch)
        else:
            run_plain(batch)
            run_traced(batch)
        if plain_s + traced_s >= seconds and (tracer or i + 1 >= work.min_passes):
            break
        if between is not None:
            between(plain_s)
        # every pass starts from a collected heap, so a pass does not pay
        # for the garbage of the ones before it
        gc.collect()
    return plain, plain_s, traced, traced_s, refs


def check(workloads, work, records):
    """(right count, failed count, problems) for a list of records."""
    right = failed = 0
    problems = []
    certificates = {}
    for row, seed, outcome, _ in records:
        ok, problem = workloads.judge(work, row, outcome)
        right += ok
        if problem:
            problems.append(problem)
        failed += outcome.crashed
        if ok and outcome.verdict == "Certified":
            certificates.setdefault((row, outcome), seed)
    for (row, outcome), seed in certificates.items():
        if not workloads.recheck_certificate(row, outcome, seed):
            problems.append(f"{row.name}: certificate fails on a shell with seed {seed + 1}")
    return right, failed, problems


def timing_metrics(work, records, wall_s, unit_s=1.0, unit="s") -> dict:
    """Throughput and per-request times, with `unit` = `unit_s` seconds."""
    times = [t / unit_s for *_, t in records]
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    return {
        f"verdicts_per_{unit}": len(times) / (wall_s / unit_s),
        f"verdict_{unit}.p50": statistics.median(times),
        f"verdict_{unit}.tail": cuts[work.tail_pct - 1],
        f"verdict_{unit}.geomean": math.exp(statistics.fmean(math.log(t) for t in times)),
    }


def per_class(records) -> dict:
    by = {}
    for row, *_, t in records:
        by.setdefault(row.name, []).append(t)
    return {k: {"n": len(v), "median_s": statistics.median(v)} for k, v in sorted(by.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pshdef", "__init__.py")):
        print(
            "perfbench: src/pshdef not found; run from the root of a pshdef checkout",
            file=sys.stderr,
        )
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, src)
    import pshdef

    if not os.path.abspath(pshdef.__file__).startswith(src + os.sep):
        print(f"perfbench: imported pshdef from {pshdef.__file__}", file=sys.stderr)
        return 2
    import reference
    import tracer as tracing
    import workloads

    env = environment()
    # Set-up probes are spread over the run, between passes, so that one
    # slow moment of a shared host does not move all of them.
    probes = [setup_probe(src, args.workload, args.seed)]

    def probe_between(elapsed):
        if len(probes) < SETUP_PROBES and elapsed >= args.seconds * len(probes) / SETUP_PROBES:
            probes.append(setup_probe(src, args.workload, args.seed))

    work = workloads.build(args.workload, args.seed)
    for row in workloads.WARMUP:
        timed_request(workloads, row, 2 * args.seed)
    tr = tracing.Tracer() if args.trace else None
    # a traced run keeps probe processes out of the untraced/traced comparison
    records, wall_s, traced, traced_wall, refs = run_loop(
        workloads, work, args.seconds, reference.timed, tr, None if tr else probe_between
    )
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(src, args.workload, args.seed))
    right, failed, problems = check(workloads, work, records)
    attempted = len(records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "requests": attempted,
        "wall_s": wall_s,
        "tail_percentile": work.tail_pct,
        "reference_s": statistics.median(refs),
        "seconds": timing_metrics(work, records, wall_s),
        "wrong_verdicts": attempted - right,
        "per_class": per_class(records),
        "problems": problems,
    }

    if args.trace == 0:
        metrics = timing_metrics(work, records, wall_s, detail["reference_s"], "ref")
        metrics["right_verdicts"] = right / attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = statistics.median(p["import_s"] + p["inputs_s"] for p in probes)
        units = END_TO_END
    else:
        attempted += len(traced)
        # identical outcomes, so the checks of the untraced run cover these too
        for (row, _, a, _), (*_, b, _) in zip(records, traced):
            if a != b:
                problems.append(f"{row.name}: untraced {a} but traced {b}")
        metrics, summary = tracing.analyse(tr.spans, len(traced), traced_wall)
        untraced_rate = len(records) / wall_s
        traced_rate = len(traced) / traced_wall
        metrics["trace.overhead"] = 1.0 - traced_rate / untraced_rate
        metrics["trace.verdicts_per_s"] = traced_rate
        metrics["wrong_verdicts"] = (len(records) - right) / len(records)
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in probes)
        units = {k: _layer_unit(k) for k in metrics}
        detail["trace"] = summary

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    if args.trace:
        tr.write(f"{stem}-spans.tsv")
    with open(f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump({**detail, "metrics": metrics}, f, indent=1)
    print(json.dumps(detail))
    for p in problems:
        print(f"problem: {p}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(("ratio", "coverage", "overhead", "wrong_verdicts")):
        return "share"
    if name.startswith("setup."):
        return "s"
    if name == "trace.verdicts_per_s":
        return "1/s"
    if name.endswith("self_s"):
        return "s/req"
    return "count/req"


if __name__ == "__main__":
    sys.exit(main())
