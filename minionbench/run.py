#!/usr/bin/env python3
"""The minion-test benchmark: time to a certified verdict on three workloads.

Run from the repository root:

    python3 minionbench/run.py --workload lp-colouring --seed 1 --seconds 35 --trace 0
    python3 minionbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One process, one caller, queries back to back (a closed loop).  The run
cycles through the workload's jobs until ``--seconds`` have passed and every
job has run at least once.  ``--trace 1`` spends half the time untraced and
half traced, and reports the per-layer metrics.  The last line of output is
one JSON object; the exit code is 1 when the correctness gate fails and 2
when minionlab cannot be imported.  README.md defines every metric.
"""

import os

# numpy's OpenBLAS would otherwise start one thread per core; pin before import
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("lp-colouring", "gram", "digraph-sweep")
SETUP_PROBES = 8  # extra set-ups in child processes; with the run's own, a median of 9


def setup(workload: str, seed: int):
    """Import minionlab, then build and parse the workload's structures."""
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import verify
    import workloads

    expected = verify.load_expected()
    job_list = workloads.jobs(workload, seed, expected)
    return measure.Loop(job_list, workloads.structures(job_list, seed), expected)


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh child process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def environment(args, budget) -> dict:
    import numpy

    from minionlab import rationals

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "rational_backend": rationals.RATIONAL_BACKEND,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "budget": dataclasses.asdict(budget),
    }


def write_trace(recorder, loop, workload: str, seed: int) -> Path:
    path = BENCH_DIR / "traces" / f"{workload}-{seed}.json"
    path.parent.mkdir(exist_ok=True)
    doc = {"fields": ["name", "start", "end", "parent", "execution"],
           "spans": recorder.spans, "executions": loop.executed}
    path.write_text(json.dumps(doc))
    return path


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, timeout=900).returncode)
    return code


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    t0 = perf_counter()
    try:
        loop = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import the package under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    own_setup = perf_counter() - t0
    if args.setup_only:
        print(own_setup)
        return 0
    import measure
    import verify

    info: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(args, loop.budget)}
    if args.trace:
        import spans

        untraced = loop.run(args.seconds / 2)
        recorder = spans.SpanRecorder()
        with spans.patched(recorder):
            samples = loop.run(args.seconds / 2, recorder)
        metrics = measure.layer_metrics(samples)
        metrics["trace.overhead_s"] = (measure.end_to_end(samples)["decide_s"]
                                       - measure.end_to_end(untraced)["decide_s"])
        info["hot_module"] = measure.hot_module(metrics, args.workload)
        info["trace_file"] = str(write_trace(recorder, loop, args.workload, args.seed).relative_to(ROOT))
        units = measure.PER_LAYER
    else:
        # Set-up time drifts with the host over seconds, so the probes are
        # spread over the run rather than taken back to back.
        setups, samples = [own_setup], {}
        for _ in range(SETUP_PROBES):
            setups.append(setup_seconds(args.workload, args.seed))
            for job, ss in loop.run(args.seconds / SETUP_PROBES).items():
                samples.setdefault(job, []).extend(ss)
        info["setup_samples_s"] = [round(s, 4) for s in setups]
        metrics = {"setup_s": statistics.median(setups), **measure.end_to_end(samples),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = measure.END_TO_END
    shares = measure.verdict_shares(loop)
    metrics["verdicts.numeric_share"] = shares["numeric_share"]
    metrics["verdicts.uncertified_share"] = shares["uncertified_share"]
    for message in verify.relation_violations(loop.statuses):
        loop.problem(message)
    info.update({
        "queries": len(loop.statuses),
        "query_ms_samples": len(samples),
        "executions": loop.attempted,
        "fail_share": loop.failed / loop.attempted,
        **shares,
        "problems": list(loop.problems)[:20],
    })
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({"info": info}))
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
