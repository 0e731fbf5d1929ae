#!/usr/bin/env python3
"""Benchmark of the dyckwalk command line, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload counts --seed 1 --seconds 28 --trace 0

With --trace 0 the benchmark runs the workload's dyckwalk processes one at
a time, in whole rounds of the same command lines, until the next round
would end after --seconds.  Each process is timed from outside (wall time,
and rusage from wait4), and every record is checked against computations made apart from the program
(see checks.py).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and the end-to-end metrics:

    wall_s       median over rounds of the round's summed process wall time
    peak_rss_mb  largest ru_maxrss of any workload process
    setup_s      median wall time of the set-up probes, processes that do
                 no work, a pair of them before every round and after the last

With --trace 1 every command and probe of a round also runs through
traced.py in its own process, right after its untraced run, and the
metrics are the per-layer ones (medians over rounds).  Spans are written
to perfbench/out/ when the run ends.

--workload all runs the four workloads in turn, each in a fresh
run.py process, and names the metrics <workload>.<metric>.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PROCESS_TIMEOUT_S = 150
MAX_STEPS = str(10 ** 7)
TAIL_SEEDS = 6


def walk_argv(m: int, p: str, trials: int, seed: int) -> list[str]:
    return ["walk", "--m", str(m), "--p", p, "--trials", str(trials),
            "--seed", str(seed), "--max-steps", MAX_STEPS]


def probe_argvs(seed: int) -> list[list[str]]:
    """Set-up probes: dyckwalk processes that do no real work.

    Between them they call every traced function once, so a traced run
    sees every layer, even one its workload leaves idle.
    """
    return [["verify", "--n-max", "0", "--k-max", "0"], walk_argv(2, "1/3", 1000, seed)]


# Each workload maps the seed to the dyckwalk command lines of one round,
# which every round of a run repeats.  README.md says why each was chosen.
def counts_round(seed: int) -> list[list[str]]:
    return [
        ["table", "--n", "10", "--kmax", "2000"],
        ["table", "--n", "100", "--kmax", "4000"],
        ["table", "--n", "1000", "--kmax", "2000"],
        ["hpoly", "--m", "3000"],
    ]


def verify_round(seed: int) -> list[list[str]]:
    return [["verify", "--n-max", "20", "--k-max", "300"]]


def tail_round(seed: int) -> list[list[str]]:
    # The long-tail seeds are fixed for a run, so a faster or slower
    # program, making more or fewer rounds, is timed on the same inputs.
    return [walk_argv(2000, "2/5", 200, seed)] + [
        walk_argv(150, "1/2", 4000, 1000 * seed + i) for i in range(1, TAIL_SEEDS + 1)
    ]


def bulk_round(seed: int) -> list[list[str]]:
    return [walk_argv(3, "1/3", 4_000_000, seed), walk_argv(8, "2/5", 2_000_000, seed)]


WORKLOADS = {
    "counts": counts_round,
    "verify-grid": verify_round,
    "walk-tail": tail_round,
    "walk-bulk": bulk_round,
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics: spans give <name>_s (self time) and <name>_calls.
SPAN_TIMES = (
    "heightpoly.height_poly", "heightpoly.power_diff_ratio", "poly.mul", "poly.add",
    "genfunc.series_numerator", "genfunc.series_denominator", "genfunc.series_coeffs",
    "genfunc.counts_from_series", "oracle.bruteforce", "oracle.dp", "oracle.contfrac",
    "walk.simulate", "walk.conditional_hit_time", "walk.hit_probability",
)
SPAN_CALLS = ("heightpoly.height_poly", "poly.mul", "oracle.dp")
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "cli.output_mb": "MB",
    "cli.cpu_s": "s",
    **{f"{name}_s": "s" for name in SPAN_TIMES},
    **{f"{name}_calls": "count" for name in SPAN_CALLS},
    "heightpoly.rss_growth_mb": "MB",
    "genfunc.series_coeffs_madds": "count",
    "genfunc.max_count_bits": "bits",
    "oracle.bruteforce_paths": "count",
    "walk.trial_steps": "count",
    "walk.longest_walk": "steps",
    "walk.ns_per_trial_step": "ns",
    "walk.rss_growth_mb": "MB",
    "trace.overhead_pct": "%",
}


@dataclass
class Process:
    code: int
    out: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_process(args: list[str]) -> Process:
    """Run one child to its end; time it and read its rusage from wait4."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    return Process(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss * 1024 / 1e6)


def dyckwalk(argv: list[str]) -> Process:
    return run_process([sys.executable, "-m", "dyckwalk", *argv])


def _last_json(out: bytes):
    """The JSON object on the last line of a child's output, or None."""
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return None


@dataclass
class Tally:
    """Operations attempted and failed, and problems with outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[tuple, str] = field(default_factory=dict)
    verified: set[str] = field(default_factory=set)

    def run(self, argv: list[str]) -> tuple[Process, dict | None]:
        """Run and check one dyckwalk command; a record only if it did not fail."""
        self.attempted += 1
        proc = dyckwalk(argv)
        record = _last_json(proc.out)
        if record is None or record.get("status") == "error":
            self.failed += 1
            print(f"failed: dyckwalk {' '.join(argv)} (exit {proc.code})", file=sys.stderr)
            return proc, None
        digest = checks.record_digest(proc.out)
        seen = self.digests.setdefault(tuple(argv), digest)
        if seen != digest:
            self.problems.append(f"dyckwalk {' '.join(argv)}: output differs between runs")
        if digest not in self.verified:
            found = checks.check(argv, record)
            self.problems += [f"dyckwalk {' '.join(argv)}: {p}" for p in found]
            if not found:
                self.verified.add(digest)
        return proc, record


def self_times(spans: list[list]) -> dict[str, float]:
    """Each span's duration minus the time its child spans cover, summed by name."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


def run_traced(tally: Tally, argv: list[str]) -> dict | None:
    """Run one command through traced.py in its own process; its result or None."""
    child = run_process([sys.executable, str(BENCH / "traced.py"), *argv])
    result = _last_json(child.out) if child.code == 0 else None
    if result is None:
        tally.problems.append(f"traced run of {' '.join(argv)} failed (exit {child.code})")
    else:
        tally.problems += result["problems"]
    return result


def run_pair(tally: Tally, argv: list[str]):
    """Run one command untraced, then traced."""
    proc, record = tally.run(argv)
    result = run_traced(tally, argv)
    if result and record and result["digest"] != checks.record_digest(proc.out):
        tally.problems.append(f"traced run of {' '.join(argv)} printed another record")
    return proc, record, result


def layer_metrics(results: list[dict], untraced_s: float) -> dict[str, float]:
    """Layer metrics of one round from its traced results; the tracing
    overhead is the time the spans added over the untraced commands' time."""
    times: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    rss = {"heightpoly": 0.0, "walk": 0.0}
    for result in results:
        for name, t in self_times(result["spans"]).items():
            times[name] = times.get(name, 0.0) + t
        for name, *_ in result["spans"]:
            calls[name] = calls.get(name, 0) + 1
        for name, value in result["counters"].items():
            if name in ("max_count_bits", "longest_walk"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        for layer, growth in result["rss_growth_mb"].items():
            rss[layer] = max(rss[layer], growth)
    metrics = {f"{name}_s": times.get(name, 0.0) for name in SPAN_TIMES}
    metrics |= {f"{name}_calls": calls.get(name, 0) for name in SPAN_CALLS}
    steps = counters.get("trial_steps", 0)
    metrics |= {
        "heightpoly.rss_growth_mb": rss["heightpoly"],
        "genfunc.series_coeffs_madds": counters.get("madds", 0),
        "genfunc.max_count_bits": counters.get("max_count_bits", 0),
        "oracle.bruteforce_paths": counters.get("bruteforce_paths", 0),
        "walk.trial_steps": steps,
        "walk.longest_walk": counters.get("longest_walk", 0),
        "walk.ns_per_trial_step": 1e9 * metrics["walk.simulate_s"] / steps if steps else 0.0,
        "walk.rss_growth_mb": rss["walk"],
        "trace.overhead_pct":
            100.0 * sum(r["span_cost_s"] for r in results) / untraced_s if untraced_s else 0.0,
    }
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmds = WORKLOADS[workload](seed)
    tally = Tally()
    setup: list[float] = []
    rounds: list[dict[str, float]] = []
    traces: list[dict] = []
    peak_rss = 0.0

    def run_all(argvs):
        """Run each command once: (argv, process, record, traced result or None)."""
        if trace:
            return [(argv, *run_pair(tally, argv)) for argv in argvs]
        return [(argv, *tally.run(argv), None) for argv in argvs]

    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # A pair of set-up probes before every round, and one after the
        # last, samples set-up time across the whole run.
        probes = run_all(probe_argvs(seed))
        setup += [proc.wall_s for _, proc, _, _ in probes]
        runs = run_all(cmds)
        procs = [proc for _, proc, _, _ in runs]
        peak_rss = max([peak_rss] + [p.maxrss_mb for p in procs])
        done = [(p, r) for _, p, r, _ in runs if r is not None]
        row = {
            "wall_s": sum(p.wall_s for p in procs),
            "cli.overhead_s": sum(p.wall_s - r["elapsed_ms"] / 1000 for p, r in done),
            "cli.output_mb": sum(len(p.out) for p in procs) / 1e6,
            "cli.cpu_s": sum(p.cpu_s for p in procs),
        }
        if trace:
            results = [res for _, _, _, res in probes + runs if res]
            untraced_s = sum(rec["elapsed_ms"] for _, _, rec, _ in probes + runs if rec) / 1000
            row |= layer_metrics(results, untraced_s)
            traces += [{"argv": argv, "spans": res["spans"]}
                       for argv, _, _, res in probes + runs if res]
        rounds.append(row)
        now = time.perf_counter()
        if len(rounds) >= (1 if trace else 2) and now - start + (now - began) > seconds:
            break
    setup += [tally.run(argv)[0].wall_s for argv in probe_argvs(seed)]
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)

    def median(name):
        return statistics.median(row.get(name, 0.0) for row in rounds)

    if trace:
        values = {name: median(name) for name in PER_LAYER if name != "cli.startup_s"}
        values["cli.startup_s"] = statistics.median(setup)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(traces))
    else:
        values = {"wall_s": median("wall_s"), "peak_rss_mb": peak_rss,
                  "setup_s": statistics.median(setup)}
        units = END_TO_END
    print(f"{workload}: {len(rounds)} rounds, {len(setup)} set-up probes "
          f"in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dyckwalk" / "__init__.py").is_file():
        print(f"error: no dyckwalk package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # A child's ru_maxrss starts from the size of the process that
        # forked it, so each workload runs in a fresh, small process.
        results = {}
        for name in WORKLOADS:
            child = run_process([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)])
            results[name] = _last_json(child.out) or {
                "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    else:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        for metric, m in summary["metrics"].items():
            print(f"{args.workload:12} {metric:32} {m['value']:>16.6g} {m['unit']}",
                  file=sys.stderr)
    line = json.dumps(summary)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace, **summary}) + "\n")
    print(line)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
