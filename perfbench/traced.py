"""Run one dyckwalk command in-process with a span around each layer call.

Usage (from the repository root, with the package importable):

    PYTHONPATH=src python3 perfbench/traced.py table --n 10 --kmax 2000

The public functions of poly, heightpoly, genfunc, oracle and walk are
replaced by timing wrappers in every dyckwalk module namespace that holds
them, since modules import each other's functions by name; nothing under
src/ changes.  The command then runs through dyckwalk.cli.main with its
standard output captured, so the calls are exactly those of a
``dyckwalk`` process.  The last line printed is one JSON object: the
spans (name, start, end, parent index), counters computed from the calls'
inputs and outputs, ru_maxrss growth inside the heavy calls, the time the
spans themselves added, and the record's elapsed_ms and digest for
comparison with an untraced run.
"""

from __future__ import annotations

import io
import json
import math
import resource
import sys
import time
from contextlib import redirect_stdout

import dyckwalk
from dyckwalk import cli, genfunc, heightpoly, oracle, poly, walk

from checks import record_digest
from replay import replay

# span name -> (module, function)
TRACED = {
    "poly.add": (poly, "add"),
    "poly.mul": (poly, "mul"),
    "heightpoly.height_poly": (heightpoly, "height_poly"),
    "heightpoly.power_diff_ratio": (heightpoly, "power_diff_ratio"),
    "genfunc.series_numerator": (genfunc, "series_numerator"),
    "genfunc.series_denominator": (genfunc, "series_denominator"),
    "genfunc.series_coeffs": (genfunc, "series_coeffs"),
    "genfunc.counts_from_series": (genfunc, "counts_from_series"),
    "oracle.bruteforce": (oracle, "count_paths_bruteforce"),
    "oracle.dp": (oracle, "count_paths_dp"),
    "oracle.contfrac": (oracle, "count_by_contfrac"),
    "walk.simulate": (walk, "simulate"),
    "walk.hit_probability": (walk, "hit_probability"),
    "walk.conditional_hit_time": (walk, "conditional_hit_time"),
}
NAMESPACES = (dyckwalk, cli, genfunc, heightpoly, oracle, poly, walk)
# Calls whose ru_maxrss growth is recorded, by layer.
RSS_LAYERS = {"heightpoly.height_poly": "heightpoly", "walk.simulate": "walk"}
# Calls whose arguments and results feed the counters below.
KEPT = ("genfunc.series_coeffs", "genfunc.counts_from_series", "oracle.bruteforce", "walk.simulate")
CALIBRATION_CALLS = 2000


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.rss_growth_mb = {layer: 0.0 for layer in RSS_LAYERS.values()}
        self.kept: list[tuple[str, tuple, object]] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            rss = _maxrss_mb() if name in RSS_LAYERS else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if rss is not None:
                self.rss_growth_mb[RSS_LAYERS[name]] += _maxrss_mb() - rss
            if name in KEPT:
                self.kept.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        for name, (module, attr) in TRACED.items():
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for namespace in NAMESPACES:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)


def span_costs_s(names) -> dict[str, float]:
    """Time one span adds to a call, by span name.

    A wrapped no-op against a bare one, the best of five batches; a name
    whose wrapper also reads ru_maxrss or keeps the call costs more.
    """
    def noop(*args):
        return None

    costs = {}
    for name in names:
        wrapped = Tracer().wrap(name, noop)
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                noop()
            t1 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                wrapped()
            t2 = time.perf_counter()
            best = min(best, (t2 - 2 * t1 + t0) / CALIBRATION_CALLS)
        costs[name] = max(best, 0.0)
    return costs


def _madds(kmax: int, den_degree: int) -> int:
    """Multiply-adds of series_coeffs: sum over k <= kmax of min(k, deg den)."""
    low = min(kmax, den_degree)
    return low * (low + 1) // 2 + (kmax - low) * den_degree


def counters(kept) -> tuple[dict, list[str]]:
    """Counters from the kept calls, and any disagreement of the walk replay."""
    out = {"madds": 0, "max_count_bits": 0, "bruteforce_paths": 0,
           "trial_steps": 0, "longest_walk": 0}
    problems = []
    orders = set()
    for name, args, result in kept:
        if name == "genfunc.series_coeffs":
            _, den, kmax = args
            out["madds"] += _madds(kmax, len(den) - 1)
        elif name == "genfunc.counts_from_series":
            out["max_count_bits"] = max([out["max_count_bits"]] + [c.bit_length() for c in result])
        elif name == "oracle.bruteforce":
            orders.add(args[0])
        elif name == "walk.simulate":
            cfg, stats = args[0], result
            rep = replay(cfg.m, float(cfg.p), cfg.trials, cfg.seed, cfg.max_steps)
            mean = rep.right_len_sum / rep.hits_right if rep.hits_right else math.nan
            got = (stats.hits_right, stats.hits_left, stats.truncated, stats.mean_hit_len)
            if got[:3] != (rep.hits_right, rep.hits_left, rep.truncated) or not (
                got[3] == mean or math.isnan(got[3]) and math.isnan(mean)
            ):
                problems.append(f"replay of {cfg} gives {rep}, simulate gave {stats}")
            out["trial_steps"] += rep.trial_steps
            out["longest_walk"] = max(out["longest_walk"], rep.longest_walk)
    # The histograms behind count_paths_bruteforce are built once per order,
    # enumerating all Catalan(k) paths of that order.
    out["bruteforce_paths"] = sum(math.comb(2 * k, k) // (k + 1) for k in orders)
    return out, problems


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    with redirect_stdout(captured):
        code = tracer.wrap("cli.main", cli.main)(argv)
    text = captured.getvalue().encode()
    record = json.loads(text.splitlines()[-1])
    counts, problems = counters(tracer.kept)
    costs = span_costs_s({name for name, *_ in tracer.spans})
    print(json.dumps({
        "code": code,
        "elapsed_ms": record["elapsed_ms"],
        "digest": record_digest(text),
        "spans": tracer.spans,
        "rss_growth_mb": tracer.rss_growth_mb,
        "counters": counts,
        "span_cost_s": sum(costs[name] for name, *_ in tracer.spans),
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
