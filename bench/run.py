#!/usr/bin/env python3
"""Benchmark of the obstructor toolkit: certified-verdict latency per workload.

Usage (from the repository root):

    python3 bench/run.py --workload vk_corpus --seed 1 --seconds 10 --trace 0

One process runs one workload in a closed loop: a single thread, each
operation starting only after the previous one returned.  The program is
imported from ``src/`` of the same checkout and nowhere else; without it
the run stops with a non-zero exit code and prints no result.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, which replays every operation stage by stage
after timing it whole.  Answers are checked after the timed loop against
oracles that do not use the program (see oracles.py).  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The line
before it, starting with ``record``, holds provenance, the per-input
summary and every problem found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is timed this many times before the first round and again after
# every round, so that its median samples the whole run, as the operations
# do, and not one instant of a host whose speed drifts.
SETUP_PER_ROUND = 3

# Per-layer metrics of the traced run, all means per operation; a span
# named X gives the metric X_s.
SPAN_METRICS = (
    "vankampen.configuration_space",
    "vankampen.general_position_map",
    "vankampen.obstruction_cocycle",
    "vankampen.is_trivial",
    "vankampen.verify_ados",
    "gf2.kernel_basis",
    "gf2.transpose",
    "gf2.solve",
    "homology.betti",
    "complexes.init",
    "complexes.double_over",
    "building.build",
    "building.opp_complex",
    "building.verify_dbl_embedding",
    "cli.vk_certificate",
)
COUNT_METRICS = (
    "vankampen.cells_total",
    "vankampen.cells_n",
    "vankampen.perturbations",
    "vankampen.cocycle_weight",
    "gf2.boundary_rows",
    "gf2.boundary_cols",
    "gf2.rank",
    "gf2.kernel_dim",
    "gf2.kernel_scanned",
    "gf2.certificate_weight",
    "complexes.facets_in",
    "complexes.facets_out",
    "building.pairs_checked",
    "building.chambers",
)


def import_program() -> None:
    """Import the program from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import obstructor
    except ImportError as exc:
        raise SystemExit(f"error: cannot import obstructor from {src}: {exc}")
    if Path(obstructor.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: obstructor was imported from {obstructor.__file__}, not from {src}")


def provenance() -> dict:
    def git_sha() -> str:
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if not ref.startswith("ref: "):
                return ref
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        except OSError:
            pass
        return "unknown"

    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fp:
                for line in fp:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    caches = {}
    for key, name in (("L1d", "SC_LEVEL1_DCACHE_SIZE"), ("L2", "SC_LEVEL2_CACHE_SIZE"), ("L3", "SC_LEVEL3_CACHE_SIZE")):
        try:
            caches[key] = os.sysconf(name)
        except (ValueError, OSError):
            caches[key] = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cache_bytes": caches,
        "platform": platform.platform(),
    }


# Host speed.  On a shared host the CPU speed drifts by tens of percent
# within seconds and between minutes, far more than the program changes
# that the benchmark has to resolve.  So the host's speed is read around
# and during every timed call, as the time of a fixed pure-Python loop, and
# the call's time is also given on a nominal host, on which that loop takes
# REF_NOMINAL_S.  The end-to-end metrics are these normalised times; the
# wall-clock figures are printed beside them and kept in the record.
REF_ITERATIONS = 20_000
REF_NOMINAL_S = 0.0015
REF_SAMPLES = 5
REF_TICK_S = 0.2


def reference_s() -> float:
    """One timing, in seconds, of the fixed reference loop."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return (time.perf_counter_ns() - t0) / 1e9


class HostClock:
    """Times calls in wall seconds and in seconds on the nominal host.

    A call's host speed is the median of the reference readings taken
    around and during it: REF_SAMPLES just before, REF_SAMPLES just after
    and, when ``ticking``, one every REF_TICK_S while it runs, from a timer
    signal.  A call of several seconds is then scaled by the speed the host
    had throughout it, not only at its ends.  The time those readings take
    is taken out of the call's wall time.  The readings after one call serve
    as those before the next; ``resync`` takes fresh ones after untimed work.
    """

    def __init__(self, ticking: bool) -> None:
        self.ticking = ticking and hasattr(signal, "setitimer")
        self.scales: list[float] = []
        self.ticks: list[tuple[int, int, float]] = []  # (start_ns, end_ns, reading)
        if self.ticking:
            signal.signal(signal.SIGALRM, self._tick)
        self.resync()

    def _tick(self, signum: int, frame: Any) -> None:
        t0 = time.perf_counter_ns()
        reading = reference_s()
        self.ticks.append((t0, time.perf_counter_ns(), reading))

    def resync(self) -> None:
        self.last = [reference_s() for _ in range(REF_SAMPLES)]

    def measure(self, fn, *args) -> tuple[Any, Optional[str], float, float]:
        """(result, error, wall seconds, nominal seconds) of fn(*args).  Errors are counted, not raised."""
        before, first_tick = self.last, len(self.ticks)
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, REF_TICK_S, REF_TICK_S)
        try:
            t0 = time.perf_counter_ns()
            try:
                out, err = fn(*args), None
            except Exception:  # an operation that raises is a failed operation
                out, err = None, traceback.format_exc(limit=4)
            t1 = time.perf_counter_ns()
        finally:
            if self.ticking:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
        during = [t for t in self.ticks[first_tick:] if t0 <= t[0] < t1]
        dt = (t1 - t0 - sum(end - start for start, end, _ in during)) / 1e9
        self.resync()
        scale = REF_NOMINAL_S / statistics.median(before + [r for _, _, r in during] + self.last)
        self.scales.append(scale)
        return out, err, dt, dt * scale


def timed(fn, *args) -> tuple[Any, Optional[str], float]:
    """Run fn(*args); return (result, error, seconds).  Errors are counted, not raised."""
    t0 = time.perf_counter_ns()
    try:
        out, err = fn(*args), None
    except Exception:  # an operation that raises is a failed operation
        out, err = None, traceback.format_exc(limit=4)
    return out, err, (time.perf_counter_ns() - t0) / 1e9


def set_up(wl_cls: type, seed: int) -> Any:
    """One set-up: the workload's fixed objects and the inputs of round 0."""
    wl = wl_cls()
    wl.setup(seed)
    wl.round(0)
    return wl


def run_loop(wl_cls: type, seed: int, seconds: float, tracer: Any) -> dict:
    """Whole rounds of operations until ``seconds`` have passed since the first began.

    Each round is checked when it ends, outside the timed calls, and only
    its summaries are kept: memory held by the benchmark then does not grow
    with the number of operations, which would leak into peak_rss_mb.
    """
    clock = HostClock(ticking=tracer is None)
    setup_times: list[tuple[float, float]] = []

    def set_up_timed() -> Any:
        gc.collect()
        clock.resync()
        wl, err, wall, nominal = clock.measure(set_up, wl_cls, seed)
        if err is not None:
            raise RuntimeError(f"set-up failed:\n{err}")
        setup_times.append((wall, nominal))
        return wl

    for _ in range(SETUP_PER_ROUND):
        wl = set_up_timed()
    ops: list[dict] = []
    r = 0
    good = None
    gc.collect()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        batch = []
        items = wl.round(r)
        clock.resync()
        for item in items:
            out, err, dt, nominal = clock.measure(wl.call, item)
            op = {"item": item, "out": out, "err": err, "s": dt, "nominal_s": nominal}
            if tracer is not None:
                tracer.op = len(ops) + len(batch)
                with tracer.span("op"):
                    op["staged"], op["staged_err"], _ = timed(wl.staged, tracer, item)
                if hasattr(wl, "probe_cli"):
                    op["cli"], op["cli_err"], _ = timed(wl.probe_cli, tracer, item)
                clock.resync()
            batch.append(op)
        for op in batch:
            summary, problems = check_op(wl, op)
            if good is None and not problems:
                good = (op["item"], op["out"])
            ops.append({"s": op["s"], "nominal_s": op["nominal_s"], "raised": op["err"] is not None,
                        "summary": summary, "problems": problems})
        del batch
        for _ in range(SETUP_PER_ROUND):
            set_up_timed()
        gc.collect()
        r += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ops": ops, "rounds": r, "rss_mb": rss_mb, "setup_times": setup_times,
            "host_scales": clock.scales, "misses": self_check(wl, good)}


def check_op(wl: Any, op: dict) -> tuple[dict, list[str]]:
    """The per-input summary of one operation and the problems found with its answer."""
    item, out = op["item"], op["out"]
    summary = wl.describe(item)
    found: list[str] = []
    if op["err"] is not None:
        found.append(f"raised: {op['err'].strip().splitlines()[-1]}")
    else:
        want: dict = {}
        try:
            want = wl.expected(item)
            found += wl.check(item, out, want)
        except Exception:  # a checker crash must not pass as a correct answer
            found.append("check raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1])
        summary["verdict"] = out.get("kind", "ok" if out.get("ok", True) else "collision")
        if "nontrivial" in want:
            summary["expected"] = "nontrivial" if want["nontrivial"] else "trivial"
    for replay in ("staged", "cli"):  # traced runs only: the same answer by another route
        if op.get(replay + "_err"):
            found.append(f"{replay} replay raised: {op[replay + '_err'].strip().splitlines()[-1]}")
        elif op.get(replay) and out is not None:
            found += [f"{replay} replay gave {key} {v}, the timed call {out[key]}"
                      for key, v in op[replay].items() if key in out and out[key] != v]
    return summary, found


def planted(want: dict) -> dict:
    """The expected answer with its first verdict field made wrong."""
    bad = dict(want)
    for key, value in bad.items():
        if isinstance(value, bool):
            bad[key] = not value
            return bad
    for key, value in bad.items():
        if isinstance(value, int):
            bad[key] = value + 1
            return bad
    raise ValueError(f"nothing to plant in {want}")


def self_check(wl: Any, good: Optional[tuple[dict, dict]]) -> list[str]:
    """The oracles must be able to fail: on the first good answer, a wrong
    expected answer and a corrupted certificate have to be caught."""
    if good is None:
        return []  # every operation failed already
    item, out = good
    misses = []
    if not wl.check(item, out, planted(wl.expected(item))):
        misses.append("a wrong expected answer was not caught")
    if "cert" in out:
        bad = dict(out, cert=out["cert"] ^ 1) if out["kind"] == "cycle" else dict(out, cocycle=out["cocycle"] ^ 1)
        if not wl.check(item, bad, wl.expected(item)):
            misses.append("a corrupted certificate was not caught")
    return misses


def tail(durations: list[float]) -> Optional[tuple[float, float, int]]:
    """Highest percentile with at least ten samples above it: (value, percentile, n)."""
    n = len(durations)
    if n < 11:
        return None
    ordered = sorted(durations)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(loop: dict) -> tuple[dict, list[str]]:
    """The metrics on the nominal host, and printed lines that give the wall-clock figures beside them."""
    ops = loop["ops"]
    completed = sum(not op["raised"] for op in ops)
    failed = sum(bool(op["problems"]) for op in ops)
    figures = {}
    for clock, key, setup_key in (("nominal", "nominal_s", 1), ("wall", "s", 0)):
        durations = [op[key] for op in ops]
        figures[clock] = {
            "setup_s": statistics.median(t[setup_key] for t in loop["setup_times"]),
            "op_p50_s": statistics.median(durations),
            "op_tail_s": tail(durations),
            "ops_per_s": completed / sum(durations),
        }
    nominal, wall = figures["nominal"], figures["wall"]
    metrics = {
        "setup_s": (nominal["setup_s"], "s"),
        "op_p50_s": (nominal["op_p50_s"], "s"),
        "ops_per_s": (nominal["ops_per_s"], "1/s"),
        "peak_rss_mb": (loop["rss_mb"], "MB"),
    }
    shown = {}
    for name in ("setup_s", "op_p50_s", "ops_per_s"):
        unit = metrics[name][1]
        shown[name] = f"{nominal[name]:.6g} {unit}  (wall clock {wall[name]:.6g} {unit})"
    t, tw = nominal["op_tail_s"], wall["op_tail_s"]
    shown["op_tail_s"] = (f"{t[0]:.6g} s  (wall clock {tw[0]:.6g} s; p{t[1]:.1f}, 10 of {t[2]} samples beyond)" if t
                          else f"omitted ({len(ops)} operations, 11 needed)")
    shown["failed_frac"] = f"{failed / len(ops):.6g} ({failed}/{len(ops)})"
    shown["peak_rss_mb"] = f"{loop['rss_mb']:.6g} MB"
    order = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "failed_frac", "peak_rss_mb")
    lines = [f"  {name:<12} {shown[name]}" for name in order]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(loop: dict, tracer: Any) -> tuple[dict, list[str]]:
    ops = loop["ops"]
    n = len(ops)
    metrics: dict[str, tuple[float, str]] = {}
    for span in SPAN_METRICS:
        metrics[span + "_s"] = (tracer.durations_s(span) / n, "s")
    for name in COUNT_METRICS:
        metrics[name] = (tracer.counts.get(name, 0) / n, "count")
    kernel_dim = tracer.counts.get("gf2.kernel_dim", 0)
    metrics["gf2.kernel_useful_ratio"] = (tracer.counts.get("gf2.kernel_scanned", 0) / kernel_dim if kernel_dim else 0.0, "ratio")
    traced = tracer.durations_s("op") / n
    untraced = sum(op["s"] for op in ops) / n
    share = tracer.leaf_share("op")
    metrics["trace.op_s"] = (traced, "s")
    metrics["trace.untraced_op_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.stage_share"] = (share, "ratio")
    metrics["trace.absent_stages"] = (len(tracer.absent), "count")
    lines = [f"  {name:<34} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    verdict = "PASS" if share >= 0.95 else "FAIL"
    lines.append(f"  stage spans cover {100 * share:.2f}% of the operation span (>= 95%: {verdict})")
    lines.append(f"  tracing overhead {traced - untraced:+.6g} s per operation "
                 f"({traced:.6g} s traced, {untraced:.6g} s untraced)")
    if tracer.absent:
        lines.append(f"  absent stages: {', '.join(sorted(tracer.absent))}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    tracer = spans.Tracer() if args.trace else None
    loop = run_loop(workloads.WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    ops, misses = loop["ops"], loop["misses"]
    inputs = [op["summary"] for op in ops]
    problems = [f"op {i}: {p}" for i, op in enumerate(ops) for p in op["problems"]]
    failed = sum(bool(op["problems"]) for op in ops)

    if tracer is None:
        metrics, lines = end_to_end(loop)
    else:
        metrics, lines = per_layer(loop, tracer)
        spans_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        lines.append(f"  spans written to {spans_file.relative_to(ROOT)}")
    mix = dict(Counter(summary.get("verdict", "error") for summary in inputs))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": loop["rounds"],
        "operations": len(ops),
        "setup_s_each": loop["setup_times"],
        "host_scale_quartiles": statistics.quantiles(loop["host_scales"], n=4),
        "verdict_mix": mix,
        "inputs_sha256": hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
        "provenance": provenance(),
        "inputs": inputs,
        "problems": problems,
        "self_check_misses": misses,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations in {loop['rounds']} rounds, "
          f"{'traced' if tracer else 'untraced'}, verdicts {mix}")
    print("\n".join(lines))
    scale = statistics.median(loop["host_scales"])
    print(f"  host speed: median {scale:.4g} nominal seconds per wall second "
          f"(reference loop {1e3 * REF_NOMINAL_S / scale:.4g} ms, nominal {1e3 * REF_NOMINAL_S:.4g} ms)")
    for p in problems[:20] + misses:
        print(f"  PROBLEM {p}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not misses, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
