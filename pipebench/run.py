"""The pipeline benchmark: one workload, measured for a fixed time.

    python3 pipebench/run.py --workload registry-o1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from spans the benchmark records around each layer's
public functions (``spans.py``) and writes to
``.pipebench_work/<workload>/trace.jsonl``.

A run: set up in-process, run one untimed cycle (it fills caches and
fixes the reference outputs), then timed blocks of whole cycles until
``--seconds`` of measured time.  Before every cycle, untimed, the
host-speed kernel (``calibrate.py``) runs; timings are reported at the
reference host speed (``Run``).  Between blocks, with the loop paused,
fresh-process set-up probes run.  After the loop come the reference
checks and, in parallel with them, the count census in a process with a
different ``PYTHONHASHSEED``.  See ``pipebench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BLOCKS = 10            # timed blocks per run; set-up probes run between them
PROBES = 6             # set-up probes per run
SERVE_REPEAT = 8       # serve-warm cycles per client-thread launch
CHILD_TIMEOUT = 120.0  # seconds any child process may take

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "ok_rate": "ratio", "peak_rss_mb": "MB",
    "gen_ops_per_byte": "ops/B", "gen_riscv_per_byte": "instr/B",
    "code_stmts": "count", "code_riscv_instrs": "count",
}
CODE_COUNTS = ("code_stmts", "code_riscv_instrs", "gen_ops_per_byte", "gen_riscv_per_byte")
LAYER_COUNTS = (
    "opt.passes_applied", "opt.passes_rejected", "opt.stmts_removed",
    "bedrock2.ops_executed", "validation.trials", "core.derive_calls",
    "serve.cache.hits", "serve.cache.misses", "serve.cache.invalidated",
)
# Per-layer metric -> span name whose inclusive time it reports, per request.
LAYER_TIMES = {
    "bedrock2.interp_ms": "bedrock2.interp",
    "source.eval_ms": "source.eval",
    "validation.differential_ms": "validation.differential",
    "opt.pass_validate_ms": "opt.pass_validate",
    "opt.transform_ms": "opt.transform",
    "core.derive_ms": "core.derive",
    "query.reify_ms": "query.reify",
    "resilience.generate_ms": "resilience.generate",
    "serve.compile_key_ms": "serve.compile_key",
    "bedrock2.serialize_ms": "bedrock2.serialize",
    "serve.cache.store_ms": "serve.cache.store",
    "serve.cache.lookup_ms": "serve.cache.lookup",
    "serve.cache.revalidate_ms": "serve.cache.revalidate",
    "bedrock2.deserialize_ms": "bedrock2.deserialize",
    "bedrock2.wellformed_ms": "bedrock2.wellformed",
    "validation.certificate_ms": "validation.certificate",
    "analysis.lint_ms": "analysis.lint",
    "bedrock2.c_print_ms": "bedrock2.c_print",
    "riscv.compile_ms": "riscv.compile",
}


def fail(message: str) -> int:
    print(f"pipebench: {message}", file=sys.stderr)
    return 2


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def probe(workload: str, seed: int, work: str) -> dict:
    """One fresh-process set-up probe; returns its report plus ``setup_s``,
    the time from spawn to the ready line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), "--workload", workload,
         "--seed", str(seed), "--work", work],
        stdout=subprocess.PIPE, env=child_env(), text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT) != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    report = json.loads(line)
    report["setup_s"] = setup_s
    return report


def start_census(args, work: str, trace: bool, serve_cache: str) -> subprocess.Popen:
    """The count census, in a process with another hash seed than ours."""
    ours = os.environ.get("PYTHONHASHSEED", "")
    theirs = str(int(ours) + 1) if ours.isdigit() else "1"
    command = [sys.executable, os.path.join(HERE, "census.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--work", os.path.join(work, "census"),
               "--serve-cache", serve_cache]
    if not trace:
        command.append("--figure")
    os.makedirs(os.path.join(work, "census"), exist_ok=True)
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=child_env(PYTHONHASHSEED=theirs))


def finish_census(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"census exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fast_quarter(values):
    """The fastest quarter of ``values``, at least one of them."""
    ranked = sorted(values)
    return ranked[:max(1, (len(ranked) + 3) // 4)]


class Run:
    """Accumulates one run's blocks, cycles, requests and failures.

    Every cycle repeats the same requests, so their times differ only
    through the host, whose speed swings by 1.4 to 1.9 times, from under
    a second to tens of minutes at a time.  Timings are therefore scaled
    to the reference host speed by the host-speed kernel timed before
    each cycle, each against the kernel samples of the same host states:
    the rate over all cycles against the mean kernel time, the fastest
    quarter of each request's latencies (and of the set-up probes)
    against the fastest quarter of the kernel times.
    """

    def __init__(self, workload):
        self.workload = workload
        self.blocks = []            # (traced, seconds, requests, cycles)
        self.cycles = {False: [], True: []}  # traced -> [(seconds, requests, kernel s)]
        self.samples = {}           # (traced, member) -> latencies in seconds
        self.failed = set()
        self.ok_by_ref = Counter()
        self.split = []             # (round trip, worker time) of untraced requests
        self.attempted = 0

    def add(self, cycle, traced: bool, kernel_s: float) -> None:
        reference = self.workload.reference
        self.cycles[traced].append((cycle.seconds, len(cycle.latencies), kernel_s))
        for member, latency in zip(cycle.members, cycle.latencies):
            self.samples.setdefault((traced, member), []).append(latency)
        self.attempted += len(cycle.latencies)
        self.failed |= cycle.failed
        for key, (ref, digest) in cycle.outputs.items():
            if reference.get(ref) != digest:
                if len(self.failed) < 10:
                    print(f"output of {key} differs from the first cycle's", flush=True)
                self.failed.add(key)
            else:
                self.ok_by_ref[ref] += 1

    def raw_rate(self, traced: bool = False) -> float:
        """Requests per second over all cycles, as measured."""
        cycles = self.cycles[traced]
        return sum(c[1] for c in cycles) / sum(c[0] for c in cycles)

    def rate(self) -> float:
        """Untraced requests per second at the reference host speed."""
        mean_kernel = statistics.fmean(c[2] for c in self.cycles[False])
        return self.raw_rate() * mean_kernel / calibrate.REFERENCE_S

    def fast_kernel(self) -> float:
        """Mean of the fastest quarter of the untraced kernel times."""
        return statistics.fmean(fast_quarter(c[2] for c in self.cycles[False]))

    def fast_latencies(self):
        """Each population member's fastest quarter of request latencies
        over the untraced cycles, pooled, in seconds as measured."""
        return [x for (t, _m), values in sorted(self.samples.items()) if not t
                for x in fast_quarter(values)]

    def at_reference(self, seconds: float) -> float:
        """A fast-state time scaled to the reference host speed."""
        return seconds * calibrate.REFERENCE_S / self.fast_kernel()


def measure(args, workload, recorder, work: str):
    """The untimed first cycle, then timed blocks with probes between them."""
    run = Run(workload)
    serve = workload.name == "serve-warm"

    def one_cycle(tag: str):
        return workload.cycle(tag, repeat=SERVE_REPEAT) if serve else workload.cycle(tag)

    first = workload.cycle("first:")
    if first.failed or not workload.reference:
        print(f"first cycle failed: {sorted(first.failed)}", flush=True)
    probes = []
    target = args.seconds / BLOCKS
    measured, block, cycles = 0.0, 0, 0
    while measured < args.seconds:
        traced = recorder is not None and block % 2 == 0
        gc.collect()
        seconds = requests = n = 0
        while seconds < target:
            kernel_s = calibrate.timed()
            if recorder is not None:
                recorder.active = traced
            if serve:
                workload.trace_requests = traced
            cycle = one_cycle(f"{cycles}:")
            if recorder is not None:
                recorder.active = False
            cycles += 1
            n += 1
            seconds += cycle.seconds
            requests += len(cycle.latencies)
            run.add(cycle, traced, kernel_s)
            if not traced:
                run.split.extend(cycle.split)
        run.blocks.append((traced, seconds, requests, n * (SERVE_REPEAT if serve else 1)))
        print(f"block {block}: {n} cycle(s), {requests} requests in {seconds:.3f} s"
              f"{' (traced)' if traced else ''}", file=sys.stderr, flush=True)
        measured += seconds
        block += 1
        if len(probes) < PROBES:
            probes.append(probe(args.workload, args.seed, work))
    while len(probes) < PROBES:
        probes.append(probe(args.workload, args.seed, work))
    return run, probes


def layer_metrics(run, workload, recorder, probes, work, counts, pool) -> dict:
    """The per-layer metrics of a traced run.

    Merges the serve workers' span dumps, writes ``trace.jsonl`` and adds
    the per-cycle span counts to ``counts``, which the census checks.
    """
    import spans

    traced_spans = list(recorder.spans)
    span_counts = Counter(recorder.counts)
    for name in sorted(os.listdir(work)):
        if name.startswith("worker-") and name.endswith(".json"):
            worker_spans, worker_counts = spans.load_dump(os.path.join(work, name))
            traced_spans.extend(worker_spans)
            span_counts.update(worker_counts)
            os.remove(os.path.join(work, name))
    spans.write_trace(os.path.join(work, "trace.jsonl"), traced_spans)
    inclusive, self_time = spans.analyze(traced_spans)
    traced = [b for b in run.blocks if b[0]]
    requests = sum(b[2] for b in traced)
    cycles = sum(b[3] for b in traced)
    wall = sum(b[1] for b in traced) * workload.clients
    metrics = {}
    for metric, span_name in LAYER_TIMES.items():
        metrics[metric] = (inclusive.get(span_name, 0.0) * 1000.0 / requests, "ms")
    for name in ("bedrock2.ops_executed", "validation.trials", "core.derive_calls",
                 "serve.cache.hits", "serve.cache.misses", "serve.cache.invalidated"):
        total = span_counts.get(name, 0)
        counts[name] = total // cycles if total % cycles == 0 else total / cycles
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    ops = span_counts.get("bedrock2.ops_executed", 0)
    metrics["bedrock2.ns_per_op"] = (
        inclusive.get("bedrock2.interp", 0.0) * 1e9 / ops if ops else 0.0, "ns")
    lookups = sum(span_counts.get(f"serve.cache.{k}", 0)
                  for k in ("hits", "misses", "invalidated"))
    metrics["serve.cache.hit_ratio"] = (
        span_counts.get("serve.cache.hits", 0) / lookups if lookups else 0.0, "ratio")
    if run.split:
        round_trip = statistics.fmean(r for r, _w in run.split) * 1000.0
        worker = statistics.fmean(w for _r, w in run.split) * 1000.0
    else:
        round_trip = worker = 0.0
    metrics["serve.round_trip_ms"] = (round_trip, "ms")
    metrics["serve.worker_ms"] = (worker, "ms")
    metrics["serve.outside_worker_ms"] = (round_trip - worker, "ms")
    metrics["serve.overloaded"] = (pool.get("serve.overloaded", 0), "count")
    metrics["serve.restarts"] = (pool.get("serve.worker.restart", 0), "count")
    metrics["stdlib.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    metrics["stdlib.default_engine_ms"] = (
        statistics.median(p["engine_ms"] for p in probes), "ms")
    for layer in spans.LAYERS:
        metrics[f"share.{layer}"] = (self_time.get(layer, 0.0) / wall, "ratio")
    metrics["host.kernel_ms"] = (run.fast_kernel() * 1000.0, "ms")
    metrics["share.unattributed"] = (1.0 - sum(self_time.values()) / wall, "ratio")
    metrics["trace.overhead_ratio"] = (run.raw_rate(False) / run.raw_rate(True), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return fail(f"no program sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    trace = bool(args.trace)
    work = os.path.join(ROOT, ".pipebench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.sync()  # let the removal's disk work finish before anything is timed

    recorder = spans.Recorder("p") if trace else None
    kwargs = {}
    if trace and args.workload == "serve-warm":
        kwargs["worker_command"] = [sys.executable, os.path.join(HERE, "traced_worker.py"),
                                    work, "--cache", os.path.join(work, "serve-cache")]
    workload = workloads.WORKLOADS[args.workload](args.seed, work, recorder, **kwargs)
    census = None
    try:
        workload.setup()
        workload.prepare()
        if recorder is not None:
            recorder.install()
        run, probes = measure(args, workload, recorder, work)
        rss = workloads.peak_rss_mb(workload.extra_pids())
        if recorder is not None:
            recorder.uninstall()
        pool = workload.pool_counters()
        workload.close()
        serve_cache = getattr(workload, "cache_dir", work)
        census = start_census(args, work, trace, serve_cache)
        bad_refs = workload.reference_checks()
        failed = len(run.failed) + sum(run.ok_by_ref[ref] for ref in bad_refs)
        counts = workload.counts(figure=not trace)
        if trace:
            metrics = layer_metrics(run, workload, recorder, probes, work, counts, pool)
            compared = LAYER_COUNTS
        else:
            fast_ms = [x * 1000.0 for x in run.fast_latencies()]
            setup_s = statistics.median(fast_quarter(p["setup_s"] for p in probes))
            raw = {"throughput_per_s": run.raw_rate(), "setup_s": setup_s,
                   "latency_p50_ms": statistics.median(fast_ms),
                   "latency_p90_ms": percentile(fast_ms, 90),
                   "kernel_fast_ms": run.fast_kernel() * 1000.0,
                   "kernel_mean_ms": statistics.fmean(c[2] for c in run.cycles[False]) * 1000.0}
            print("as measured: " + json.dumps(raw), file=sys.stderr, flush=True)
            metrics = {
                "setup_s": run.at_reference(setup_s),
                "throughput_per_s": run.rate(),
                "latency_p50_ms": run.at_reference(raw["latency_p50_ms"]),
                "latency_p90_ms": run.at_reference(raw["latency_p90_ms"]),
                "ok_rate": (run.attempted - failed) / run.attempted,
                "peak_rss_mb": rss,
            }
            metrics.update({name: counts[name] for name in CODE_COUNTS})
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
            compared = CODE_COUNTS
        theirs = finish_census(census)
    finally:
        workload.close()
        if census is not None and census.poll() is None:
            census.kill()
            census.communicate()
        for name in ("census", "batch-cache", "serve-cache"):
            shutil.rmtree(os.path.join(work, name), ignore_errors=True)
        os.sync()  # and leave none of it to slow the next run

    mismatched = [n for n in compared if counts.get(n, 0) != theirs.get(n, 0)]
    for name in mismatched:
        print(f"census mismatch: {name} = {counts.get(name, 0)!r} here, "
              f"{theirs.get(name, 0)!r} under another hash seed", flush=True)
    result = {
        "correct": failed == 0 and not mismatched and not bad_refs,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
