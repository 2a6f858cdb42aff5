"""The three workloads: their inputs, one timed cycle, and their checks.

Every workload is a closed loop over a fixed population that ``--seed``
orders, so the work of one cycle is the same in every cycle of a run and
nearly the same across seeds.  A workload object exposes:

- ``setup()``: imports, ``default_engine()`` and the workload's inputs --
  what a user pays before the first request (the set-up probe times it
  in a fresh process);
- ``prepare()``: untimed work the loop needs but a user's set-up does
  not include (filling the serve cache, starting the measured pool);
- ``cycle()``: one replay of the population, returning a ``Cycle``;
- ``reference``: the first cycle's output digest per reference key;
- ``reference_checks()``: the programs' outputs against references that
  are not the compiler under test, as the set of failing reference keys;
- ``counts()``: the deterministic counts the census recomputes.

Calls into the program go through module attributes (``wellformed.
check_function``, not a name imported here), so the span wrappers of
``spans.py`` see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

DIFF_TRIALS = 30          # differential trials per registry-o1 request
FIG2_BYTES = 4096         # Figure 2 input size for the registry programs
FUZZ_KERNEL_BYTES = 512   # input size for the fuzz byte kernels' per-byte cost
BATCH_MANIFEST_SEED = 2022
BATCH_CASES = 200
SERVE_REPEATS = 4         # requests per registry program per serve cycle
REF_TRIALS = 8            # seeded inputs per function in the reference checks


@dataclass
class Cycle:
    """One timed replay of a workload's population.

    Request keys are unique within a run; a reference key names the
    population member a request exercised, the same in every cycle.
    """

    seconds: float
    latencies: List[float]                   # seconds, one per request
    members: List[str]                       # reference key, one per request
    failed: Set[str]                         # requests that failed outright
    outputs: Dict[str, Tuple[str, str]]      # request -> (reference key, digest)
    split: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class Item:
    """One population member: a source model plus how to exercise it."""

    name: str
    kind: str                        # "program" | "query"
    source: object                   # BenchProgram | QueryProgram
    model: object
    spec: object
    input_gen: object


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
        digest.update(b"\x1e")
    return digest.hexdigest()


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def import_layers() -> None:
    """Import every module a request touches, so no request pays imports."""
    import repro.analysis.dataflow  # noqa: F401
    import repro.bedrock2.c_printer  # noqa: F401
    import repro.bedrock2.serial  # noqa: F401
    import repro.bedrock2.wellformed  # noqa: F401
    import repro.opt.manager  # noqa: F401
    import repro.programs  # noqa: F401
    import repro.query.programs  # noqa: F401
    import repro.riscv  # noqa: F401
    import repro.serve.batch  # noqa: F401
    import repro.serve.cache  # noqa: F401
    import repro.serve.supervisor  # noqa: F401
    import repro.validation.checker  # noqa: F401
    import repro.validation.differential  # noqa: F401
    import repro.validation.passcheck  # noqa: F401



def timed_default_engine():
    """Import the request path's modules, then build the default engine;
    returns (engine, milliseconds ``default_engine()`` took)."""
    import_layers()
    from repro.stdlib import default_engine

    start = time.perf_counter()
    engine = default_engine()
    return engine, (time.perf_counter() - start) * 1000.0


# -- Running compiled code outside the pipeline -------------------------------------


def _interp(fn):
    from repro.bedrock2 import ast
    from repro.bedrock2.semantics import Interpreter

    return Interpreter(ast.Program((fn,)))


def _machine(fn, memory=None):
    from repro.riscv import Machine, compile_function

    return Machine(compile_function(fn), memory)


def run_on_bytes(fn, data: bytes, offsets=None, riscv: bool = False):
    """Call a ``(ptr, len[, off])`` function on ``data``, once per offset
    when ``offsets`` is given; returns (last ret, final bytes, cost).

    ``cost`` is Bedrock2 operations executed, or RISC-V instructions
    retired when ``riscv`` is set.
    """
    from repro.bedrock2.memory import Memory
    from repro.bedrock2.word import Word

    memory = Memory()
    base = memory.place_bytes(data) if data else memory.allocate(0)
    calls = [[base, len(data)]] if offsets is None else [
        [base, len(data), off] for off in offsets
    ]
    ret = None
    if riscv:
        machine = _machine(fn, memory)
        for args in calls:
            ret = machine.run_function(fn.name, args)[0]
        cost = machine.instret
    else:
        interp = _interp(fn)
        for args in calls:
            rets, _ = interp.run(fn.name, [Word(64, a) for a in args], memory=memory)
            ret = rets[0].unsigned if rets else None
        cost = interp.counts.total()
    out = memory.load_bytes(base, len(data)) if data else b""
    return ret, out, cost


def run_on_scalars(fn, values, riscv: bool = False):
    """Call a one-argument scalar function per value; returns (rets, cost)."""
    from repro.bedrock2.word import Word

    if riscv:
        machine = _machine(fn)
        rets = [machine.run_function(fn.name, [v])[0] for v in values]
        return rets, machine.instret
    interp = _interp(fn)
    rets = [interp.run(fn.name, [Word(64, v)])[0][0].unsigned for v in values]
    return rets, interp.counts.total()


def program_per_byte(program, fn, data: bytes, riscv: bool) -> float:
    """Figure 2's cost per input byte of one registry function: scalar
    programs over the input's 4-byte words, window programs at every
    fourth offset, buffer programs once over the whole input."""
    if program.calling_style == "scalar":
        words = [int.from_bytes(data[i:i + 4], "little") for i in range(0, len(data) - 3, 4)]
        return run_on_scalars(fn, words, riscv)[1] / len(data)
    offsets = range(0, len(data) - 3, 4) if program.calling_style == "window" else None
    return run_on_bytes(fn, data, offsets, riscv)[2] / len(data)


def figure2(pairs, seed: int) -> Dict[str, float]:
    """Geomean Bedrock2 ops/byte and RISC-V instructions/byte over
    ``(program, function)`` pairs on seeded 4 KiB inputs, as in Figure 2."""
    ops, rv = [], []
    for program, fn in pairs:
        data = program.gen_input(random.Random(seed), FIG2_BYTES)
        ops.append(program_per_byte(program, fn, data, riscv=False))
        rv.append(program_per_byte(program, fn, data, riscv=True))
    return {"gen_ops_per_byte": _geomean(ops), "gen_riscv_per_byte": _geomean(rv)}


def check_against_reference(program, fn, rng: random.Random) -> Optional[str]:
    """A registry function against the program's plain-Python ``reference``,
    under both the Bedrock2 interpreter and the RISC-V machine."""
    for _ in range(REF_TRIALS):
        if program.calling_style == "scalar":
            value = rng.getrandbits(32)
            want = program.reference(value)
        else:
            data = program.gen_input(rng, rng.randrange(4, 64))
            off = rng.randrange(0, len(data) - 3)
            want = program.reference(data, off) if program.calling_style == "window" \
                else program.reference(data)
        for riscv in (False, True):
            if program.calling_style == "scalar":
                got = run_on_scalars(fn, [value], riscv)[0][0]
            elif program.calling_style == "window":
                got = run_on_bytes(fn, data, [off], riscv)[0]
            else:
                ret, out, _ = run_on_bytes(fn, data, None, riscv)
                got = out if isinstance(want, bytes) else ret
            if got != want:
                where = "riscv" if riscv else "bedrock2"
                return f"{program.name} ({where}): got {got!r}, reference {want!r}"
    return None


def check_query(program, compiled, rng: random.Random) -> Optional[str]:
    """A query function against ``repro.query.evaluator.eval_plan``, under
    both the Bedrock2 interpreter and the RISC-V machine."""
    from repro.validation.runners import run_function, run_function_riscv

    reified = program.reified()
    for _ in range(REF_TRIALS):
        tables, out_len = program.gen_tables(rng)
        params = program.inputs_from_tables(tables, out_len)
        want = program.reference(tables, out_len)
        for runner in (run_function, run_function_riscv):
            result = runner(compiled.bedrock_fn, compiled.spec, params)
            got = (
                result.rets[0] if reified.kind == "scalar"
                else result.out_memory[reified.out_param]
            )
            if got != want:
                return f"{program.name} ({runner.__name__}): got {got!r}, eval_plan {want!r}"
    return None


def riscv_instrs(fn) -> int:
    from repro.riscv import compile_function

    return len(compile_function(fn).instrs)


def peak_rss_mb(extra_pids=()) -> float:
    """Peak resident memory of this process plus the given live processes."""
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            pass
    return kib / 1024.0


def seeded(seed: int, name: str) -> random.Random:
    """A generator for one population member, independent of its position."""
    return random.Random(_sha(str(seed).encode(), name.encode()))


# -- registry-o1 ---------------------------------------------------------------------


@dataclass
class O1Output:
    certificate: object
    optimized: object
    report: object
    c_text: str
    rv: object


def registry_population(seed: int) -> List[Item]:
    """The 9 registry programs and 8 query programs, in seeded order."""
    from repro.programs import all_programs
    from repro.query.programs import all_query_programs

    items = [
        Item(p.name, "program", p, p.build_model(), p.build_spec(), p.validation_input_gen())
        for p in all_programs()
    ] + [
        Item(q.name, "query", q, q.build_model(), q.build_spec(), q.validation_input_gen())
        for q in all_query_programs()
    ]
    random.Random(seed).shuffle(items)
    return items


def compile_o1(engine, item: Item) -> O1Output:
    """One trusted -O1 compile: derive, check, optimize, validate, emit.

    The differential check draws its inputs from a generator seeded by
    the member's name alone, like the optimizer's per-pass checks, so a
    member costs the same under every ``--seed``.
    """
    from repro.bedrock2 import ast, c_printer, wellformed
    from repro.riscv import compiler as rv_compiler
    from repro.validation import checker, differential

    compiled = engine.compile_function(item.model, item.spec)
    wellformed.check_function(compiled.bedrock_fn)
    checker.check_certificate(
        compiled.certificate,
        statement_count=ast.statement_count(compiled.bedrock_fn.body),
    )
    optimized = compiled.optimize(1, input_gen=item.input_gen)
    report = differential.differential_check(
        optimized, trials=DIFF_TRIALS, rng=seeded(0, item.name),
        input_gen=item.input_gen,
    )
    c_text = c_printer.print_c_function(optimized.bedrock_fn)
    rv = rv_compiler.compile_function(optimized.bedrock_fn)
    return O1Output(compiled.certificate, optimized, report, c_text, rv)


def o1_digest(out: O1Output) -> str:
    from repro.bedrock2.serial import function_to_json
    from repro.riscv import encode

    code = b"".join(encode(i).to_bytes(4, "little") for i in out.rv.instrs)
    return _sha(
        out.c_text.encode(),
        out.certificate.to_json().encode(),
        function_to_json(out.optimized.bedrock_fn).encode(),
        json.dumps(out.optimized.opt_report.to_dict(), sort_keys=True).encode(),
        code,
        out.rv.data,
        f"{out.report.trials}:{len(out.report.failures)}".encode(),
    )


def check_o1_outputs(items: List[Item], outputs: Dict[str, O1Output], seed: int) -> Set[str]:
    """Names of the members whose -O1 code disagrees with its reference."""
    bad = set()
    for item in items:
        out = outputs.get(item.name)
        if out is None:
            bad.add(item.name)
            continue
        rng = seeded(seed, item.name)
        if item.kind == "program":
            problem = check_against_reference(item.source, out.optimized.bedrock_fn, rng)
        else:
            problem = check_query(item.source, out.optimized, rng)
        if problem is not None:
            print(f"reference check failed: {problem}", flush=True)
            bad.add(item.name)
    return bad


class RegistryO1:
    name = "registry-o1"
    clients = 1

    def __init__(self, seed: int, work_dir: str, recorder=None):
        self.seed = seed
        self.work_dir = work_dir
        self.recorder = recorder
        self.first: Dict[str, O1Output] = {}
        self.reference: Dict[str, str] = {}

    def setup(self) -> None:
        self.engine, self.engine_ms = timed_default_engine()
        self.items = registry_population(self.seed)

    def prepare(self) -> None:
        pass

    def cycle(self, tag: str = "") -> Cycle:
        latencies, failed, kept = [], set(), {}
        clock = time.perf_counter
        total = 0.0
        for item in self.items:
            key = f"{tag}{item.name}"
            if self.recorder is not None:
                self.recorder.set_request(key)
            start = clock()
            try:
                out = compile_o1(self.engine, item)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted
                out = None
                print(f"{item.name}: request raised {exc!r}", flush=True)
            elapsed = clock() - start
            total += elapsed
            latencies.append(elapsed)
            if out is None or not out.report.ok:
                failed.add(key)
            else:
                kept[item.name] = (key, out)
        outputs = {key: (name, o1_digest(out)) for name, (key, out) in kept.items()}
        if not self.first:
            self.first = {name: out for name, (_key, out) in kept.items()}
            self.reference = {name: digest for name, digest in outputs.values()}
        return Cycle(total, latencies, [item.name for item in self.items], failed, outputs)

    def reference_checks(self) -> Set[str]:
        return check_o1_outputs(self.items, self.first, self.seed)

    def counts(self, figure: bool = True) -> Dict[str, float]:
        """Code and optimizer counts of the first cycle; with ``figure``,
        also code size and Figure 2 per-byte costs."""
        outs = list(self.first.values())
        reports = [o.optimized.opt_report for o in outs]
        counts = {
            "opt.passes_applied": sum(len(r.applied) for r in reports),
            "opt.passes_rejected": sum(len(r.rejected) for r in reports),
            "opt.stmts_removed": sum(r.stmts_before - r.stmts_after for r in reports),
        }
        if not figure:
            return counts
        counts["code_stmts"] = sum(o.optimized.statement_count() for o in outs)
        counts["code_riscv_instrs"] = sum(len(o.rv.instrs) for o in outs)
        pairs = [
            (item.source, self.first[item.name].optimized.bedrock_fn)
            for item in sorted(self.items, key=lambda i: i.name)
            if item.kind == "program" and item.name in self.first
        ]
        counts.update(figure2(pairs, self.seed))
        return counts

    def extra_pids(self):
        return ()

    def pool_counters(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        pass


# -- batch-cold ----------------------------------------------------------------------


def _case_index(function_name: str) -> str:
    """Fuzz functions are named ``fz_<family>_<manifest index>``."""
    return function_name.rsplit("_", 1)[1]


class BatchCold:
    name = "batch-cold"
    clients = 1

    def __init__(self, seed: int, work_dir: str, recorder=None):
        self.seed = seed
        self.work_dir = work_dir
        self.recorder = recorder
        self.cache_root = os.path.join(work_dir, "batch-cache")
        self.cache_dir = self.cache_root
        self.cycles = 0
        self.reference: Dict[str, str] = {}
        self.first_rows: List[dict] = []
        self.first_entries: Dict[str, bytes] = {}

    def setup(self) -> None:
        self.engine, self.engine_ms = timed_default_engine()
        from repro.serve.batch import fuzz_manifest

        self.jobs = fuzz_manifest(BATCH_MANIFEST_SEED, BATCH_CASES)
        random.Random(self.seed).shuffle(self.jobs)

    def prepare(self) -> None:
        pass

    def _entries(self) -> Dict[str, bytes]:
        """Every published cache entry, by manifest index."""
        found = {}
        for dirpath, _dirs, files in os.walk(self.cache_dir):
            for name in files:
                if name.endswith(".json") and "quarantine" not in dirpath:
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        raw = fh.read()
                    found[_case_index(json.loads(raw)["program"])] = raw
        return found

    def cycle(self, tag: str = "") -> Cycle:
        from repro.serve import batch

        # A new empty directory per cycle, removed only after the run:
        # deleting the last cycle's 400 files in between made the next
        # cycle's writes about 1.8x slower and far more variable.
        self.cache_dir = os.path.join(self.cache_root, f"cycle-{self.cycles}")
        self.cycles += 1
        stamps = []
        clock = time.perf_counter
        if self.recorder is not None:
            self.recorder.set_request(f"{tag}batch")
        start = clock()
        report = batch.run_batch(
            self.jobs, jobs_n=1, cache_dir=self.cache_dir,
            progress=lambda _msg: stamps.append(clock()),
        )
        total = clock() - start
        latencies = [b - a for a, b in zip([start] + stamps[:-1], stamps)]
        failed = {
            f"{tag}{job.index}" for job, row in zip(self.jobs, report.results)
            if row["outcome"] != "ok" or row["cache"] != "miss"
        }
        entries = self._entries()
        os.sync()  # this cycle's writes reach the disk outside every timed cycle
        outputs = {f"{tag}{index}": (index, _sha(raw)) for index, raw in entries.items()}
        if not self.reference:
            self.reference = {index: digest for index, digest in outputs.values()}
            self.first_rows = report.results
            self.first_entries = entries
        members = [str(job.index) for job in self.jobs[:len(latencies)]]
        return Cycle(total, latencies, members, failed, outputs)

    def _cases(self):
        from repro.resilience.generator import generate_case

        return {
            str(job.index): generate_case(random.Random(job.seed), job.index)
            for job in self.jobs
        }

    def _compiled(self, cases):
        from repro.bedrock2.serial import decode_function
        from repro.core.certificate import Certificate
        from repro.core.spec import CompiledFunction

        compiled = {}
        for index, raw in self.first_entries.items():
            entry = json.loads(raw)
            compiled[index] = CompiledFunction(
                bedrock_fn=decode_function(entry["function"]),
                certificate=Certificate.from_dict(entry["certificate"]),
                spec=cases[index].spec, model=cases[index].model,
            )
        return compiled

    def reference_checks(self) -> Set[str]:
        """Each distinct function against the source-model evaluator."""
        from repro.validation.differential import differential_check

        cases = self._cases()
        bad = set(cases) ^ set(self.first_entries)
        for index, compiled in sorted(self._compiled(cases).items()):
            report = differential_check(
                compiled, trials=REF_TRIALS, rng=seeded(self.seed, index),
                input_gen=cases[index].input_gen,
            )
            if not report.ok:
                print(f"reference check failed: {compiled.name}: {report.failures[0]}",
                      flush=True)
                bad.add(index)
        return bad

    def counts(self, figure: bool = True) -> Dict[str, float]:
        """With ``figure``: code size over all 200 functions, and per-byte
        cost over the byte kernels (the map and fold families) on seeded
        512-byte inputs."""
        if not figure:
            return {}
        cases = self._cases()
        compiled = self._compiled(cases)
        ops, rv = [], []
        for index in sorted(compiled, key=int):
            if cases[index].family in ("byte_map", "byte_fold"):
                data = seeded(self.seed, index).randbytes(FUZZ_KERNEL_BYTES)
                fn = compiled[index].bedrock_fn
                ops.append(run_on_bytes(fn, data)[2] / len(data))
                rv.append(run_on_bytes(fn, data, riscv=True)[2] / len(data))
        return {
            "code_stmts": sum(row["statements"] for row in self.first_rows),
            "code_riscv_instrs": sum(riscv_instrs(c.bedrock_fn) for c in compiled.values()),
            "gen_ops_per_byte": _geomean(ops),
            "gen_riscv_per_byte": _geomean(rv),
        }

    def extra_pids(self):
        return ()

    def pool_counters(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        shutil.rmtree(self.cache_root, ignore_errors=True)


# -- serve-warm ----------------------------------------------------------------------


class ServeWarm:
    name = "serve-warm"
    clients = 2

    def __init__(self, seed: int, work_dir: str, recorder=None, worker_command=None):
        self.seed = seed
        self.work_dir = work_dir
        self.recorder = recorder
        self.worker_command = worker_command
        self.cache_dir = os.path.join(work_dir, "serve-cache")
        self.supervisor = None
        self.reference: Dict[str, str] = {}
        self.first_responses: Dict[str, dict] = {}
        self.trace_requests = False

    def setup(self) -> None:
        self.engine, self.engine_ms = timed_default_engine()
        from repro.programs import all_programs

        self.programs = all_programs()
        mix = [
            {"op": op, "program": p.name, "opt_level": 1}
            for p in self.programs
            for op in ("compile", "cert") * (SERVE_REPEATS // 2)
        ]
        random.Random(self.seed).shuffle(mix)
        self.requests = mix

    def start_pool(self):
        """A supervisor with the default config over the serve cache."""
        from repro.serve.supervisor import Supervisor, SupervisorConfig

        supervisor = Supervisor(
            SupervisorConfig(), cache_dir=self.cache_dir,
            worker_command=self.worker_command,
        )
        return supervisor.start()

    def prepare(self) -> None:
        """Start the measured pool and fill the cache once, untimed."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.supervisor = self.start_pool()
        for program in self.programs:
            response = self.supervisor.submit(
                {"op": "compile", "program": program.name, "opt_level": 1}
            )
            if not response.get("ok"):
                raise RuntimeError(f"cache fill failed for {program.name}: {response}")

    @staticmethod
    def _digest(response: dict) -> str:
        kept = {k: v for k, v in response.items() if k != "elapsed_ms"}
        return _sha(json.dumps(kept, sort_keys=True).encode())

    def cycle(self, tag: str = "", repeat: int = 1) -> Cycle:
        """``repeat`` replays of the request mix by two client threads, each
        sending its share of the mix and waiting for every reply."""
        n = len(self.requests)
        results: List[list] = [[] for _ in range(self.clients)]
        clock = time.perf_counter
        recorder = self.recorder

        def client(index: int) -> None:
            rows = results[index]
            for r in range(repeat):
                for i in range(index, n, self.clients):
                    request = dict(self.requests[i])
                    key = f"{tag}{r}:{i}"
                    start = clock()
                    if self.trace_requests:
                        recorder.set_request(key)
                        with recorder.span("serve.submit", "serve") as sid:
                            request.update(bench_trace=1, bench_rid=key, bench_span=sid)
                            response = self.supervisor.submit(request)
                    else:
                        response = self.supervisor.submit(request)
                    rows.append((str(i), key, clock() - start, response))

        threads = [threading.Thread(target=client, args=(k,)) for k in range(self.clients)]
        start = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = clock() - start
        cycle = Cycle(total, [], [], set(), {})
        for rows in results:
            for ref, key, latency, response in rows:
                cycle.latencies.append(latency)
                cycle.members.append(ref)
                if not response.get("ok"):
                    failed_detail = response.get("error", response)
                    print(f"request {key} failed: {failed_detail}", flush=True)
                    cycle.failed.add(key)
                    continue
                if "elapsed_ms" in response:
                    cycle.split.append((latency, response["elapsed_ms"] / 1000.0))
                cycle.outputs[key] = (ref, self._digest(response))
                self.first_responses.setdefault(ref, response)
        if not self.reference:
            self.reference = {ref: digest for ref, digest in cycle.outputs.values()}
        return cycle

    def reference_checks(self) -> Set[str]:
        """Served C must equal the C of registry-o1 functions that pass
        their reference checks (compiled here, in-process, as
        registry-o1's set-up does)."""
        items = [i for i in registry_population(self.seed) if i.kind == "program"]
        outputs = {item.name: compile_o1(self.engine, item) for item in items}
        bad_programs = check_o1_outputs(items, outputs, self.seed)
        for ref, response in self.first_responses.items():
            name = self.requests[int(ref)]["program"]
            if response.get("op") == "compile" and response["c"] != outputs[name].c_text:
                print(f"served C for {name} differs from registry-o1's", flush=True)
                bad_programs.add(name)
        return {
            str(i) for i, request in enumerate(self.requests)
            if request["program"] in bad_programs
        }

    def served_functions(self):
        """The -O1 functions the warm cache serves, loaded through it."""
        from repro.serve.cache import CompilationCache, compile_program_cached

        cache = CompilationCache(self.cache_dir)
        served = {}
        for program in self.programs:
            compiled, outcome = compile_program_cached(cache, program, opt_level=1)
            if outcome != "hit":
                raise RuntimeError(f"{program.name}: warm cache answered {outcome}")
            served[program.name] = compiled.bedrock_fn
        return served

    def counts(self, figure: bool = True) -> Dict[str, float]:
        """With ``figure``: code size and Figure 2 per-byte costs of the
        functions the warm cache serves."""
        if not figure:
            return {}
        served = self.served_functions()
        by_name = {p.name: p for p in self.programs}
        statements = {
            self.requests[int(ref)]["program"]: r["statements"]
            for ref, r in self.first_responses.items() if "statements" in r
        }
        counts = {
            "code_stmts": sum(statements.values()),
            "code_riscv_instrs": sum(riscv_instrs(fn) for fn in served.values()),
        }
        counts.update(figure2(
            [(by_name[name], served[name]) for name in sorted(served)], self.seed
        ))
        return counts

    def extra_pids(self):
        if self.supervisor is None:
            return ()
        return [w["pid"] for w in self.supervisor.stats()["workers"] if w["pid"]]

    def pool_counters(self) -> Dict[str, int]:
        return dict(self.supervisor.counters) if self.supervisor is not None else {}

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None


WORKLOADS = {cls.name: cls for cls in (RegistryO1, BatchCold, ServeWarm)}
