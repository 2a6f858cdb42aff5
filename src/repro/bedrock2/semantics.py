"""A fuel-based big-step semantics for Bedrock2, staged into closures.

Bedrock2's semantics (Box 2 of the paper) split program state into three
parts: a flat memory, the current function's locals (a map from names to
machine words), and an event trace of externally observable interactions.
Loops only have meaning when they terminate, so execution carries
*fuel*; a successful run is therefore a total-correctness witness, which is
exactly the property Rupicola's derivations claim.

Execution is staged: a function body is compiled once into nested Python
closures ``(locals, run, fuel) -> fuel`` and those closures are what runs.
Locals hold raw ints already masked to the target width; :class:`Word`
objects appear only at the boundaries (arguments, returns, ``SCall`` and
``SInteract``).  Staged code lives exactly as long as the AST it came
from.  Fuel is exact -- every statement checks ``fuel > 0`` on entry and
each non-sequencing statement consumes one unit, so the same statement
runs out at the same fuel value -- even though a run of simple statements
checks its whole cost once and falls back to per-statement checks only
when the fuel left cannot cover it.

The semantics doubles as the cost model for the Figure 2 reproduction:
it counts each primitive operation it executes (arithmetic, loads, stores,
assignments, branches), and the benchmark harness turns those counters
into "cycles per byte"-shaped numbers under several weightings.  An
expression's counts are static, so each staged statement adds its
expression's counts in one step; the counters are exact on every
successful run.

A per-statement *observer* (``Interpreter(observer=...)``) is called with
each statement and the current locals before the statement runs; only
observed runs use the observer-instrumented staging.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bedrock2 import ast
from repro.bedrock2.memory import Memory, MemoryError_
from repro.bedrock2.word import IntLike, Word


class ExecutionError(Exception):
    """The program's behaviour is undefined (bad variable, bad access, ...)."""


class OutOfFuel(ExecutionError):
    """The fuel bound was exhausted: no total-correctness witness produced."""


_FUEL_MESSAGE = "ran out of fuel (nonterminating loop?)"

IntOp = Callable[[int, int], int]
_INT_OPS: Dict[int, Dict[str, IntOp]] = {}


def int_ops(width: int) -> Dict[str, IntOp]:
    """Bedrock2's binary operators on unsigned ints masked to ``width``.

    This table is the single definition of operator semantics: staged
    code binds its entries directly, and :func:`apply_op` wraps them for
    :class:`Word` callers such as the optimizer's constant folder, so
    folded literals are bit-exact by construction.  Operands must already
    be masked; results are.  Division follows RISC-V: ``divu`` by zero is
    all ones, ``remu`` by zero is the dividend; shift amounts are taken
    mod the width.
    """
    ops = _INT_OPS.get(width)
    if ops is not None:
        return ops
    mask = (1 << width) - 1
    sign = 1 << (width - 1)
    ops = {
        "add": lambda a, b: (a + b) & mask,
        "sub": lambda a, b: (a - b) & mask,
        "mul": lambda a, b: (a * b) & mask,
        "mulhuu": lambda a, b: (a * b) >> width,
        "divu": lambda a, b: a // b if b else mask,
        "remu": lambda a, b: a % b if b else a,
        "and": operator.and_,
        "or": operator.or_,
        "xor": operator.xor,
        "sru": lambda a, b: a >> (b % width),
        "slu": lambda a, b: (a << (b % width)) & mask,
        "srs": lambda a, b: ((a - ((a & sign) << 1)) >> (b % width)) & mask,
        # Flipping the sign bit maps two's-complement order onto unsigned order.
        "lts": lambda a, b: 1 if (a ^ sign) < (b ^ sign) else 0,
        "ltu": lambda a, b: 1 if a < b else 0,
        "eq": lambda a, b: 1 if a == b else 0,
    }
    _INT_OPS[width] = ops
    return ops


def apply_op(op: str, lhs: Word, rhs: Word) -> Word:
    """Evaluate one Bedrock2 binary operator on machine words."""
    width = lhs.width
    try:
        fn = int_ops(width)[op]
    except KeyError:
        raise ExecutionError(f"unknown operator {op!r}") from None
    return Word(width, fn(lhs.unsigned, lhs._coerce(rhs)))


@dataclass(frozen=True)
class IOEvent:
    """One entry of the Bedrock2 event trace."""

    action: str
    args: Tuple[int, ...]
    rets: Tuple[int, ...]


@dataclass
class OpCounts:
    """Primitive-operation counters, the basis of the Figure 2 cost models."""

    arith: int = 0
    load: int = 0
    store: int = 0
    assign: int = 0
    branch: int = 0
    call: int = 0
    interact: int = 0
    stackalloc: int = 0
    table: int = 0

    def total(self) -> int:
        return sum(self.as_dict().values())

    def weighted(self, weights: Dict[str, float]) -> float:
        """Total cost under a per-category weighting (a synthetic 'compiler')."""
        cost = 0.0
        for name, weight in weights.items():
            cost += weight * getattr(self, name)
        return cost

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNT_FIELDS}


_COUNT_FIELDS = tuple(f.name for f in fields(OpCounts))


@dataclass
class MachineState:
    """Memory + locals + trace: the three components of Bedrock2 state."""

    memory: Memory
    locals: Dict[str, Word] = field(default_factory=dict)
    trace: List[IOEvent] = field(default_factory=list)


ExternalHandler = Callable[[str, Sequence[Word], MachineState], Sequence[Word]]
StackInitPolicy = Callable[[int], bytes]
Observer = Callable[[ast.Stmt, Dict[str, int]], None]


def zero_stack_init(nbytes: int) -> bytes:
    return bytes(nbytes)


# -- Staging -------------------------------------------------------------------------
#
# Expression closures have the shape ``(locals, run) -> int`` and statement
# closures ``(locals, run, fuel) -> fuel``.  ``run`` is the per-call
# ``_Run``: the shared memory, the caller's machine state, the interpreter
# (for calls, externals and stack initialisation), the observer, and the
# call's count slots.  Each fused block of simple statements and each
# compound statement owns a slot whose static count vector is recorded at
# staging; running it bumps the slot, and the interpreter folds
# ``slot hits x vector`` into its ``OpCounts`` when the call returns.


class _Run:
    __slots__ = ("memory", "state", "interp", "observer", "hits")

    def __init__(self, interp: "Interpreter", state: MachineState, slots: int):
        self.memory = state.memory
        self.state = state
        self.interp = interp
        self.observer = interp.observer
        self.hits = [0] * slots


def _unbound(L: dict, *names: str) -> ExecutionError:
    """The error for the first of ``names`` (in evaluation order) not bound."""
    missing = next((name for name in names if name not in L), names[0])
    return ExecutionError(f"unbound local variable {missing!r}")


def _expr_counts(expr: ast.Expr) -> Tuple[int, int, int]:
    """Static (arith, load, table) counts of one evaluation of ``expr``."""
    arith = load = table = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.EOp:
            arith += 1
            stack += (node.lhs, node.rhs)
        elif kind is ast.ELoad:
            load += 1
            stack.append(node.addr)
        elif kind is ast.EInlineTable:
            table += 1
            stack.append(node.index)
    return arith, load, table


class _Stager:
    """Compiles one statement tree into closures at a fixed width."""

    def __init__(self, width: int, observe: bool):
        self.width = width
        self.mask = (1 << width) - 1
        self.ops = int_ops(width)
        self.observe = observe
        self.vectors: List[Tuple[Tuple[int, int], ...]] = []

    def slot(self, *exprs: ast.Expr, **extra: int) -> int:
        """A count slot for the static counts of ``exprs`` plus ``extra``."""
        totals = dict.fromkeys(_COUNT_FIELDS, 0)
        for expr in exprs:
            arith, load, table = _expr_counts(expr)
            totals["arith"] += arith
            totals["load"] += load
            totals["table"] += table
        for name, value in extra.items():
            totals[name] += value
        vector = tuple(
            (index, totals[name])
            for index, name in enumerate(_COUNT_FIELDS)
            if totals[name]
        )
        self.vectors.append(vector)
        return len(self.vectors) - 1

    # -- expressions --------------------------------------------------------------

    def expr(self, expr: ast.Expr):
        return _EXPR_STAGERS[type(expr)](self, expr)

    def _lit(self, expr: ast.ELit):
        value = expr.value & self.mask
        return lambda L, R: value

    def _var(self, expr: ast.EVar):
        name = expr.name

        def var(L, R):
            try:
                return L[name]
            except KeyError:
                raise _unbound(L, name) from None

        return var

    def _load(self, expr: ast.ELoad):
        addr, size = self.expr(expr.addr), expr.size
        mask = self.mask if 8 * size > self.width else None

        def load(L, R):
            at = addr(L, R)
            try:
                value = R.memory.load(at, size)
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None
            return value if mask is None else value & mask

        return load

    def _table(self, expr: ast.EInlineTable):
        index, size, data = self.expr(expr.index), expr.size, expr.data
        length = len(data)
        mask = self.mask if 8 * size > self.width else None

        def table(L, R):
            offset = index(L, R)
            if offset + size > length:
                raise ExecutionError(
                    f"inline-table read of {size} byte(s) at offset {offset} "
                    f"exceeds table length {length}"
                )
            if size == 1:
                return data[offset]
            value = int.from_bytes(data[offset : offset + size], "little")
            return value if mask is None else value & mask

        return table

    def _op(self, expr: ast.EOp):
        f = self.ops[expr.op]
        lhs, rhs = expr.lhs, expr.rhs
        lkind, rkind = type(lhs), type(rhs)
        if lkind is ast.ELit and rkind is ast.ELit:
            value = f(lhs.value & self.mask, rhs.value & self.mask)
            return lambda L, R: value
        if lkind is ast.EVar and rkind is ast.EVar:
            a, b = lhs.name, rhs.name

            def op_vv(L, R):
                try:
                    return f(L[a], L[b])
                except KeyError:
                    raise _unbound(L, a, b) from None

            return op_vv
        if lkind is ast.EVar and rkind is ast.ELit:
            a, c = lhs.name, rhs.value & self.mask

            def op_vc(L, R):
                try:
                    return f(L[a], c)
                except KeyError:
                    raise _unbound(L, a) from None

            return op_vc
        g, h = self.expr(lhs), self.expr(rhs)
        return lambda L, R: f(g(L, R), h(L, R))

    # -- statements ---------------------------------------------------------------

    def stmt(self, stmt: ast.Stmt):
        """Stage ``stmt`` into a ``(locals, run, fuel) -> fuel`` closure."""
        kind = type(stmt)
        if kind in _SIMPLE_STMTS:
            staged = self._block([stmt])
        else:
            staged = _STMT_STAGERS[kind](self, stmt)
        if not self.observe:
            return staged

        def observed(L, R, fuel):
            R.observer(stmt, L)
            return staged(L, R, fuel)

        return observed

    def _set(self, stmt: ast.SSet):
        lhs, rhs = stmt.lhs, stmt.rhs
        if type(rhs) is ast.EVar:
            name = rhs.name

            def copy(L, R):
                try:
                    L[lhs] = L[name]
                except KeyError:
                    raise _unbound(L, name) from None

            return copy
        value = self.expr(rhs)

        def assign(L, R):
            L[lhs] = value(L, R)

        return assign

    def _unset(self, stmt: ast.SUnset):
        name = stmt.name
        return lambda L, R: L.pop(name, None)

    def _store(self, stmt: ast.SStore):
        addr, value, size = self.expr(stmt.addr), self.expr(stmt.value), stmt.size

        def store(L, R):
            at = addr(L, R)
            data = value(L, R)
            try:
                R.memory.store(at, size, data)
            except MemoryError_ as exc:
                raise ExecutionError(str(exc)) from None

        return store

    def _block(self, stmts: List[ast.Stmt]):
        """A run of simple statements (one fuel unit each, no nested code).

        The fast path checks once that the fuel covers the whole run; when
        it does not, the statements run one by one with the per-statement
        check, so ``OutOfFuel`` is raised at the same statement.
        """
        actions = tuple(_SIMPLE_STMTS[type(s)](self, s) for s in stmts)
        slot = self.slot(
            *(e for s in stmts for e in _simple_exprs(s)),
            assign=sum(type(s) is ast.SSet for s in stmts),
            store=sum(type(s) is ast.SStore for s in stmts),
        )
        cost = len(actions)

        def slow(L, R, fuel):
            for action in actions:
                if fuel <= 0:
                    raise OutOfFuel(_FUEL_MESSAGE)
                action(L, R)
                fuel -= 1
            R.hits[slot] += 1
            return fuel

        if cost == 1:
            (a,) = actions

            def block1(L, R, fuel):
                if fuel <= 0:
                    raise OutOfFuel(_FUEL_MESSAGE)
                a(L, R)
                R.hits[slot] += 1
                return fuel - 1

            return block1
        def block(L, R, fuel):
            if fuel < cost:
                return slow(L, R, fuel)
            for action in actions:
                action(L, R)
            R.hits[slot] += 1
            return fuel - cost

        return block

    def _seq(self, stmt: ast.SSeq):
        items, pending = [], []
        for node in _flatten(stmt, mark=self.observe):
            if not self.observe and type(node) in _SIMPLE_STMTS:
                pending.append(node)
                continue
            if pending:
                items.append(self._block(pending))
                pending = []
            # Observed runs see inner sequencing nodes too.
            items.append(_marker(node) if type(node) is ast.SSeq else self.stmt(node))
        if pending:
            items.append(self._block(pending))
        return _sequence(items)

    def _skip(self, stmt: ast.SSkip):
        def skip(L, R, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL_MESSAGE)
            return fuel

        return skip

    def _cond(self, stmt: ast.SCond):
        cond = self.expr(stmt.cond)
        then_, else_ = self.stmt(stmt.then_), self.stmt(stmt.else_)
        slot = self.slot(stmt.cond, branch=1)

        def branch(L, R, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL_MESSAGE)
            taken = cond(L, R)
            R.hits[slot] += 1
            if taken:
                return then_(L, R, fuel - 1)
            return else_(L, R, fuel - 1)

        return branch

    def _while(self, stmt: ast.SWhile):
        cond, body = self.expr(stmt.cond), self.stmt(stmt.body)
        slot = self.slot(stmt.cond, branch=1)

        def loop(L, R, fuel):
            tests = 0
            while True:
                if fuel <= 0:
                    raise OutOfFuel(_FUEL_MESSAGE)
                taken = cond(L, R)
                tests += 1
                fuel -= 1
                if not taken:
                    R.hits[slot] += tests
                    return fuel
                fuel = body(L, R, fuel)

        return loop

    def _stackalloc(self, stmt: ast.SStackalloc):
        lhs, nbytes, mask = stmt.lhs, stmt.nbytes, self.mask
        body = self.stmt(stmt.body)
        slot = self.slot(stackalloc=1)

        def stackalloc(L, R, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL_MESSAGE)
            R.hits[slot] += 1
            memory = R.memory
            base = memory.allocate_stack(nbytes)
            memory.store_bytes(base, R.interp.stack_init(nbytes))
            L[lhs] = base & mask
            fuel = body(L, R, fuel - 1)
            memory.free(base)
            return fuel

        return stackalloc

    def _call(self, stmt: ast.SCall):
        args = tuple(self.expr(arg) for arg in stmt.args)
        lhss, func, width = stmt.lhss, stmt.func, self.width
        slot = self.slot(*stmt.args, call=1)

        def call(L, R, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL_MESSAGE)
            R.hits[slot] += 1
            words = [Word(width, arg(L, R)) for arg in args]
            # The callee runs on its own fuel copy, as in Bedrock2's
            # big-step call rule; only the call statement is charged here.
            rets = R.interp.call_function(func, words, R.state, fuel - 1)
            if len(rets) != len(lhss):
                raise ExecutionError(
                    f"{func} returned {len(rets)} values, expected {len(lhss)}"
                )
            for name, value in zip(lhss, rets):
                L[name] = value.unsigned
            return fuel - 1

        return call

    def _interact(self, stmt: ast.SInteract):
        args = tuple(self.expr(arg) for arg in stmt.args)
        lhss, action, width, mask = stmt.lhss, stmt.action, self.width, self.mask
        slot = self.slot(*stmt.args, interact=1)

        def interact(L, R, fuel):
            if fuel <= 0:
                raise OutOfFuel(_FUEL_MESSAGE)
            external = R.interp.external
            if external is None:
                raise ExecutionError(f"no external handler for action {action!r}")
            R.hits[slot] += 1
            words = [Word(width, arg(L, R)) for arg in args]
            rets = list(external(action, words, R.state))
            R.state.trace.append(
                IOEvent(
                    action,
                    tuple(a.unsigned for a in words),
                    tuple(r.unsigned for r in rets),
                )
            )
            if len(rets) != len(lhss):
                raise ExecutionError(
                    f"action {action!r} returned {len(rets)} values, "
                    f"expected {len(lhss)}"
                )
            for name, value in zip(lhss, rets):
                L[name] = int(value) & mask
            return fuel - 1

        return interact


def _simple_exprs(stmt: ast.Stmt) -> Tuple[ast.Expr, ...]:
    if type(stmt) is ast.SSet:
        return (stmt.rhs,)
    if type(stmt) is ast.SStore:
        return (stmt.addr, stmt.value)
    return ()


def _flatten(stmt: ast.SSeq, mark: bool) -> List[ast.Stmt]:
    """The statements under a tree of sequencing nodes, in execution order;
    with ``mark``, each inner sequencing node too, just before its first
    statement."""
    out: List[ast.Stmt] = []
    stack = [stmt.second, stmt.first]
    while stack:
        node = stack.pop()
        if type(node) is ast.SSeq:
            if mark:
                out.append(node)
            stack += (node.second, node.first)
        else:
            out.append(node)
    return out


def _marker(stmt: ast.SSeq):
    """An observed sequencing node: shown to the observer, then checked."""

    def marker(L, R, fuel):
        R.observer(stmt, L)
        if fuel <= 0:
            raise OutOfFuel(_FUEL_MESSAGE)
        return fuel

    return marker


def _sequence(items):
    """Run statement closures in order; a sequencing node costs no fuel and
    its entry check is its first statement's."""
    if len(items) == 1:
        return items[0]
    items = tuple(items)

    def sequence(L, R, fuel):
        for item in items:
            fuel = item(L, R, fuel)
        return fuel

    return sequence


_EXPR_STAGERS = {
    ast.ELit: _Stager._lit,
    ast.EVar: _Stager._var,
    ast.ELoad: _Stager._load,
    ast.EOp: _Stager._op,
    ast.EInlineTable: _Stager._table,
}

# Statements that cost one fuel unit and contain no statements: these are
# fused into blocks.  The values stage the statement's action ``(L, R)``.
_SIMPLE_STMTS = {
    ast.SSet: _Stager._set,
    ast.SUnset: _Stager._unset,
    ast.SStore: _Stager._store,
}

_STMT_STAGERS = {
    ast.SSkip: _Stager._skip,
    ast.SSeq: _Stager._seq,
    ast.SCond: _Stager._cond,
    ast.SWhile: _Stager._while,
    ast.SStackalloc: _Stager._stackalloc,
    ast.SCall: _Stager._call,
    ast.SInteract: _Stager._interact,
}


class _Staged:
    """A staged function body plus the count vector of each slot."""

    __slots__ = ("body", "vectors", "source")

    def __init__(self, stmt: ast.Stmt, source, width: int, observe: bool):
        stager = _Stager(width, observe)
        self.body = stager.stmt(stmt)
        self.vectors = tuple(stager.vectors)
        self.source = source


# (id(function), width, observed) -> staged body.  Each entry is dropped
# by a finalizer when its function is collected, so staged code lives no
# longer than the AST: the optimizer builds a fresh candidate per pass.
_STAGED: Dict[Tuple[int, int, bool], _Staged] = {}


def _staged_function(fn: ast.Function, width: int, observe: bool) -> _Staged:
    key = (id(fn), width, observe)
    staged = _STAGED.get(key)
    if staged is not None and staged.source() is fn:
        return staged
    staged = _Staged(fn.body, weakref.ref(fn), width, observe)
    _STAGED[key] = staged
    weakref.finalize(fn, _STAGED.pop, key, None)
    return staged


class Interpreter:
    """Executes Bedrock2 functions against a :class:`MachineState`.

    Parameters
    ----------
    program:
        Resolves ``SCall`` targets.
    width:
        Target word width in bits (32 or 64).
    external:
        Handler for ``SInteract`` events; receives the action name, the
        argument words and the caller's machine state (memory and trace),
        may mutate memory, and returns the result words.
    stack_init:
        Policy producing the initial contents of stack allocations
        (Bedrock2 leaves them nondeterministic; defaults to zeros).  It is
        called once per executed ``SStackalloc``, in execution order.
    observer:
        Optional ``(stmt, locals) -> None`` called before every statement
        runs, sequencing nodes included; ``locals`` maps names to ints.
    """

    DEFAULT_FUEL = 10_000_000

    def __init__(
        self,
        program: Optional[ast.Program] = None,
        width: int = 64,
        external: Optional[ExternalHandler] = None,
        stack_init: StackInitPolicy = zero_stack_init,
        observer: Optional[Observer] = None,
    ):
        if width not in (32, 64):
            raise ValueError("Bedrock2 targets are 32- or 64-bit")
        self.program = program or ast.Program()
        self.width = width
        self.external = external
        self.stack_init = stack_init
        self.observer = observer
        self.counts = OpCounts()

    def _execute(self, body, vectors, L: dict, state: MachineState, fuel: int) -> int:
        run = _Run(self, state, len(vectors))
        try:
            return body(L, run, fuel)
        finally:
            self._tally(vectors, run.hits)

    def _tally(self, vectors, hits: List[int]) -> None:
        """Fold each slot's hits times its count vector into ``counts``."""
        counts = self.counts
        for vector, n in zip(vectors, hits):
            if n:
                for index, value in vector:
                    name = _COUNT_FIELDS[index]
                    setattr(counts, name, getattr(counts, name) + n * value)

    # -- Functions ------------------------------------------------------------

    def call_function(
        self,
        name: str,
        args: Sequence[IntLike],
        state: MachineState,
        fuel: int,
    ) -> List[Word]:
        """Call a Bedrock2 function with its own locals frame (memory is shared).

        ``args`` are words or plain ints (taken modulo the word width)."""
        fn = self.program.function(name)
        if len(args) != len(fn.args):
            raise ExecutionError(
                f"{name} takes {len(fn.args)} arguments, got {len(args)}"
            )
        staged = _staged_function(fn, self.width, self.observer is not None)
        mask = (1 << self.width) - 1
        frame = {param: int(arg) & mask for param, arg in zip(fn.args, args)}
        self._execute(staged.body, staged.vectors, frame, state, fuel)
        rets = []
        for ret in fn.rets:
            if ret not in frame:
                raise ExecutionError(f"{name} did not set return variable {ret!r}")
            rets.append(Word(self.width, frame[ret]))
        return rets

    def run(
        self,
        fn_name: str,
        args: Sequence[Word],
        memory: Optional[Memory] = None,
        fuel: int = DEFAULT_FUEL,
    ) -> Tuple[List[Word], MachineState]:
        """Convenience entry point: run one function on a fresh state."""
        state = MachineState(memory=memory if memory is not None else Memory(self.width))
        rets = self.call_function(fn_name, args, state, fuel)
        return rets, state

    # -- Single nodes (staged afresh on each call) --------------------------------

    def exec_stmt(self, stmt: ast.Stmt, state: MachineState, fuel: int) -> int:
        """Execute ``stmt`` against ``state``'s locals; returns the remaining fuel."""
        stager = _Stager(self.width, self.observer is not None)
        body = stager.stmt(stmt)
        mask = (1 << self.width) - 1
        frame = {name: int(value) & mask for name, value in state.locals.items()}
        try:
            return self._execute(body, stager.vectors, frame, state, fuel)
        finally:
            state.locals.clear()
            state.locals.update(
                (name, Word(self.width, value)) for name, value in frame.items()
            )

    def eval_expr(self, expr: ast.Expr, state: MachineState) -> Word:
        """Evaluate ``expr`` against ``state``'s locals."""
        stager = _Stager(self.width, False)
        value = stager.expr(expr)
        stager.slot(expr)
        mask = (1 << self.width) - 1
        frame = {name: int(v) & mask for name, v in state.locals.items()}
        result = Word(self.width, value(frame, _Run(self, state, 0)))
        self._tally(stager.vectors, [1])
        return result
