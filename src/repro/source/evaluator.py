"""The functional semantics of source terms.

Evaluating a term yields a plain Python value: ints for words/bytes/nats,
bools, lists for arrays, tuples for tuple results.  This is the "shallow"
half of the embedding -- the functional model *is* a runnable program --
and it is the reference against which both hand proofs (model vs spec) and
the differential validator (model vs compiled Bedrock2) compare.

Annotations are semantically transparent, exactly as in the paper
(§3.4.1): ``let/n`` evaluates like a plain ``let``, ``stack``/``copy``
evaluate to their argument, and the wrapper modules (``ListArray``,
``InlineTable``) evaluate to ordinary list operations.

Extensional effects run against an :class:`EffectContext`: the I/O monad
consumes an input stream and appends to an output trace, the writer monad
appends to an output list, the state monad threads a value, and the
nondeterminism monad consults an *oracle* -- validation picks the oracle
that mirrors the compiled code's actual choices, which is the existential
direction of the nondeterminism lift described in §3.4.1.

Evaluation is staged: :class:`Stager` compiles a term once into nested
Python closures (memoized per interned term) and :meth:`Evaluator.eval`
runs them.  Fuel counts one step per term node, exactly as a
node-by-node walk would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.source import terms as t
from repro.source.ops import REGISTRY, eval_op


class EvalError(Exception):
    """The term is stuck (unbound variable, out-of-bounds access, ...)."""


@dataclass
class CellV:
    """Runtime representation of a mutable cell's *functional* value."""

    value: int

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CellV) and self.value == other.value


def default_oracle(tag: str, arg: object) -> object:
    """The deterministic default oracle: zeros everywhere."""
    if tag == "alloc":
        return [0] * int(arg)  # type: ignore[arg-type]
    return 0


@dataclass
class EffectContext:
    """Carries the ambient extensional effects during evaluation."""

    io_input: Iterator[int] = field(default_factory=lambda: iter(()))
    io_output: List[int] = field(default_factory=list)
    writer_output: List[int] = field(default_factory=list)
    state: object = None
    oracle: Callable[[str, object], object] = default_oracle
    # Error monad: set by a failed ErrGuard; short-circuits later binds.
    error: bool = False


# -- Staging ---------------------------------------------------------------------------
#
# A term is staged once into nested closures ``(env, run) -> value``; ``run``
# is the per-evaluation ``_Run`` carrying the effect context and the fuel
# left.  Every node ticks one unit of fuel on entry, exactly where the
# evaluation of that node begins, so a staged evaluation runs out at the
# same node as a step-by-step one would.  Environments are copied on every
# binder: a loop copies its environment once on entry and rebinds its
# loop variables in that copy each iteration, which is observably the same
# because no node mutates the environment it is given.


class _Run:
    __slots__ = ("fx", "left")

    def __init__(self, fx: EffectContext, fuel: int):
        self.fx = fx
        self.left = fuel


_EXHAUSTED = "evaluation fuel exhausted"


def tick(run: _Run) -> None:
    """Charge one evaluation step (for staging hooks outside this module)."""
    run.left -= 1
    if run.left < 0:
        raise EvalError(_EXHAUSTED)


def _check_index(index: object, length: int, what: str) -> int:
    index = int(index)  # type: ignore[call-overload]
    if not 0 <= index < length:
        raise EvalError(f"{what}: index {index} out of bounds (length {length})")
    return index


# (id(term), width) -> (term, staged closure), for interned terms only:
# their ids are stable while the intern table pins them, and the memo is
# dropped with the table.
_STAGED: Dict[Tuple[int, int], tuple] = t.register_node_memo({})


class Stager:
    """Compiles terms into closures at one word width.

    Term heads defined outside :mod:`repro.source` (e.g. ``repro.query``'s
    combinators) stage themselves through a ``stage_node(stager)`` hook
    returning a ``(env, run) -> value`` closure; the closure must call
    :func:`tick` on entry and may stage its children with :meth:`stage`
    and :meth:`array`.
    """

    def __init__(self, width: int):
        self.width = width

    def stage(self, term: t.Term) -> Callable[[dict, _Run], object]:
        canonical = term.__dict__.get("_hc_canonical", False)
        if canonical:
            entry = _STAGED.get((id(term), self.width))
            if entry is not None and entry[0] is term:
                return entry[1]
        stager = _TERM_STAGERS.get(type(term))
        if stager is not None:
            staged = stager(self, term)
        else:
            hook = getattr(term, "stage_node", None)
            staged = hook(self) if hook is not None else _stuck(term)
        if canonical:
            _STAGED[(id(term), self.width)] = (term, staged)
        return staged

    def array(self, term: t.Term) -> Callable[[dict, _Run], list]:
        """Stage ``term`` and check at run time that it yields an array."""
        value = self.stage(term)

        def array(env, run):
            arr = value(env, run)
            if not isinstance(arr, list):
                raise EvalError(f"expected an array, got {arr!r}")
            return arr

        return array

    # -- pure core ------------------------------------------------------------------

    def _lit(self, term: t.Lit):
        value = term.value
        if isinstance(value, tuple):  # array literals: a fresh list each time

            def array_lit(env, run):
                run.left -= 1
                if run.left < 0:
                    raise EvalError(_EXHAUSTED)
                return list(value)

            return array_lit

        def lit(env, run):
            run.left -= 1
            if run.left < 0:
                raise EvalError(_EXHAUSTED)
            return value

        return lit

    def _var(self, term: t.Var):
        name = term.name

        def var(env, run):
            run.left -= 1
            if run.left < 0:
                raise EvalError(_EXHAUSTED)
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound variable {name!r}") from None

        return var

    def _prim(self, term: t.Prim):
        args = tuple(self.stage(arg) for arg in term.args)
        name, width = term.op, self.width
        op = REGISTRY.get(name)
        if op is None or op.arity != len(args):
            # eval_op raises the unknown-operation / arity error at run time.
            def prim_error(env, run):
                tick(run)
                return eval_op(name, width, [arg(env, run) for arg in args])

            return prim_error
        impl = op.impl
        if len(args) == 1:
            (a,) = args

            def prim1(env, run):
                run.left -= 1
                if run.left < 0:
                    raise EvalError(_EXHAUSTED)
                return impl(width, a(env, run))

            return prim1
        if len(args) == 2:
            a, b = args

            def prim2(env, run):
                run.left -= 1
                if run.left < 0:
                    raise EvalError(_EXHAUSTED)
                return impl(width, a(env, run), b(env, run))

            return prim2

        def prim(env, run):
            tick(run)
            return impl(width, *[arg(env, run) for arg in args])

        return prim

    def _let(self, term: t.Let):
        name, value, body = term.name, self.stage(term.value), self.stage(term.body)

        def let(env, run):
            run.left -= 1
            if run.left < 0:
                raise EvalError(_EXHAUSTED)
            bound = value(env, run)
            inner = dict(env)
            inner[name] = bound
            return body(inner, run)

        return let

    def _let_tuple(self, term: t.LetTuple):
        names, value, body = term.names, self.stage(term.value), self.stage(term.body)

        def let_tuple(env, run):
            tick(run)
            bound = value(env, run)
            if not isinstance(bound, tuple) or len(bound) != len(names):
                raise EvalError(f"let-tuple of {len(names)} names got {bound!r}")
            inner = dict(env)
            inner.update(zip(names, bound))
            return body(inner, run)

        return let_tuple

    def _if(self, term: t.If):
        cond, then_, else_ = (
            self.stage(term.cond), self.stage(term.then_), self.stage(term.else_)
        )

        def if_(env, run):
            run.left -= 1
            if run.left < 0:
                raise EvalError(_EXHAUSTED)
            return (then_ if cond(env, run) else else_)(env, run)

        return if_

    def _tuple(self, term: t.TupleTerm):
        items = tuple(self.stage(item) for item in term.items)

        def tuple_(env, run):
            tick(run)
            return tuple([item(env, run) for item in items])

        return tuple_

    # -- arrays ---------------------------------------------------------------------

    def _array_len(self, term: t.ArrayLen):
        arr = self.array(term.arr)

        def array_len(env, run):
            tick(run)
            return len(arr(env, run))

        return array_len

    def _array_get(self, term: t.ArrayGet):
        arr, index = self.array(term.arr), self.stage(term.index)

        def array_get(env, run):
            run.left -= 1
            if run.left < 0:
                raise EvalError(_EXHAUSTED)
            items = arr(env, run)
            return items[_check_index(index(env, run), len(items), "get")]

        return array_get

    def _array_put(self, term: t.ArrayPut):
        arr, index, value = (
            self.array(term.arr), self.stage(term.index), self.stage(term.value)
        )

        def array_put(env, run):
            tick(run)
            items = arr(env, run)
            at = _check_index(index(env, run), len(items), "put")
            fresh = list(items)
            fresh[at] = value(env, run)
            return fresh

        return array_put

    def _array_map(self, term: t.ArrayMap):
        arr, body, elem_name = self.array(term.arr), self.stage(term.body), term.elem_name

        def array_map(env, run):
            tick(run)
            items = arr(env, run)
            inner = dict(env)
            out = []
            for elem in items:
                inner[elem_name] = elem
                out.append(body(inner, run))
            return out

        return array_map

    def _array_fold(self, term: t.ArrayFold):
        arr, init, body = self.array(term.arr), self.stage(term.init), self.stage(term.body)
        acc_name, elem_name = term.acc_name, term.elem_name

        def array_fold(env, run):
            tick(run)
            items = arr(env, run)
            acc = init(env, run)
            inner = dict(env)
            for elem in items:
                inner[acc_name] = acc
                inner[elem_name] = elem
                acc = body(inner, run)
            return acc

        return array_fold

    def _array_fold_break(self, term: t.ArrayFoldBreak):
        arr, init, body = self.array(term.arr), self.stage(term.init), self.stage(term.body)
        stop = self.stage(term.break_pred)
        acc_name, elem_name = term.acc_name, term.elem_name

        def array_fold_break(env, run):
            tick(run)
            items = arr(env, run)
            acc = init(env, run)
            pred_env, inner = dict(env), dict(env)
            for elem in items:
                pred_env[acc_name] = acc
                if stop(pred_env, run):
                    break
                inner[acc_name] = acc
                inner[elem_name] = elem
                acc = body(inner, run)
            return acc

        return array_fold_break

    def _ranged_for(self, term: t.RangedFor):
        lo, hi, init, body = (
            self.stage(term.lo), self.stage(term.hi),
            self.stage(term.init), self.stage(term.body),
        )
        idx_name, acc_name = term.idx_name, term.acc_name

        def ranged_for(env, run):
            tick(run)
            start = lo(env, run)
            stop = hi(env, run)
            acc = init(env, run)
            inner = dict(env)
            for index in range(int(start), int(stop)):
                inner[idx_name] = index
                inner[acc_name] = acc
                acc = body(inner, run)
            return acc

        return ranged_for

    def _nat_iter(self, term: t.NatIter):
        count, init, body = self.stage(term.count), self.stage(term.init), self.stage(term.body)
        acc_name = term.acc_name

        def nat_iter(env, run):
            tick(run)
            times = count(env, run)
            acc = init(env, run)
            inner = dict(env)
            for _ in range(int(times)):
                inner[acc_name] = acc
                acc = body(inner, run)
            return acc

        return nat_iter

    def _first_n(self, term: t.FirstN):
        count, arr = self.stage(term.count), self.array(term.arr)

        def first_n(env, run):
            tick(run)
            n = int(count(env, run))
            return arr(env, run)[:n]

        return first_n

    def _skip_n(self, term: t.SkipN):
        count, arr = self.stage(term.count), self.array(term.arr)

        def skip_n(env, run):
            tick(run)
            n = int(count(env, run))
            return arr(env, run)[n:]

        return skip_n

    def _append(self, term: t.Append):
        first, second = self.array(term.first), self.array(term.second)

        def append(env, run):
            tick(run)
            return first(env, run) + second(env, run)

        return append

    # -- tables and cells -------------------------------------------------------------

    def _table_get(self, term: t.TableGet):
        index, data = self.stage(term.index), term.data
        length = len(data)

        def table_get(env, run):
            run.left -= 1
            if run.left < 0:
                raise EvalError(_EXHAUSTED)
            return data[_check_index(index(env, run), length, "InlineTable.get")]

        return table_get

    def _cell_get(self, term: t.CellGet):
        cell = self.stage(term.cell)

        def cell_get(env, run):
            tick(run)
            value = cell(env, run)
            if not isinstance(value, CellV):
                raise EvalError(f"get of non-cell value {value!r}")
            return value.value

        return cell_get

    def _cell_put(self, term: t.CellPut):
        cell, value = self.stage(term.cell), self.stage(term.value)

        def cell_put(env, run):
            tick(run)
            old = cell(env, run)
            if not isinstance(old, CellV):
                raise EvalError(f"put of non-cell value {old!r}")
            return CellV(value(env, run))

        return cell_put

    def _annotation(self, term):
        # ``stack``/``copy`` are semantically transparent.
        value = self.stage(term.value)

        def annotation(env, run):
            tick(run)
            return value(env, run)

        return annotation

    def _call(self, term: t.Call):
        func, args = term.func, tuple(self.stage(arg) for arg in term.args)

        def call(env, run):
            tick(run)
            fns = env.get("__functions__")
            if not isinstance(fns, dict) or func not in fns:
                raise EvalError(f"no model for external function {func!r}")
            return fns[func](*[arg(env, run) for arg in args])

        return call

    # -- monads ---------------------------------------------------------------------

    def _ret(self, term: t.MRet):
        value = self.stage(term.value)

        def ret(env, run):
            tick(run)
            if run.fx.error:
                return 0
            return value(env, run)

        return ret

    def _bind(self, term: t.MBind):
        name, ma, body = term.name, self.stage(term.ma), self.stage(term.body)

        def bind(env, run):
            tick(run)
            if run.fx.error:
                return 0
            value = ma(env, run)
            if run.fx.error:
                return 0
            inner = dict(env)
            inner[name] = value
            return body(inner, run)

        return bind

    def _guard(self, term: t.ErrGuard):
        cond = self.stage(term.cond)

        def guard(env, run):
            tick(run)
            if not run.fx.error and not cond(env, run):
                run.fx.error = True
            return 0

        return guard

    def _io_read(self, term: t.IORead):
        def io_read(env, run):
            tick(run)
            try:
                return next(run.fx.io_input)
            except StopIteration:
                raise EvalError("io.read past end of input") from None

        return io_read

    def _io_write(self, term: t.IOWrite):
        value = self.stage(term.value)

        def io_write(env, run):
            tick(run)
            written = value(env, run)
            run.fx.io_output.append(int(written))  # type: ignore[call-overload]
            return written

        return io_write

    def _tell(self, term: t.WriterTell):
        value = self.stage(term.value)

        def tell(env, run):
            tick(run)
            told = value(env, run)
            run.fx.writer_output.append(int(told))  # type: ignore[call-overload]
            return told

        return tell

    def _nd_any(self, term: t.NdAny):
        ty = term.ty

        def nd_any(env, run):
            tick(run)
            return run.fx.oracle("any", ty)

        return nd_any

    def _nd_alloc(self, term: t.NdAllocBytes):
        nbytes = term.nbytes

        def nd_alloc(env, run):
            tick(run)
            return list(run.fx.oracle("alloc", nbytes))  # type: ignore[call-overload]

        return nd_alloc

    def _st_get(self, term: t.StGet):
        def st_get(env, run):
            tick(run)
            return run.fx.state

        return st_get

    def _st_put(self, term: t.StPut):
        value = self.stage(term.value)

        def st_put(env, run):
            tick(run)
            run.fx.state = value(env, run)
            return run.fx.state

        return st_put


def _stuck(term: t.Term):
    def stuck(env, run):
        tick(run)
        raise EvalError(f"cannot evaluate {term!r}")

    return stuck


_TERM_STAGERS = {
    t.Lit: Stager._lit,
    t.Var: Stager._var,
    t.Prim: Stager._prim,
    t.Let: Stager._let,
    t.LetTuple: Stager._let_tuple,
    t.If: Stager._if,
    t.TupleTerm: Stager._tuple,
    t.ArrayLen: Stager._array_len,
    t.ArrayGet: Stager._array_get,
    t.ArrayPut: Stager._array_put,
    t.ArrayMap: Stager._array_map,
    t.ArrayFold: Stager._array_fold,
    t.ArrayFoldBreak: Stager._array_fold_break,
    t.RangedFor: Stager._ranged_for,
    t.NatIter: Stager._nat_iter,
    t.FirstN: Stager._first_n,
    t.SkipN: Stager._skip_n,
    t.Append: Stager._append,
    t.TableGet: Stager._table_get,
    t.CellGet: Stager._cell_get,
    t.CellPut: Stager._cell_put,
    t.Stack: Stager._annotation,
    t.Copy: Stager._annotation,
    t.Call: Stager._call,
    t.MRet: Stager._ret,
    t.MBind: Stager._bind,
    t.ErrGuard: Stager._guard,
    t.IORead: Stager._io_read,
    t.IOWrite: Stager._io_write,
    t.WriterTell: Stager._tell,
    t.NdAny: Stager._nd_any,
    t.NdAllocBytes: Stager._nd_alloc,
    t.StGet: Stager._st_get,
    t.StPut: Stager._st_put,
}


class Evaluator:
    """Evaluates terms at a given target word width."""

    def __init__(self, width: int = 64, fuel: int = 10_000_000):
        self.width = width
        self.fuel = fuel

    def eval(
        self,
        term: t.Term,
        env: Optional[dict] = None,
        effects: Optional[EffectContext] = None,
    ) -> object:
        staged = Stager(self.width).stage(term)
        return staged(dict(env or {}), _Run(effects or EffectContext(), self.fuel))


def eval_term(
    term: t.Term,
    env: Optional[dict] = None,
    width: int = 64,
    effects: Optional[EffectContext] = None,
) -> object:
    """One-shot evaluation helper."""
    return Evaluator(width=width).eval(term, env, effects)
