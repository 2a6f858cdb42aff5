"""Fuel and error behaviour of the staged Bedrock2 semantics.

Every executed statement except sequencing and ``skip`` costs one unit of
fuel, so a successful run's ``OpCounts`` tell exactly how much fuel it
needed: that much succeeds and one unit less raises ``OutOfFuel``.  The
fused blocks of simple statements must not change this, whatever the
block length, and errors must surface at the statement that causes them.
"""

import pytest

from repro.bedrock2.ast import (
    EInlineTable,
    Function,
    Program,
    SCall,
    SCond,
    SInteract,
    SSeq,
    SSet,
    SSkip,
    SStackalloc,
    SUnset,
    SWhile,
    add,
    lit,
    load1,
    ltu,
    seq_of,
    store,
    sub,
    var,
)
from repro.bedrock2.memory import Memory
from repro.bedrock2.semantics import ExecutionError, Interpreter, OutOfFuel
from repro.bedrock2.word import Word


def executed_statements(counts) -> int:
    """Statements a run executed, read off its counters."""
    return (
        counts.assign
        + counts.store
        + counts.stackalloc
        + counts.branch
        + counts.call
        + counts.interact
    )


def _countdown(body_len: int) -> Function:
    """``acc = 0; i = n; while (i) { <body_len sets>; i -= 1 }``."""
    body = [SSet(f"t{k}", add(var("acc"), lit(k))) for k in range(body_len - 1)]
    body.append(SSet("acc", add(var("acc"), var("i"))))
    return Function(
        "countdown",
        ("n",),
        ("acc",),
        seq_of(
            SSet("acc", lit(0)),
            SSet("i", var("n")),
            SWhile(var("i"), seq_of(*body, SSet("i", sub(var("i"), lit(1))))),
        ),
    )


def _buffer_loop() -> Function:
    """Stores, loads, a conditional and a stack allocation per call."""
    return Function(
        "scramble",
        ("p", "len"),
        ("acc",),
        seq_of(
            SSet("acc", lit(0)),
            SSet("i", lit(0)),
            SWhile(
                ltu(var("i"), var("len")),
                seq_of(
                    SSet("b", load1(add(var("p"), var("i")))),
                    SCond(
                        ltu(var("b"), lit(128)),
                        store(1, add(var("p"), var("i")), add(var("b"), lit(1))),
                        SSkip(),
                    ),
                    SSet("acc", add(var("acc"), var("b"))),
                    SSet("i", add(var("i"), lit(1))),
                ),
            ),
            SStackalloc(
                "tmp",
                8,
                seq_of(store(1, var("tmp"), var("acc")), SSet("acc", load1(var("tmp")))),
            ),
            SUnset("b"),
        ),
    )


def _run_countdown(fn, n, fuel):
    interp = Interpreter(Program((fn,)))
    rets, _ = interp.run(fn.name, [Word(64, n)], fuel=fuel)
    return rets[0].unsigned, interp.counts


def _run_buffer(fn, data, fuel):
    interp = Interpreter(Program((fn,)))
    memory = Memory()
    base = memory.place_bytes(data)
    rets, _ = interp.run(
        fn.name, [Word(64, base), Word(64, len(data))], memory=memory, fuel=fuel
    )
    return rets[0].unsigned, interp.counts


@pytest.mark.parametrize("body_len", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_exact_fuel_succeeds_and_one_less_runs_out(body_len, n):
    fn = _countdown(body_len)
    value, counts = _run_countdown(fn, n, Interpreter.DEFAULT_FUEL)
    assert value == n * (n + 1) // 2
    needed = executed_statements(counts)
    assert needed == 2 + (n + 1) + n * (body_len + 1)
    assert _run_countdown(fn, n, needed)[0] == value
    with pytest.raises(OutOfFuel):
        _run_countdown(fn, n, needed - 1)


@pytest.mark.parametrize("data", [b"", b"\x01", bytes(range(0, 256, 37))])
def test_exact_fuel_with_stores_branches_and_stackalloc(data):
    fn = _buffer_loop()
    value, counts = _run_buffer(fn, data, Interpreter.DEFAULT_FUEL)
    # SUnset costs fuel but has no counter of its own.
    needed = executed_statements(counts) + 1
    assert _run_buffer(fn, data, needed)[0] == value
    with pytest.raises(OutOfFuel):
        _run_buffer(fn, data, needed - 1)


@pytest.mark.parametrize("fuel", range(1, 8))
def test_every_fuel_value_short_of_a_block_runs_out(fuel):
    """A block of seven sets falls back to per-statement checks when the
    fuel cannot cover it; it must run out, never run partially to the end."""
    body = seq_of(*[SSet(f"x{k}", lit(k)) for k in range(7)])
    fn = Function("f", (), ("x6",), body)
    interp = Interpreter(Program((fn,)))
    if fuel < 7:
        with pytest.raises(OutOfFuel):
            interp.run("f", [], fuel=fuel)
    else:
        assert interp.run("f", [], fuel=fuel)[0][0].unsigned == 6


def test_trailing_skip_needs_one_more_unit():
    """``skip`` costs nothing but, like every statement, needs fuel > 0."""
    fn = Function("f", (), (), SCond(lit(0), SSet("x", lit(1)), SSkip()))
    interp = Interpreter(Program((fn,)))
    with pytest.raises(OutOfFuel):
        interp.run("f", [], fuel=1)
    interp.run("f", [], fuel=2)


def _fn(body, args=(), rets=()):
    return Function("f", args, rets, body)


def _raises(fn, args=(), match=None, memory=None, fuel=Interpreter.DEFAULT_FUEL):
    interp = Interpreter(Program((fn,)))
    with pytest.raises(ExecutionError, match=match) as info:
        interp.run(fn.name, [Word(64, a) for a in args], memory=memory, fuel=fuel)
    return info


def test_unbound_local_names_the_variable():
    info = _raises(_fn(SSet("y", add(lit(1), var("ghost")))), match="'ghost'")
    assert not isinstance(info.value, OutOfFuel)


def test_unbound_local_is_raised_when_reached_not_before():
    fn = _fn(seq_of(SSet("a", lit(1)), SSet("b", lit(2)), SSet("c", var("ghost"))))
    _raises(fn, match="ghost")
    # With fuel for only two statements the run stops before the bad read.
    info = _raises(fn, fuel=2)
    assert isinstance(info.value, OutOfFuel)


def test_out_of_bounds_load_and_store():
    memory = Memory()
    base = memory.place_bytes(b"\x01\x02")
    _raises(
        _fn(SSet("x", load1(add(var("p"), lit(2)))), args=("p",)),
        args=(base,),
        match="out of bounds",
        memory=memory,
    )
    _raises(
        _fn(store(4, var("p"), lit(7)), args=("p",)),
        args=(base,),
        match="out of bounds",
        memory=memory,
    )
    assert memory.load_bytes(base, 2) == b"\x01\x02"


def test_inline_table_overrun():
    table = EInlineTable(2, bytes([1, 2, 3]), var("i"))
    fn = _fn(SSet("x", table), args=("i",), rets=("x",))
    interp = Interpreter(Program((fn,)))
    assert interp.run("f", [Word(64, 1)])[0][0].unsigned == 0x0302
    _raises(fn, args=(2,), match="exceeds table length 3")


def test_call_arity_and_return_count():
    callee = Function("callee", ("a",), ("r",), SSet("r", var("a")))
    short = Function("short", (), (), SCall(("x",), "callee", ()))
    wrong_rets = Function("wrong", (), (), SCall(("x", "y"), "callee", (lit(1),)))
    interp = Interpreter(Program((callee, short, wrong_rets)))
    with pytest.raises(ExecutionError, match="takes 1 arguments, got 0"):
        interp.run("short", [])
    with pytest.raises(ExecutionError, match="returned 1 values, expected 2"):
        interp.run("wrong", [])


def test_missing_return_variable():
    _raises(_fn(SSet("x", lit(1)), rets=("y",)), match="did not set return variable 'y'")


def test_interact_return_count_checked():
    fn = _fn(SInteract(("a", "b"), "read", ()))
    interp = Interpreter(Program((fn,)), external=lambda action, args, state: [Word(64, 1)])
    with pytest.raises(ExecutionError, match="returned 1 values, expected 2"):
        interp.run("f", [])


def test_observer_sees_every_statement_before_it_runs():
    fn = _countdown(1)
    seen = []

    def observer(stmt, locals_):
        seen.append((type(stmt).__name__, dict(locals_)))

    interp = Interpreter(Program((fn,)), observer=observer)
    assert interp.run("countdown", [Word(64, 2)])[0][0].unsigned == 3
    kinds = [kind for kind, _ in seen]
    # The whole-body sequence node first, the loop once, its body per pass.
    assert kinds[0] == "SSeq"
    assert kinds.count("SWhile") == 1
    assert ("SSet", {"n": 2, "acc": 0}) in seen
    # Observed and unobserved runs agree on fuel and counts.
    _, plain = _run_countdown(fn, 2, Interpreter.DEFAULT_FUEL)
    assert interp.counts == plain
    with pytest.raises(OutOfFuel):
        Interpreter(Program((fn,)), observer=lambda s, loc: None).run(
            "countdown", [Word(64, 2)], fuel=executed_statements(plain) - 1
        )


def test_observer_visits_nodes_in_execution_order():
    """Pre-order over sequencing nodes, one visit per executed statement,
    whatever the nesting."""
    a, b, c, d = (SSet(name, lit(1)) for name in "abcd")
    inner = SSeq(a, b)
    right = SSeq(c, d)
    body = SSeq(inner, right)
    seen = []
    interp = Interpreter(
        Program((Function("f", (), (), body),)),
        observer=lambda stmt, locals_: seen.append(stmt),
    )
    interp.run("f", [])
    assert [id(s) for s in seen] == [id(s) for s in (body, inner, a, b, right, c, d)]


def test_staged_code_lives_no_longer_than_its_ast():
    import gc

    from repro.bedrock2 import semantics

    fn = _countdown(2)
    _run_countdown(fn, 3, Interpreter.DEFAULT_FUEL)
    key = (id(fn), 64, False)
    assert semantics._STAGED[key].source() is fn
    del fn
    gc.collect()
    assert key not in semantics._STAGED
