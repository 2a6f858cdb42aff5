"""The host-speed kernel: a fixed Python workload that shares no code
with the program under test.

It has two halves, like the program's requests: interpreting a small
expression program (bytecode dispatch, small integers, tuples), and
building, probing and serializing a 12 000-entry table (allocation, a
working set of a few megabytes, ``json`` and ``hashlib``).  The second
half tracks the host's slow states on cache-writing and table-heavy
work, which the first half alone follows poorly.

The benchmark times it before every cycle.  Its time follows the host's
speed, which on a shared VM swings by 1.4 to 1.9 times, so the benchmark
reports its timings at a reference host speed: scaled by
``REFERENCE_S`` over the kernel's time in the same run (see
``pipebench/README.md``).

    python3 pipebench/calibrate.py    # prints the kernel's time here
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time

ROUNDS = 150
TABLE_KEYS = 12000
# The kernel's time in the fast state of the 2-vCPU VM the benchmark was
# built on; a host on which it takes this long runs at reference speed.
REFERENCE_S = 0.015


def _build():
    """Twelve assignments of depth-4 expression trees over three registers."""
    rng = random.Random(7)
    ops = ("add", "xor", "mul", "shr")

    def expr(depth):
        if depth == 0:
            return rng.choice(("r0", "r1", "r2", rng.randrange(1, 1 << 16)))
        return (rng.choice(ops), expr(depth - 1), expr(depth - 1))

    return [(f"r{i % 3}", expr(4)) for i in range(12)]


_PROGRAM = _build()
_KEYS = [f"k{random.Random(11 + i).getrandbits(40):x}" for i in range(TABLE_KEYS)]


def _eval(node, env):
    if type(node) is tuple:
        op, a, b = node
        x = _eval(a, env)
        y = _eval(b, env)
        if op == "add":
            return (x + y) & 0xFFFFFFFF
        if op == "xor":
            return x ^ y
        if op == "mul":
            return (x * y) & 0xFFFFFFFF
        return x >> (y & 7)
    if type(node) is str:
        return env[node]
    return node


def kernel() -> int:
    """Interpret the fixed program ``ROUNDS`` times, logging each round;
    then build a table over ``TABLE_KEYS`` keys, probe a third of it and
    hash the JSON of a quarter of it."""
    env = {"r0": 1, "r1": 2, "r2": 3}
    log = []
    for i in range(ROUNDS):
        for dst, node in _PROGRAM:
            env[dst] = _eval(node, env)
        log.append(f"{i}:{env['r0']:x}")
    table = {}
    for i, key in enumerate(_KEYS):
        table[key] = (i, key[1:5], [i & 7])
    total = sum(table[key][0] for key in _KEYS[::3])
    blob = json.dumps([table[key] for key in _KEYS[:TABLE_KEYS // 4]]).encode()
    return len("".join(log)) + env["r0"] + total + hashlib.sha256(blob).digest()[0]


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


if __name__ == "__main__":
    samples = [timed() for _ in range(50)]
    print(f"kernel: median {statistics.median(samples) * 1e3:.2f} ms, "
          f"fastest {min(samples) * 1e3:.2f} ms, reference {REFERENCE_S * 1e3:.2f} ms")
