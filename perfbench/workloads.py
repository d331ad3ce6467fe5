"""Seeded command streams, one per workload.

A stream is an endless sequence of rounds; a run stops at the end of the
round during which its time is up, once it has ``MIN_COMMANDS``.  The seed
only orders the commands and draws their free arguments: an export round
always holds the same kinds of command in the same formats, a verify stream
alternates text and JSON, and the generic stream goes through every
signature once before repeating, so the latency mix a run measures is the
same for every seed.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator

from oracle import SYMBOLS

Argv = list[str]

# p + q = 10: 45 generators, 990 bracket pairs each.  8,8 stays out until
# it runs in seconds rather than a minute.
GENERIC_SIGNATURES = tuple((p, 10 - p) for p in range(2, 9))
HALF_INTEGERS = ("0", "1/2", "1", "3/2", "2", "5/2")
# An untraced run also goes on until it has this many commands, so that at
# least ten export samples lie beyond p95 even when the machine runs slowly.
MIN_COMMANDS = {"export": 288}
FORMATS = ("text", "json", "svg")


def _verify(signature: str, k: int) -> Argv:
    """The k-th verify command: text and JSON alternate."""
    return ["verify", "--signature", signature] + (["--format", "json"] if k % 2 else [])


def _fixed_signature(signature: str) -> Callable[[random.Random], Iterator[list[Argv]]]:
    def stream(rng: random.Random) -> Iterator[list[Argv]]:
        k = rng.randrange(2)
        while True:
            yield [_verify(signature, k)]
            k += 1

    return stream


def _generic_stream(rng: random.Random) -> Iterator[list[Argv]]:
    k = rng.randrange(2)
    while True:
        sigs = list(GENERIC_SIGNATURES)
        rng.shuffle(sigs)
        for p, q in sigs:
            yield [_verify(f"{p},{q}", k)]
            k += 1


def _export_round(rng: random.Random) -> list[Argv]:
    """24 commands: 3 roots 4,4 and 3 roots 4,2 (one per format), then 18
    lookups: 3 towers (one per format), 9 element queries and 6 masses.
    Sorted by cost, the 6 masses and the 3 queries without ``--node`` lie
    below the 6 ``elements --z N --node ...`` text queries, and the towers
    and roots above them, so p50 falls in the middle of that one kind of
    command and p95 inside the roots 4,4 class."""

    def half() -> str:
        return rng.choice(HALF_INTEGERS)

    def z() -> str:
        return str(rng.randint(1, len(SYMBOLS)))

    cmds: list[Argv] = []
    for signature in ("4,4", "4,2"):
        cmds += [["roots", "--signature", signature, "--format", f] for f in FORMATS]
    cmds += [["tower", f"--spin={rng.choice(('-1/2', '+1/2'))}", "--format", f] for f in FORMATS]
    cmds += [
        ["elements", "--z", z()],
        ["elements", "--symbol", SYMBOLS[int(z()) - 1]],
        ["elements", "--symbol", SYMBOLS[int(z()) - 1], "--format", "json"],
    ]
    cmds += [["elements", "--z", z(), "--node", f"{half()},{half()},{half()}"] for _ in range(6)]
    cmds += [["mass", half(), half()] for _ in range(3)]
    cmds += [["mass", half(), half(), half()] for _ in range(3)]
    rng.shuffle(cmds)
    return cmds


def _export_stream(rng: random.Random) -> Iterator[list[Argv]]:
    while True:
        yield _export_round(rng)


STREAMS: dict[str, Callable[[random.Random], Iterator[list[Argv]]]] = {
    "verify-so42": _fixed_signature("4,2"),
    "verify-so44": _fixed_signature("4,4"),
    "verify-generic": _generic_stream,
    "export": _export_stream,
}


def stream(workload: str, seed: int) -> Iterator[list[Argv]]:
    return STREAMS[workload](random.Random(seed))
