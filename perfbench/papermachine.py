"""Seeded generator of a paper-scale machine (t = 32, so d = 2t + 8 = 72).

No paper-scale machine ships with the repository, so the benchmark draws one.
The shape is fixed and only the choices inside it are random: ten states with
all three symbols defined and one with two (32 transitions), exactly 16 left
and 16 right moves, and exactly two transitions into the halt state.

The benchmark uses the machine of ``MACHINE_SEED`` and a fixed set of its
transitions for every run, and draws tapes and head positions from the run's
seed: with a machine and transitions per seed, the cost of a cycle varied
between seeds by more than the spread a regression bound can tolerate.
"""
from __future__ import annotations

import json
import random

from simdna import tm

T = 32
MACHINE_SEED = 0
MOVES_LEFT = 16
HALTING = 2
SYMBOLS = ("0", "1", "_")
HALT = "h"


def machine_document(seed: int) -> bytes:
    """Machine file (JSON, which the YAML machine parser accepts)."""
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(11)]
    keys = [(q, sym) for q in states[:10] for sym in SYMBOLS]
    keys += [(states[10], sym) for sym in sorted(rng.sample(SYMBOLS, 2))]
    moves = ["L"] * MOVES_LEFT + ["R"] * (T - MOVES_LEFT)
    rng.shuffle(moves)
    halting = set(rng.sample(range(T), HALTING))
    table: dict[str, dict[str, dict[str, str]]] = {}
    for i, (q, sym) in enumerate(keys):
        table.setdefault(q, {})[sym] = {
            "write": rng.choice(SYMBOLS),
            "move": moves[i],
            "next": HALT if i in halting else rng.choice(states),
        }
    doc = {"blank": "_", "start state": "q0", "halt state": HALT, "table": table}
    return json.dumps(doc, sort_keys=True).encode()


def steppable_config(spec, key, s: int, rng: random.Random):
    """A running configuration of ``s`` cells whose head reads ``key`` and
    whose step stays on the tape (the one-step claim covers only those)."""
    state, symbol = key
    nxt, _write, move = spec.transitions[key]
    heads = range(s)
    if nxt != spec.halt:
        heads = range(1, s) if move == "L" else range(0, s - 1)
    head = rng.choice(heads)
    tape = [rng.choice(SYMBOLS) for _ in range(s)]
    tape[head] = symbol
    config = tm.TMConfig(tuple(tape), head, state)
    tm.tm_step(spec, config)  # raises if the step leaves the tape
    return config


def stratified_configs(spec, order, s: int, per_move: int, rng: random.Random):
    """``per_move`` configurations for each direction of head move.

    A pass costs more when its sublist moves the head left, and a right move
    costs less the later its region comes in the transition order.  The
    transitions are fixed, the middle one of each block of consecutive
    regions per direction, so every seed's solution has the same mix of
    cheap and dear passes; the seed draws tapes and head positions."""
    out = []
    for move in ("L", "R"):
        keys = [
            k for k in order
            if spec.transitions[k][2] == move and spec.transitions[k][0] != spec.halt
        ]
        bounds = [round(i * len(keys) / per_move) for i in range(per_move + 1)]
        out += [
            steppable_config(spec, keys[(lo + hi) // 2], s, rng)
            for lo, hi in zip(bounds, bounds[1:])
        ]
    return out


def left_move_config(spec, order, s: int, rng: random.Random):
    """A configuration of the left-moving, non-halting transition in the
    middle of the transition order.  Its sublist rebuilds the previous cell
    with t concurrent reactions in one instruction, the case that exhausts a
    small confluence budget; a fixed transition keeps the verified work the
    same for every seed."""
    keys = [
        key for key in order
        if spec.transitions[key][2] == "L" and spec.transitions[key][0] != spec.halt
    ]
    return steppable_config(spec, keys[len(keys) // 2], s, rng)
