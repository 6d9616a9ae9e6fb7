"""A fixed corpus of machines whose compiled programs pin the compiler's bytes.

    PYTHONPATH=src python tests/compile_corpus.py

prints one sha256 over the corpus: for each machine in order, the canonical
bytes of its compiled program (``serialize_compiled``), or the repr of the
``CompileError`` it raises, then a newline.  The corpus is

- all 2,196 one-state machines at s = 3;
- the paper-scale machines of seeds 0-5 at s = 4;
- the incrementor at s = 2-8;
- 600 seeded ``generators.random_tm`` machines with 1-4 states, density
  0.3, 0.7 or 1.0, and s in {2, 3, 5}.

``tests/test_compiler.py`` pins the digest of a fast slice of it.
"""
from __future__ import annotations

import hashlib
import importlib.util
import itertools
import random
from pathlib import Path
from typing import Iterable, Iterator

from generators import random_tm

from simdna.compiler import CompileError, compile_tm, serialize_compiled
from simdna.tm import TMSpec, parse_tm_spec

ROOT = Path(__file__).resolve().parent.parent
SYMBOLS = ("0", "1", "_")

Entry = tuple[TMSpec, int]


def one_state_machines() -> list[TMSpec]:
    """Every machine with the one state ``q`` (and halt ``h``) and at least
    one transition, in a fixed order: 13 choices per symbol, less the empty
    table."""
    choices = [None] + list(itertools.product(("q", "h"), SYMBOLS, ("L", "R")))
    out = []
    for row in itertools.product(choices, repeat=3):
        transitions = {("q", sym): t for sym, t in zip(SYMBOLS, row) if t is not None}
        if transitions:
            out.append(TMSpec(frozenset({"q", "h"}), "q", "h", transitions))
    return out


def paper_machine(seed: int) -> TMSpec:
    path = ROOT / "perfbench" / "papermachine.py"
    spec = importlib.util.spec_from_file_location("papermachine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return parse_tm_spec(module.machine_document(seed))


def incrementor() -> TMSpec:
    return parse_tm_spec((ROOT / "machines" / "increment.yaml").read_bytes())


def random_machines(n: int = 600) -> list[Entry]:
    out = []
    for i in range(n):
        density = (0.3, 0.7, 1.0)[i % 3]
        s = (2, 3, 5)[i // 3 % 3]
        out.append((random_tm(random.Random(i), 4, density), s))
    return out


def corpus() -> Iterator[Entry]:
    yield from ((spec, 3) for spec in one_state_machines())
    yield from ((paper_machine(seed), 4) for seed in range(6))
    inc = incrementor()
    yield from ((inc, s) for s in range(2, 9))
    yield from random_machines()


def compiled_bytes(spec: TMSpec, s: int) -> bytes:
    try:
        return serialize_compiled(compile_tm(spec, s))
    except CompileError as e:
        return repr(e).encode()


def digest(entries: Iterable[Entry]) -> str:
    h = hashlib.sha256()
    for spec, s in entries:
        h.update(compiled_bytes(spec, s) + b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest(corpus()))
