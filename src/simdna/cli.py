"""Command-line workbench: compile, simulate, run-tm, render, check.

A command that fails prints one line, ``<kind>: <where>: <message>``, and
exits with the code ``_FAILURES`` gives its failure: ``error`` 2 for an
input error; ``nonconfluent`` 3 for a nonconfluent instruction; ``error``
3 for a budget overrun or a reaction loop; ``error`` 4 for a register that
no longer decodes or that the interpreter disagrees with.  ``<where>``
names the input: the file of an input error in a file, and a trace's line;
``MACHINE: iteration N`` in run-tm; ``register i (PATH)`` in simulate and
check, then ``counterexample in PATH`` when one is written; then
``instruction n`` for an engine failure.  These are the places of the
failure's ``where`` (``model.add_where``).  A file that cannot be read or
written fails as ``error: PATH: strerror``.
Commands with --out-dir record their invocation in ``manifest.json``;
outputs carry no timestamps so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import re
import sys
from pathlib import Path
from typing import Iterable, Optional

from . import compiler, engine, render
from .model import (
    MAX_POSITIONS,
    BoundStrand,
    RegisterState,
    SchemaError,
    StrandSpec,
    add_where,
    bound_spec,
    parse_register,
    register_doc,
    register_from_doc,
    serialize_register,
    _canon,
    _load_json,
    _register_bytes,
    _strand_bytes,
)
from .tm import (
    SpaceBoundViolationError,
    TMError,
    initial_config,
    parse_tm_document,
    tm_step,
)


class CliError(Exception):
    """An input error that the command line itself finds."""


class Mismatch(Exception):
    """The register no longer follows the machine: it does not decode, or
    the interpreter disagrees with it."""


# failure class -> exit code and the kind that starts its line; a class
# not listed takes the entry of its nearest listed base.  A budget overrun
# or a reaction loop, like nonconfluence, leaves the run with no
# well-defined outcome.
_FAILURES = {
    engine.NonConfluentError: (3, "nonconfluent"),
    engine.EngineError: (3, "error"),
    Mismatch: (4, "error"),
    **dict.fromkeys(
        (CliError, SchemaError, TMError, compiler.CompileError, compiler.DecodeError, OSError), (2, "error")
    ),
}


@contextlib.contextmanager
def _naming(where: str):
    """A failure raised inside is reported after ``where``, the input it
    concerns; an enclosing ``_naming`` puts its own ``where`` first."""
    try:
        yield
    except tuple(_FAILURES) as e:
        add_where(e, where)
        raise


def canon_with_state(head: dict, state: RegisterState, tails: dict) -> bytes:
    """``_canon`` of ``head`` plus the keys ``"state"``, the register
    document of ``state``, and ``"state_hash"``, the sha256 of exactly the
    bytes embedded under ``"state"``.  ``head`` must be nonempty, and each
    of its keys must sort before ``"state"``.  ``tails`` maps each state
    already written to its ``_state_tail``, so that the lines of one run
    encode and hash each distinct state once."""
    tail = tails.get(state)
    if tail is None:
        tail = tails[state] = _state_tail(serialize_register(state))
    return _canon(head)[:-1] + tail


def _state_tail(body: bytes) -> bytes:
    """A trace line's bytes from ``,"state":`` on, as ``canon_with_state``
    writes them for the register document ``body``: ``body``, then its
    sha256."""
    return b',"state":%s,"state_hash":"%s"}' % (body, hashlib.sha256(body).hexdigest().encode())


def _outcome_lines(labels: list[str], outcomes: list[engine.InstructionOutcome], tails: dict) -> list[bytes]:
    """One trace line per outcome; ``instr`` counts from 1.  ``tails`` holds
    the encoded states of the run (see ``canon_with_state``)."""
    return [
        canon_with_state(
            {"instr": k, "label": label, "applied": [r.doc() for r in out.applied]}, out.final_state, tails
        )
        for k, (label, out) in enumerate(zip(labels, outcomes), 1)
    ]


def _write(path: str | Path | None, chunks: Iterable[bytes]) -> None:
    """``chunks`` (bytes) written one at a time, never joined, to ``path``,
    or to stdout when ``path`` is None or empty; a failure is named by the
    path."""
    if not path:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
        return
    with _naming(str(path)), open(path, "wb") as fh:
        fh.writelines(chunks)


def _write_manifest(out_dir: Path, command: str, argv: list[str], files: dict[str, str]):
    with _naming(str(out_dir)):
        out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"command": command, "argv": argv, "files": files}
    _write(out_dir / "manifest.json", [_canon(doc), b"\n"])


def _check_flags(args) -> None:
    """Each numeric flag that has a least meaningful value is at least that."""
    for flag, least in (("--iterations", 0), ("--max-iters", 0), ("--max-states", 1), ("--every", 1), ("--cells", 2)):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < least:
            raise CliError(f"{flag} must be at least {least}, got {value}")


def _mode(args) -> engine.Mode:
    return engine.VerifyConfluent(args.max_states) if args.verify else engine.Canonical()


def _parse_file(path: str, parse):
    """``parse`` of the file's bytes, a failure named by the path."""
    with _naming(path):
        return parse(Path(path).read_bytes())


# --- compile ------------------------------------------------------------------


def cmd_compile(args, argv) -> None:
    spec, _extras = _parse_file(args.machine, parse_tm_document)
    compiled = compiler.compile_tm(spec, args.cells)
    stats = compiled.stats
    lines = [
        f"t={stats.t} d={stats.d} cells={stats.s} instructions={stats.instruction_count}",
        " ".join(f"nucleotides(k={k})={stats.nucleotides(k)}" for k in (5, 6, 7)),
    ]
    _write(args.output, [compiler.serialize_compiled(compiled), b"\n"])
    # the program goes to stdout unless written to a file
    print("\n".join(lines), file=sys.stdout if args.output else sys.stderr)


# --- simulate / check -----------------------------------------------------------


def cmd_simulate(args, argv) -> None:
    program = _parse_file(args.program, compiler.load_program_file)
    registers = []
    for path in args.registers:
        with _naming(path):
            st = parse_register(Path(path).read_bytes())
            if st.layout != program.layout:
                raise CliError("register layout does not match the program")
        registers.append(st)

    mode = _mode(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        files = {"program": args.program, "registers": ",".join(args.registers)}
        _write_manifest(out_dir, args.command, argv, files)

    labels = [ins.label for ins in program.instructions]
    for i, (path, state) in enumerate(zip(args.registers, registers)):
        lines: list[bytes] = []
        tails: dict = {}
        with _naming(f"register {i} ({path})"):
            try:
                for _ in range(args.iterations):
                    state, outcomes = engine.run_program(state, program, mode)
                    if out_dir:
                        lines += _outcome_lines(labels, outcomes, tails)
            except engine.NonConfluentError as e:
                if not out_dir:
                    raise
                doc = {
                    "register": i,
                    "final_a": register_doc(e.state_a),
                    "order_a": [r.doc() for r in e.order_a],
                    "final_b": register_doc(e.state_b),
                    "order_b": [r.doc() for r in e.order_b],
                }
                cx = out_dir / f"nonconfluent-{i}.json"
                _write(cx, [_canon(doc), b"\n"])
                with _naming(f"counterexample in {cx}"):
                    raise
        final = serialize_register(state)
        if out_dir:
            _write(out_dir / f"trace-{i}.jsonl", (line + b"\n" for line in lines))
            _write(out_dir / f"final-{i}.json", [final, b"\n"])
        print(f"register {i}: {hashlib.sha256(final).hexdigest()}")


# --- run-tm ---------------------------------------------------------------------


def cmd_run_tm(args, argv) -> None:
    spec, extras = _parse_file(args.machine, parse_tm_document)
    input_str = args.input if args.input is not None else extras.get("input", "")
    # checked before the tape of --cells symbols is built
    d = compiler.cell_domains(spec.transition_count)
    if args.cells * d > MAX_POSITIONS:
        raise CliError(
            f"--cells {args.cells}: cells of {d} domains make {args.cells * d} positions; "
            f"a register has at most {MAX_POSITIONS}"
        )
    # an input the machine file gives is named by the file
    with _naming(args.machine) if args.input is None else contextlib.nullcontext():
        config = initial_config(spec, input_str, args.cells)
    compiled = compiler.compile_tm(spec, args.cells)
    mode = _mode(args)

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        _write_manifest(out_dir, "run-tm", argv, {"machine": args.machine, "input": input_str})

    state, lossy = compiler.encode_config(spec, compiled.scheme, config, args.cells)
    if lossy:
        print("note: initial configuration is not head-representable", file=sys.stderr)
    labels = [ins.label for ins in compiled.program.instructions]
    trace_lines: list[bytes] = []
    tails: dict = {}
    decoded = compiler.decode_register(spec, compiled.scheme, state)
    current = config
    with _naming(args.machine):
        for it in range(1, args.max_iters + 1):
            if isinstance(decoded, compiler.TapeOnly):
                break
            if args.oracle:
                try:
                    expected = tm_step(spec, current)
                except SpaceBoundViolationError as e:
                    # the machine would leave the tape: terminal for the run,
                    # not a simulation mismatch
                    print(f"stopped: {e}", file=sys.stderr)
                    break
            with _naming(f"iteration {it}"):
                state, outcomes = engine.run_program(state, compiled.program, mode)
                try:
                    decoded = compiler.decode_register(spec, compiled.scheme, state)
                except compiler.DecodeError as e:
                    raise Mismatch(f"register no longer decodes: {e}") from e
            if out_dir:
                trace_lines += _outcome_lines(labels, outcomes, tails)
            # a terminal `expected` matches only a TapeOnly decode, which ends the loop
            if args.oracle and not compiler.configs_equivalent(spec, expected, decoded):
                raise Mismatch(
                    f"oracle mismatch at iteration {it}: "
                    f"machine says {expected}, register decodes to {decoded}"
                )
            current = decoded

    tape = decoded.tape_str()
    if out_dir:
        _write(out_dir / "trace.jsonl", (line + b"\n" for line in trace_lines))
        _write(out_dir / "final.json", [serialize_register(state), b"\n"])
    print(tape)


# --- render ---------------------------------------------------------------------


_STATE_MARK = b',"state":'
# the first line (as ``bytes.splitlines`` splits) that is not all whitespace
_FIRST_LINE = re.compile(rb"(?<![^\r\n])[^\S\r\n]*\S[^\r\n]*")
# characters XML 1.0 forbids: C0 controls but tab, LF and CR, lone
# surrogates, U+FFFE and U+FFFF
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class TraceStateReader:
    """The states of one trace, read from the tails ``canon_with_state``
    writes (a line's bytes from ``,"state":`` on), for one read of the trace.

    ``read`` decodes each distinct tail once.  A new tail is first replayed
    through the writer: the line's ``applied`` reactions
    (``engine.reaction_strands``) move one ``engine._Index`` from the state
    read last, each checked where it lands (``_Index.apply``), and the state
    they reach is taken only when its ``_state_tail`` is exactly the tail.
    Any other tail (the trace's first, one whose reactions do not decode or
    apply, one in other bytes) is parsed whole and decoded by
    ``register_from_doc``, which words every error, and the index is built
    anew at that state.

    This is exact: a state built by checked deltas from a valid state is
    valid, and the written tail of a valid state parses back to that very
    state, so the whole read gives it too.  Every state read holds one
    strand object per spec and offset, and each token list that ``applied``
    names is parsed once per number of domains per cell."""

    def __init__(self):
        self._tails: dict[bytes, tuple[dict, RegisterState]] = {}
        self._last: Optional[RegisterState] = None
        self._index: Optional[engine._Index] = None
        # (repr of a token list document, domains per cell) -> its spec
        self._specs: dict[tuple[str, int], StrandSpec] = {}
        # (spec, offset) -> the one strand, and that strand -> its document
        self._strands: dict[tuple[StrandSpec, int], BoundStrand] = {}
        self._docs: dict[BoundStrand, bytes] = {}

    def read(self, tail: bytes, applied) -> tuple[dict, RegisterState]:
        """The tail object's keys other than ``"state"``, and its state;
        a tail that does not read raises ``SchemaError``.  ``applied`` is
        the line's: the reactions from the state read last to this one."""
        known = self._tails.get(tail)
        if known is None:
            known = self._tails[tail] = self._replay(tail, applied) or self._whole(tail)
        self._last = known[1]
        return known

    def _whole(self, tail: bytes) -> tuple[dict, RegisterState]:
        rest = _load_json(b"{" + tail[1:], "$")
        state = register_from_doc(rest.pop("state"))
        return rest, RegisterState.presorted(state.layout, tuple(map(self._shared, state.strands)))

    def _replay(self, tail: bytes, applied) -> Optional[tuple[dict, RegisterState]]:
        if self._last is None:
            return None
        index = self._index
        if index is None or index.at is not self._last:  # a miss, or a repeated tail, left it elsewhere
            index = self._index = engine._Index(self._last)
        try:
            for doc in applied:
                index.apply(*engine.reaction_strands(doc, self._strand))
        except (KeyError, TypeError, ValueError, RecursionError, engine.EngineError):
            return None
        state = index.state()
        if _state_tail(_register_bytes(state.layout, map(self._docs.__getitem__, state.strands))) != tail:
            return None
        return {"state_hash": tail[-66:-2].decode()}, state

    def _strand(self, offset, tokens) -> BoundStrand:
        """The one strand at ``offset`` of the token list document
        ``tokens``, on the index's layout."""
        if type(offset) is not int:
            raise TypeError("a strand's offset must be an integer")
        key = repr(tokens), self._index.layout.domains_per_cell
        spec = self._specs.get(key)
        if spec is None:
            spec = self._specs[key] = bound_spec(tokens, "$", key[1])
        bs = self._strands.get((spec, offset))
        return self._shared(BoundStrand.hashed(spec, offset)) if bs is None else bs

    def _shared(self, bs: BoundStrand) -> BoundStrand:
        """The one strand of ``bs``'s spec and offset: ``bs`` itself, unless
        the read met that strand before."""
        one = self._strands.setdefault((bs.spec, bs.offset), bs)
        if one is bs:
            self._docs[bs] = _strand_bytes(bs)
        return one


def _state_of(doc, where: str) -> RegisterState:
    try:
        return register_from_doc(doc)
    except SchemaError as e:
        raise SchemaError(f"{where}: $.state{e.path[1:]}", e.message) from e


def _read_line(raw: bytes, where: str, states: TraceStateReader) -> tuple[dict, RegisterState]:
    """The document of trace line ``raw`` and its decoded state.  The line
    is split at its first ``,"state":`` into a head ``H`` and a tail ``T``:
    ``H + "}"`` is parsed on every line, and ``T`` is read by ``states``
    (``TraceStateReader.read``: the object ``"{" + T[1:]``, once per
    distinct tail, replayed by the head's ``applied``).  A line with no
    mark, an empty head, or a head or tail that does not read is read
    whole, which names its error.

    This is exact.  A head that parses as a nonempty object puts the mark
    at depth 1 right after a member, so the line is valid JSON if and only
    if the tail object is, and a later duplicate key wins in both."""
    cut = raw.find(_STATE_MARK)
    try:
        head = _load_json(raw[:cut] + b"}", where) if cut > 0 else None
        if isinstance(head, dict) and head:
            rest, state = states.read(raw[cut:], head.get("applied", ()))
            return {**head, **rest}, state
    except SchemaError:
        pass
    doc = _load_json(raw, where)
    if not isinstance(doc, dict) or "state" not in doc:
        raise SchemaError(where, "missing key 'state'")
    return doc, _state_of(doc["state"], where)


def _scenes_from_trace(text: bytes) -> tuple[list[render.RenderScene], list[int]]:
    """Every line is parsed and checked; each distinct state (by the exact
    bytes of its line from ``,"state":`` on) is decoded once, by one
    ``TraceStateReader`` for the whole trace, and lines that repeat it share
    the register."""
    scenes = []
    counts = []
    states = TraceStateReader()
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        where = f"trace line {lineno}"
        doc, state = _read_line(raw, where, states)
        applied = doc.get("applied", [])
        if not isinstance(applied, list):
            raise SchemaError(where, "'applied' must be an array")
        instr, title = doc.get("instr", lineno), doc.get("label", "")
        if not isinstance(instr, int) or isinstance(instr, bool):
            raise SchemaError(where, "'instr' must be an integer")
        if not isinstance(title, str):
            raise SchemaError(where, "'label' must be a string")
        label = f"#{instr} {title}".rstrip()
        bad = _NOT_XML.search(label)
        if bad:
            raise SchemaError(where, f"label holds U+{ord(bad.group()):04X}, which XML 1.0 does not allow")
        scenes.append(render.RenderScene(state, (), label))
        counts.append(len(applied))
    return scenes, counts


def _is_trace(raw: bytes) -> bool:
    """A trace's first nonblank line is a JSON object with an "instr" key,
    and a trace of no instructions has no such line; a register file is one
    JSON document, which may span lines.  Only that line is read, with its
    integers left unconverted.  A line that does not parse is a trace's
    when its head does (the part before its first ``,"state":``, as
    ``_read_line`` splits it): a trace line cut short, or one holding an
    integer too long to convert, is reported as a trace line."""
    first = _FIRST_LINE.search(raw)
    if first is None:
        return True
    line = first.group()
    cut = line.find(_STATE_MARK)
    return _has_instr(line) or (cut > 0 and _has_instr(line[:cut] + b"}"))


def _has_instr(text: bytes) -> bool:
    """Whether ``text`` is a JSON object with an "instr" key."""
    try:
        doc = _load_json(text, "$", parse_int=str)
    except SchemaError:
        return False
    return isinstance(doc, dict) and "instr" in doc


def _read_scenes(path: str) -> tuple[list[render.RenderScene], Optional[list[int]]]:
    """The scenes of a trace or register file, and a trace's reaction
    counts.  The file's bytes are dropped before anything is drawn."""
    raw = Path(path).read_bytes()
    if _is_trace(raw):
        scenes, counts = _scenes_from_trace(raw)
        if not scenes:
            raise CliError("trace file carries no outcomes")
        return scenes, counts
    doc = _load_json(raw, "$")
    if not (isinstance(doc, dict) and "strands" in doc and "layout" in doc):
        raise CliError("not a register or trace file")
    return [render.RenderScene(register_from_doc(doc))], None


def cmd_render(args, argv) -> None:
    style = render.load_style(args.style)
    with _naming(args.input):
        scenes, counts = _read_scenes(args.input)
        if args.format == "text":
            pictures: dict = {}
            parts = [render.render_text(s, pictures) for s in scenes]
        else:
            parts = render.render_trace_parts(scenes, every=args.every, reaction_counts=counts, style=style)
    # the newline-join of the parts, one part at a time
    _write(args.output, ((f"\n{part}" if i else part).encode() for i, part in enumerate(parts)))


# --- entry ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simdna",
        description="strand-displacement register workbench",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a Turing machine file to a program")
    c.add_argument("machine")
    c.add_argument("--cells", "-s", type=int, required=True, help="tape cells")
    c.add_argument("--output", "-o", help="program JSON path (default: stdout)")
    c.set_defaults(func=cmd_compile)

    s = sub.add_parser("simulate", help="run a program over register files")
    s.add_argument("program")
    s.add_argument("registers", nargs="+")
    s.add_argument("--iterations", "-n", type=int, default=1)
    s.add_argument("--verify", action="store_true", help="check confluence of every instruction")
    s.add_argument("--max-states", type=int, default=engine.VerifyConfluent.max_states)
    s.add_argument("--out-dir", help="write traces and final registers here")
    s.set_defaults(func=cmd_simulate)

    k = sub.add_parser("check", help="simulate --verify --iterations 1")
    k.add_argument("program")
    k.add_argument("registers", nargs="+")
    k.add_argument("--max-states", type=int, default=engine.VerifyConfluent.max_states)
    k.add_argument("--out-dir")
    k.set_defaults(func=cmd_simulate, verify=True, iterations=1)

    r = sub.add_parser("run-tm", help="compile, encode, iterate, decode")
    r.add_argument("machine")
    r.add_argument("--input", help="binary input (default: the file's input)")
    r.add_argument("--cells", "-s", type=int, required=True)
    r.add_argument("--max-iters", type=int, default=256)
    r.add_argument("--oracle", action="store_true", help="cross-check each pass against the interpreter")
    r.add_argument("--verify", action="store_true", help="confluence-check every instruction")
    r.add_argument("--max-states", type=int, default=engine.VerifyConfluent.max_states)
    r.add_argument("--out-dir")
    r.set_defaults(func=cmd_run_tm)

    d = sub.add_parser("render", help="draw a register or trace file")
    d.add_argument("input")
    d.add_argument("--format", choices=("svg", "text"), default="svg")
    d.add_argument("--every", type=int, help="panel stride for traces")
    d.add_argument("--style", help="style table JSON (default: the built-in style)")
    d.add_argument("--output", "-o")
    d.set_defaults(func=cmd_render)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        _check_flags(args)
        args.func(args, argv)
    except tuple(_FAILURES) as e:
        code, kind = next(_FAILURES[cls] for cls in type(e).__mro__ if cls in _FAILURES)
        where, message = getattr(e, "where", ()), str(e)
        if isinstance(e, OSError) and e.strerror:
            # ``PATH: strerror``: the path is named once, by ``where`` or else
            # by the error, whose own text would name it again
            where, message = where or ((e.filename,) if e.filename else ()), e.strerror
        print(": ".join((kind, *where, message)), file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
