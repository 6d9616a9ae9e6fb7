"""In-memory span recorder that wraps simdna's public functions.

Each function is wrapped at the name its callers look up: the module that
defines it, and every module that imported it by name (the engine calls
``validate_state`` through its own namespace, the CLI calls ``tm_step``,
``parse_register`` and friends through its own).  A span is the wrapped
function's name, start, end and the span that was open when it began; its
self time is its duration minus that of its children.  Spans stay in memory
and are written out once, when the run ends.
"""
from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter


def _instruction_note(args, kwargs, result):
    """Split engine.run_instruction spans by mode and by whether the
    instruction fired, and remember how many reactions it applied."""
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    if type(mode).__name__ == "VerifyConfluent":
        return ":verify", 0 if result is None else len(result.applied)
    if result is None:
        return "", 0
    return ("" if result.applied else ":noop"), len(result.applied)


# (span name, function name, modules whose attribute is replaced, note)
TARGETS = (
    ("tm.parse_tm_document", "parse_tm_document", ("tm", "cli"), None),
    ("tm.tm_step", "tm_step", ("tm", "cli", "compiler"), None),
    ("tm.tm_run", "tm_run", ("tm",), None),
    ("compiler.compile_tm", "compile_tm", ("compiler",), None),
    ("compiler.encode_config", "encode_config", ("compiler",), None),
    ("compiler.decode_register", "decode_register", ("compiler",), None),
    ("compiler.load_program_file", "load_program_file", ("compiler",), None),
    ("compiler.serialize_compiled", "serialize_compiled", ("compiler",), None),
    ("engine.run_many", "run_many", ("engine",), None),
    ("engine.run_program", "run_program", ("engine",), None),
    ("engine.run_instruction", "run_instruction", ("engine",), _instruction_note),
    ("engine.applicable_reactions", "applicable_reactions", ("engine",), None),
    ("engine.apply_reaction", "apply_reaction", ("engine",), None),
    ("model.validate_state", "validate_state", ("model", "engine"), None),
    ("model.parse_program", "parse_program", ("model",), None),
    ("model.parse_register", "parse_register", ("model", "cli"), None),
    ("model.register_doc", "register_doc", ("model", "cli"), None),
    ("model.serialize_register", "serialize_register", ("model", "cli"), None),
    ("render.render_svg", "render_svg", ("render",), None),
    ("render.render_text", "render_text", ("render",), None),
    ("render.render_trace", "render_trace", ("render",), None),
    ("cli.main", "main", ("cli",), None),
)


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span_name: str, note):
        base = self._id(span_name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(base)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.work.append(0)
            stack.append(i)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
                if note is not None:
                    suffix, work = note(args, kwargs, result)
                    self.name[i] = self._id(span_name + suffix)
                    self.work[i] = work

        return wrapper

    def install(self, modules: dict) -> None:
        """Replace every target attribute; ``modules`` maps short module
        names (``"engine"``) to the imported modules."""
        for span_name, attr, owners, note in TARGETS:
            fn = getattr(modules[span_name.split(".")[0]], attr)
            wrapper = self._wrap(fn, span_name, note)
            for owner in owners:
                mod = modules[owner]
                self._patches.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, first: int = 0) -> dict:
        """Per span name over the spans from ``first`` on: calls, total and
        self seconds, applied work, and every duration."""
        last = len(self.start)
        child = defaultdict(float)
        for i in range(first, last):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(first, last):
            name = self.names[self.name[i]]
            rec = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "durations": []}
            )
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
            rec["work"] += self.work[i]
            rec["durations"].append(dur)
        return out

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "fields": ["name", "parent", "start_s", "end_s", "work"],
            "spans": [
                [self.name[i], self.parent[i], self.start[i], self.end[i], self.work[i]]
                for i in range(len(self.start))
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
