"""Strand-displacement register workbench.

Simulates multi-stage strand-displacement programs on nicked-storage
registers, compiles 3-symbol space-bounded Turing machines into such
programs, and renders configurations and traces as text or SVG.
"""

__version__ = "0.1.0"

from .model import (
    BoundStrand,
    Instruction,
    Match,
    Orientation,
    Ortho,
    Program,
    RegisterLayout,
    RegisterState,
    StrandSpec,
    parse_program,
    parse_register,
    serialize_program,
    serialize_register,
    validate_state,
)
from .engine import (
    Attach,
    Canonical,
    Cooperative,
    Detach,
    Displace,
    InstructionOutcome,
    NonConfluentError,
    StateBudgetExceededError,
    ToeholdExchange,
    VerifyConfluent,
    applicable_reactions,
    run_instruction,
    run_many,
    run_program,
)
from .tm import TMConfig, TMSpec, TMStatus, parse_tm_spec, tm_run, tm_step
from .compiler import (
    CellScheme,
    CompiledProgram,
    TapeOnly,
    build_scheme,
    compile_tm,
    compile_transition,
    decode_register,
    encode_config,
    verify_compilation,
)
from .render import RenderScene, make_scene, render_svg, render_text, render_trace
