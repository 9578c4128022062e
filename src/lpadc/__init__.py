"""BDD-based inference for logic programs with annotated disjunctions."""

from .model import (
    NULL,
    AnnotatedClause,
    Assignment,
    Atom,
    ChoiceVariable,
    Diagnostic,
    Literal,
    Program,
    Var,
    validate,
)
from .parser import ParseError, format_program, parse_atom, parse_literal, parse_program
from .grounder import (
    GroundingError,
    GroundProgram,
    StratificationError,
    format_ground,
    ground,
    stratify,
)
from .bdd import BddManager, BddRef, BddVarInfo, BddError, NodeLimitError
from .compiler import (
    CompileError,
    CompiledProgram,
    Encoding,
    compile_atom,
    compile_program,
    compile_query,
)
from .infer import (
    InferenceResult,
    InferenceStats,
    InferError,
    cond_prob,
    decode,
    map_query,
    mpe,
    prob_result,
)

__version__ = "0.1.0"

__all__ = [
    "NULL",
    "AnnotatedClause",
    "Assignment",
    "Atom",
    "ChoiceVariable",
    "Diagnostic",
    "Literal",
    "Program",
    "Var",
    "validate",
    "ParseError",
    "format_program",
    "parse_atom",
    "parse_literal",
    "parse_program",
    "GroundingError",
    "GroundProgram",
    "StratificationError",
    "format_ground",
    "ground",
    "stratify",
    "BddManager",
    "BddRef",
    "BddVarInfo",
    "BddError",
    "NodeLimitError",
    "CompileError",
    "CompiledProgram",
    "Encoding",
    "compile_atom",
    "compile_program",
    "compile_query",
    "InferenceResult",
    "InferenceStats",
    "InferError",
    "cond_prob",
    "decode",
    "map_query",
    "mpe",
    "prob_result",
    "__version__",
]
