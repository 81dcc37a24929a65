"""Graded-CTL model checking for flat and hierarchical state machines."""

from .errors import (CapacityError, FormulaSyntaxError, ModelSyntaxError,
                     OracleLimitError, ValidationError)
from .evidence import (EvidenceTrace, counterexamples_for, extract_evidences,
                       serialize_trace, validate_trace)
from .flat_checker import SatTable, check_flat, oracle_check, oracle_count
from .formula import Formula, normalize, parse_formula, render
from .hier_checker import SpecializedHsm, check_hier
from .hsm import (Machine, Shsm, flat_size, flatten, is_hsm, reduce_to_hsm,
                  restrict_ap, validate_shsm)
from .kripke import KripkeStructure
from .modelfile import parse_model, render_model

__all__ = [
    "CapacityError",
    "EvidenceTrace",
    "Formula",
    "FormulaSyntaxError",
    "KripkeStructure",
    "Machine",
    "ModelSyntaxError",
    "OracleLimitError",
    "SatTable",
    "Shsm",
    "SpecializedHsm",
    "ValidationError",
    "check_flat",
    "check_hier",
    "counterexamples_for",
    "extract_evidences",
    "flat_size",
    "flatten",
    "is_hsm",
    "normalize",
    "oracle_check",
    "oracle_count",
    "parse_formula",
    "parse_model",
    "reduce_to_hsm",
    "render",
    "render_model",
    "restrict_ap",
    "serialize_trace",
    "validate_shsm",
    "validate_trace",
]

__version__ = "0.1.0"
