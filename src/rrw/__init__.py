"""Workbench for regulated cooperating distributed grammar systems.

Core pieces:

- :mod:`rrw.core`: immutable data model (rules, components, systems, modes)
  and structural validation;
- :mod:`rrw.engine`: exact derivation semantics for all cooperation modes
  plus bounded language enumeration, derivation search and trace replay;
- :mod:`rrw.constructions`: grammar-to-grammar transformations between the
  supported kinds, applied through ``apply_construction``, which returns a
  validated system and a report;
- :mod:`rrw.equivalence`: an independently implemented reference enumerator
  and a bounded-language differential checker;
- :mod:`rrw.textio`: a small text format for systems (parse and serialize);
- :mod:`rrw.cli`: the ``rrw`` command-line front end.
"""

from .core import (
    Component,
    Form,
    GcRule,
    KINDS,
    Mode,
    RcCondition,
    Rule,
    StrictOrder,
    System,
    check,
    close_order,
    format_word,
    shortlex_key,
    validate,
)
from .engine import (
    BoundedLanguage,
    DerivationTrace,
    GcConfig,
    StepBounds,
    TraceStep,
    component_successors,
    enumerate_language,
    find_derivation,
    gc_successors,
    mode_apply,
    replay_trace,
    rule_applicable,
    system_successors,
)
from .equivalence import (
    EquivVerdict,
    bounded_equiv,
    reference_enumerate,
    useful_nonterminals,
)
from .constructions import (
    CONSTRUCTIONS,
    ConstructionReport,
    FreshNameScheme,
    apply_construction,
    frc_to_ordered_component,
    ordered_to_frc_component,
)
from .textio import parse_system, serialize_system
from .errors import (
    BudgetExceeded,
    CycleError,
    GrammarSyntaxError,
    KindError,
    ModeError,
    PermitPresent,
    RrwError,
    UnknownLabel,
    ValidationError,
)

__version__ = "0.1.0"
