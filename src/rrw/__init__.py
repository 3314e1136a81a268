"""Workbench for regulated cooperating distributed grammar systems.

Core pieces:

- :mod:`rrw.core`: immutable data model (rules, components, systems, modes)
  and structural validation;
- :mod:`rrw.engine`: exact derivation semantics for all cooperation modes
  plus bounded language enumeration, derivation search and trace replay;
- :mod:`rrw.constructions`: grammar-to-grammar transformations between the
  supported kinds, each returning a validated system and a report;
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
    cdfrc_eq2_to_eqk,
    cdfrc_geqk_to_geq2,
    cdfrc_to_frccd,
    cdfrc_to_pcd,
    frc_to_ord,
    frc_to_ordered_component,
    frccd_collapse_to_single,
    frccd_eq2_to_cdfrc,
    frccd_eq2_to_k,
    frccd_to_eq2,
    gc_to_ocdgs,
    ocdgs_t_to_ordered,
    ord_to_frc,
    ordered_to_frc_component,
    pcd_to_cdfrc,
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
