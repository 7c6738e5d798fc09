"""Temporal planning via bounded interval-logic satisfiability.

The pipeline: a planning domain (fluents, timed skills, interference) is
instantiated into a bounded theory over a dateline of N stages, encoded as a
finite-domain constraint model, solved by a backtracking solver, and decoded
into a plan and timing diagram that an independent semantic validator checks
against Allen interval-logic semantics.
"""

from .benchgen import GadgetSpec, gen_cushing
from .domain import (
    ConstraintRel,
    ConstraintSpec,
    Domain,
    Fluent,
    FluentRole,
    Skill,
    SkillKind,
    TemporalAction,
    parse_domain,
    serialize_domain,
    validate_domain,
)
from .encoder import encode
from .intervals import AllenRelation, CompositeRelation, History, Interval, Tqa, allen_relation
from .search import (
    FindOutcome,
    Plan,
    SearchLimits,
    TimingDiagram,
    decode,
    find_plan,
    plan_from_document,
    plan_to_document,
)
from .cpmodel import CspModel, export_model, parse_model
from .solver import SolveResult, brute_force_solve, solve
from .theory import TheoryShape, instantiate
from .validator import ValidationReport, enumerate_models, validate_plan

__version__ = "0.1.0"

__all__ = [
    "AllenRelation",
    "CompositeRelation",
    "ConstraintRel",
    "ConstraintSpec",
    "CspModel",
    "Domain",
    "FindOutcome",
    "Fluent",
    "FluentRole",
    "GadgetSpec",
    "History",
    "Interval",
    "Plan",
    "SearchLimits",
    "Skill",
    "SkillKind",
    "SolveResult",
    "TemporalAction",
    "TheoryShape",
    "TimingDiagram",
    "Tqa",
    "ValidationReport",
    "allen_relation",
    "brute_force_solve",
    "decode",
    "encode",
    "enumerate_models",
    "export_model",
    "find_plan",
    "gen_cushing",
    "instantiate",
    "parse_domain",
    "parse_model",
    "plan_from_document",
    "plan_to_document",
    "serialize_domain",
    "solve",
    "validate_domain",
    "validate_plan",
]
