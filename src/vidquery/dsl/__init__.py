"""Declarative query language: parsing, validation, constraint flattening."""

from .ast import (
    And,
    Compare,
    DurationDecl,
    Not,
    Or,
    Program,
    PropertyDef,
    PropRef,
    QueryDecl,
    RelationDecl,
    SpatialDecl,
    TemporalDecl,
    VObjTypeDecl,
    conjuncts,
    walk_refs,
)
from .parser import DslSyntaxError, parse
from .validate import (
    Diagnostic,
    FlatQuery,
    FlatVObjType,
    ValidationError,
    ValidatedProgram,
    validate,
)

__all__ = [
    "And",
    "Compare",
    "Diagnostic",
    "DslSyntaxError",
    "DurationDecl",
    "FlatQuery",
    "FlatVObjType",
    "Not",
    "Or",
    "Program",
    "PropertyDef",
    "PropRef",
    "QueryDecl",
    "RelationDecl",
    "SpatialDecl",
    "TemporalDecl",
    "VObjTypeDecl",
    "ValidatedProgram",
    "ValidationError",
    "conjuncts",
    "parse",
    "validate",
    "walk_refs",
]
