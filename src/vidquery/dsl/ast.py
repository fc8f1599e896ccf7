"""AST node types for the query language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union


@dataclass(frozen=True)
class Loc:
    line: int
    col: int


# --- predicate expressions -------------------------------------------------

@dataclass(frozen=True)
class PropRef:
    """`binding.prop`, or `Relation(b1, b2).prop` when relation is set."""

    binding: Optional[str]
    prop: str
    relation: Optional[str] = None
    args: Optional[tuple[str, str]] = None


# the ordered comparisons hold for numbers only
ORDERED_OPS = ("<", "<=", ">", ">=")
COMPARISON_OPS = ("==", "!=", "in", *ORDERED_OPS)


@dataclass(frozen=True)
class Compare:
    ref: PropRef
    op: str  # one of COMPARISON_OPS
    literal: Any  # str | float | tuple of those (for `in`)


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    item: Any


def conjuncts(expr) -> list:
    """Flatten nested And nodes into a top-level conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out = []
        for item in expr.items:
            out.extend(conjuncts(item))
        return out
    return [expr]


def conjoin(exprs: list):
    exprs = [e for e in exprs if e is not None]
    if not exprs:
        return None
    if len(exprs) == 1:
        return exprs[0]
    return And(tuple(exprs))


def walk_refs(expr) -> Iterator[PropRef]:
    if expr is None:
        return
    if isinstance(expr, Compare):
        yield expr.ref
    elif isinstance(expr, (And, Or)):
        for item in expr.items:
            yield from walk_refs(item)
    elif isinstance(expr, Not):
        yield from walk_refs(expr.item)


# --- declarations ----------------------------------------------------------

@dataclass
class PropertyDef:
    name: str
    kind: str  # "stateless" | "stateful"
    impl: str
    deps: tuple[str, ...] = ()
    window: Optional[int] = None
    intrinsic: bool = False
    loc: Optional[Loc] = None


@dataclass
class VObjTypeDecl:
    name: str
    parent: Optional[str] = None
    detector: Optional[str] = None
    properties: list[PropertyDef] = field(default_factory=list)
    loc: Optional[Loc] = None


@dataclass
class RelationDecl:
    name: str
    participants: tuple[str, ...] = ()
    properties: list[PropertyDef] = field(default_factory=list)
    loc: Optional[Loc] = None


@dataclass
class QueryDecl:
    name: str
    parent: Optional[str] = None
    bindings: list[tuple[str, str]] = field(default_factory=list)  # (name, type)
    frame_constraint: Optional[Any] = None
    frame_output: list[PropRef] = field(default_factory=list)
    video_constraint: Optional[Any] = None
    video_output: Optional[tuple[str, str]] = None  # (kind, binding)
    loc: Optional[Loc] = None


@dataclass
class DurationDecl:
    name: str
    base: str = ""
    min_frames: Optional[int] = None
    min_seconds: Optional[float] = None
    gap_tolerance: int = 0
    loc: Optional[Loc] = None


@dataclass
class SpatialDecl:
    name: str
    first: str = ""
    second: str = ""
    relation: str = ""
    predicate: Optional[Any] = None
    loc: Optional[Loc] = None


@dataclass
class TemporalDecl:
    name: str
    first: str = ""
    then: str = ""
    max_interval_frames: Optional[int] = None
    max_interval_seconds: Optional[float] = None
    loc: Optional[Loc] = None


Decl = Union[
    VObjTypeDecl, RelationDecl, QueryDecl, DurationDecl, SpatialDecl, TemporalDecl
]


@dataclass
class Program:
    decls: list[Decl] = field(default_factory=list)

    @property
    def vobjs(self) -> dict[str, VObjTypeDecl]:
        return {d.name: d for d in self.decls if isinstance(d, VObjTypeDecl)}

    @property
    def relations(self) -> dict[str, RelationDecl]:
        return {d.name: d for d in self.decls if isinstance(d, RelationDecl)}

    @property
    def queries(self) -> dict[str, QueryDecl]:
        return {d.name: d for d in self.decls if isinstance(d, QueryDecl)}

