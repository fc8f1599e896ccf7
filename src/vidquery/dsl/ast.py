"""AST node types for the query language, plus serialization helpers."""

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


def ref_bindings(expr) -> set[str]:
    """The bindings `expr` references: each property's binding and each
    relation's arguments."""
    names = set()
    for ref in walk_refs(expr):
        if ref.relation is not None:
            names.update(ref.args or ())
        else:
            names.add(ref.binding)
    return names


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


# --- serialization ---------------------------------------------------------

def _lit_text(value) -> str:
    if isinstance(value, str):
        return '"' + value.replace('"', '\\"') + '"'
    if isinstance(value, tuple):
        return "[" + ", ".join(_lit_text(v) for v in value) + "]"
    return repr(value)


def expr_text(expr) -> str:
    if isinstance(expr, Compare):
        r = expr.ref
        if r.relation:
            target = f"{r.relation}({r.args[0]}, {r.args[1]}).{r.prop}"
        else:
            target = f"{r.binding}.{r.prop}"
        return f"{target} {expr.op} {_lit_text(expr.literal)}"
    if isinstance(expr, And):
        return "(" + " & ".join(expr_text(i) for i in expr.items) + ")"
    if isinstance(expr, Or):
        return "(" + " | ".join(expr_text(i) for i in expr.items) + ")"
    if isinstance(expr, Not):
        return "!" + expr_text(expr.item)
    raise TypeError(f"not an expression: {expr!r}")


def _prop_text(p: PropertyDef) -> str:
    args = [f'impl="{p.impl}"']
    if p.deps:
        args.append("deps=[" + ", ".join(p.deps) + "]")
    if p.kind == "stateful":
        args.append(f"window={p.window}")
    suffix = " intrinsic" if p.intrinsic else ""
    return f"  property {p.name}: {p.kind}({', '.join(args)}){suffix}"


def serialize_program(program: Program) -> str:
    """Canonical source text; parse(serialize(parse(s))) equals parse(s)."""
    out = []
    for d in program.decls:
        if isinstance(d, VObjTypeDecl):
            head = f"vobj {d.name}"
            if d.parent:
                head += f" extends {d.parent}"
            out.append(head + " {")
            if d.detector:
                out.append(f'  detector: "{d.detector}"')
            out.extend(_prop_text(p) for p in d.properties)
            out.append("}")
        elif isinstance(d, RelationDecl):
            out.append(f"relation {d.name}({', '.join(d.participants)}) {{")
            out.extend(_prop_text(p) for p in d.properties)
            out.append("}")
        elif isinstance(d, QueryDecl):
            head = f"query {d.name}"
            if d.parent:
                head += f" extends {d.parent}"
            out.append(head + " {")
            for name, typ in d.bindings:
                out.append(f"  bind {name}: {typ}")
            if d.frame_constraint is not None:
                out.append(f"  frame_constraint: {expr_text(d.frame_constraint)}")
            if d.frame_output:
                refs = ", ".join(f"{r.binding}.{r.prop}" for r in d.frame_output)
                out.append(f"  frame_output: {refs}")
            if d.video_constraint is not None:
                out.append(f"  video_constraint: {expr_text(d.video_constraint)}")
            if d.video_output is not None:
                kind, binding = d.video_output
                out.append(f"  video_output: {kind}({binding})")
            out.append("}")
        elif isinstance(d, DurationDecl):
            out.append(f"duration query {d.name} {{")
            out.append(f"  base: {d.base}")
            if d.min_frames is not None:
                out.append(f"  min_frames: {d.min_frames}")
            if d.min_seconds is not None:
                out.append(f"  min_seconds: {d.min_seconds}")
            if d.gap_tolerance:
                out.append(f"  gap_tolerance: {d.gap_tolerance}")
            out.append("}")
        elif isinstance(d, SpatialDecl):
            out.append(f"spatial query {d.name} {{")
            out.append(f"  first: {d.first}")
            out.append(f"  second: {d.second}")
            out.append(f"  relation: {d.relation}")
            if d.predicate is not None:
                out.append(f"  predicate: {expr_text(d.predicate)}")
            out.append("}")
        elif isinstance(d, TemporalDecl):
            out.append(f"temporal query {d.name} {{")
            out.append(f"  first: {d.first}")
            out.append(f"  then: {d.then}")
            if d.max_interval_frames is not None:
                out.append(f"  max_interval_frames: {d.max_interval_frames}")
            if d.max_interval_seconds is not None:
                out.append(f"  max_interval_seconds: {d.max_interval_seconds}")
            out.append("}")
        out.append("")
    return "\n".join(out)


def dump_ast(program: Program) -> dict:
    """JSON-friendly dump for golden tests."""

    def expr_dump(e):
        return None if e is None else expr_text(e)

    out: dict[str, Any] = {"decls": []}
    for d in program.decls:
        entry: dict[str, Any] = {"kind": type(d).__name__, "name": d.name}
        if isinstance(d, VObjTypeDecl):
            entry.update(
                parent=d.parent,
                detector=d.detector,
                properties=[
                    {
                        "name": p.name,
                        "kind": p.kind,
                        "impl": p.impl,
                        "deps": list(p.deps),
                        "window": p.window,
                        "intrinsic": p.intrinsic,
                    }
                    for p in d.properties
                ],
            )
        elif isinstance(d, RelationDecl):
            entry.update(
                participants=list(d.participants),
                properties=[p.name for p in d.properties],
            )
        elif isinstance(d, QueryDecl):
            entry.update(
                parent=d.parent,
                bindings=[list(b) for b in d.bindings],
                frame_constraint=expr_dump(d.frame_constraint),
                frame_output=[f"{r.binding}.{r.prop}" for r in d.frame_output],
                video_constraint=expr_dump(d.video_constraint),
                video_output=list(d.video_output) if d.video_output else None,
            )
        elif isinstance(d, DurationDecl):
            entry.update(
                base=d.base,
                min_frames=d.min_frames,
                min_seconds=d.min_seconds,
                gap_tolerance=d.gap_tolerance,
            )
        elif isinstance(d, SpatialDecl):
            entry.update(
                first=d.first,
                second=d.second,
                relation=d.relation,
                predicate=expr_dump(d.predicate),
            )
        elif isinstance(d, TemporalDecl):
            entry.update(
                first=d.first,
                then=d.then,
                max_interval_frames=d.max_interval_frames,
                max_interval_seconds=d.max_interval_seconds,
            )
        out["decls"].append(entry)
    return out
