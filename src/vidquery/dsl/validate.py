"""Semantic validation: inheritance flattening, dependency ordering, and the
composition rules for higher-order queries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .ast import (
    ORDERED_OPS,
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
    conjoin,
    conjuncts,
    walk_refs,
)

SCENE_TYPE = "Scene"
BUILTIN_PROPS = {"bbox", "frame_rate"}


@dataclass(frozen=True)
class Diagnostic:
    message: str
    line: int = 0
    col: int = 0
    file: str = "<source>"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.message}"


def _at(node, message: str, file: str) -> Diagnostic:
    """`message` at the position of `node`, a declaration or property."""
    loc = node.loc
    return Diagnostic(message, loc.line if loc else 0, loc.col if loc else 0,
                      file)


class ValidationError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("\n".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass
class FlatVObjType:
    """A VObj type with inheritance flattened (child overrides parent)."""

    name: str
    ancestors: list[str]  # self first, root last
    detector: Optional[str]
    props: dict[str, PropertyDef]
    prop_order: list[str]  # dependency-respecting order
    max_window: int  # most latest objects of a track one value reads; 0 if none


@dataclass
class FlatQuery:
    name: str
    kind: str  # basic | duration | spatial | temporal
    bindings: list[tuple[str, str]] = field(default_factory=list)
    # the frame constraint's conjuncts: Scene comparisons, which become frame
    # filters, and each object binding's own conjuncts
    scene_conjs: list[Compare] = field(default_factory=list)
    binding_conjs: dict[str, list] = field(default_factory=dict)
    video_pred: Optional[Any] = None
    frame_output: list[PropRef] = field(default_factory=list)
    # (kind, aggregated binding); set whenever video_pred is
    video_output: Optional[tuple[str, str]] = None
    # duration
    base: Optional[str] = None
    min_frames: Optional[int] = None
    min_seconds: Optional[float] = None
    gap_tolerance: int = 0
    # spatial
    relation: Optional[str] = None
    relation_pred: Optional[Any] = None
    # temporal
    first: Optional[str] = None
    then: Optional[str] = None
    max_interval_frames: Optional[int] = None
    max_interval_seconds: Optional[float] = None


@dataclass
class ValidatedProgram:
    types: dict[str, FlatVObjType]
    relations: dict[str, RelationDecl]
    queries: dict[str, FlatQuery]
    query_order: list[str]


def _chain(decls: dict[str, Any], name: str) -> Optional[list[str]]:
    """Inheritance chain self-first, or None on a cycle/missing parent."""
    chain, cur, seen = [], name, set()
    while cur is not None:
        if cur in seen or cur not in decls:
            return None
        seen.add(cur)
        chain.append(cur)
        cur = decls[cur].parent
    return chain


def _flatten_vobj(
    program: Program, decl: VObjTypeDecl, diags: list[Diagnostic], file: str
) -> Optional[FlatVObjType]:
    vobjs = program.vobjs
    chain = _chain(vobjs, decl.name)
    if chain is None:
        diags.append(_at(
            decl, f"vobj {decl.name!r}: undeclared parent or inheritance "
            f"cycle", file))
        return None
    props: dict[str, PropertyDef] = {}
    detector = None
    for tname in reversed(chain):  # root first so children override
        t = vobjs[tname]
        if t.detector:
            detector = t.detector
        for p in t.properties:
            props[p.name] = p
    # per-property checks
    ok = True
    for p in props.values():
        if p.intrinsic and p.kind != "stateless":
            diags.append(_at(
                p, f"{decl.name}.{p.name}: intrinsic properties must be "
                f"stateless", file))
            ok = False
        if p.kind == "stateful":
            if p.window is None or p.window < 1:
                diags.append(_at(
                    p, f"{decl.name}.{p.name}: stateful property needs "
                    f"window >= 1", file))
                ok = False
            if len(p.deps) != 1:
                diags.append(_at(
                    p, f"{decl.name}.{p.name}: stateful property takes "
                    f"exactly one dependency", file))
                ok = False
        for dep in p.deps:
            if dep not in props and dep not in BUILTIN_PROPS:
                diags.append(_at(
                    p, f"{decl.name}.{p.name}: unknown dependency {dep!r}",
                    file))
                ok = False
    if not ok:
        return None
    # dependency order (declaration-order DFS); detect cycles
    order: list[str] = []
    state: dict[str, int] = {}

    def visit(name: str, stack: list[str]) -> bool:
        if name in BUILTIN_PROPS or state.get(name) == 2:
            return True
        if state.get(name) == 1:
            cycle = " -> ".join(stack[stack.index(name):] + [name])
            diags.append(_at(
                decl, f"{decl.name}: property dependency cycle {cycle}", file))
            return False
        state[name] = 1
        for dep in props[name].deps:
            if not visit(dep, stack + [name]):
                return False
        state[name] = 2
        order.append(name)
        return True

    for p in props.values():
        if not visit(p.name, []):
            return None
    # how many of a track's latest objects one value reads: a window of k
    # over a dependency that itself reads r of them reaches k + r - 1
    reach: dict[str, int] = {}
    for name in order:
        p = props[name]
        deps = max((reach.get(d, 1) for d in p.deps), default=1)
        reach[name] = deps + p.window - 1 if p.kind == "stateful" else deps
    return FlatVObjType(
        name=decl.name,
        ancestors=chain,
        detector=detector,
        props=props,
        prop_order=order,
        max_window=max((reach[n] for n in order
                        if props[n].kind == "stateful"), default=0),
    )


def _lit_is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_pred(
    expr,
    bindings: dict[str, str],
    vp_types: dict[str, FlatVObjType],
    decl,
    diags: list[Diagnostic],
    file: str,
) -> None:
    """Bindings, properties and literals of a predicate of `decl`; each
    caller rules on relations."""
    owner = decl.name
    for ref in walk_refs(expr):
        if ref.relation is not None:
            continue
        if ref.binding not in bindings:
            diags.append(_at(
                decl, f"{owner}: unknown binding {ref.binding!r}", file))
            continue
        btype = bindings[ref.binding]
        if btype == SCENE_TYPE:
            continue  # scene properties are trace channels, resolved at runtime
        ftype = vp_types.get(btype)
        if ftype is None:
            continue  # binding-type error reported elsewhere
        if ref.prop not in ftype.props and ref.prop not in BUILTIN_PROPS:
            diags.append(_at(
                decl, f"{owner}: {btype} has no property {ref.prop!r}", file))
    # literal typing: ordered comparisons and scene channels take numbers
    def check_ops(e):
        if isinstance(e, Compare):
            if e.op in ORDERED_OPS and not _lit_is_numeric(e.literal):
                diags.append(_at(
                    decl, f"{owner}: ordered comparison needs a numeric "
                    f"literal, got {e.literal!r}", file))
            elif e.op == "in" and not isinstance(e.literal, tuple):
                diags.append(_at(
                    decl, f"{owner}: 'in' needs a literal list", file))
            elif bindings.get(e.ref.binding) == SCENE_TYPE and not all(map(
                    _lit_is_numeric,
                    e.literal if e.op == "in" else (e.literal,))):
                diags.append(_at(
                    decl, f"{owner}: scene channel {e.ref.binding}."
                    f"{e.ref.prop} compares with numbers only, got "
                    f"{e.literal!r}", file))
        elif isinstance(e, (And, Or)):
            for item in e.items:
                check_ops(item)
        elif isinstance(e, Not):
            check_ops(e.item)

    if expr is not None:
        check_ops(expr)


def _flatten_query(
    program: Program, decl: QueryDecl, diags: list[Diagnostic], file: str
) -> Optional[tuple[FlatQuery, Any]]:
    """The query with its ancestors' items merged in, and its frame constraint."""
    queries = program.queries
    chain = _chain(queries, decl.name)
    if chain is None:
        diags.append(_at(
            decl, f"query {decl.name!r}: undeclared parent or inheritance "
            f"cycle", file))
        return None
    bindings: dict[str, str] = {}
    frame_parts, video_parts = [], []
    frame_output: list[PropRef] = []
    video_output = None
    for qname in reversed(chain):
        q = queries[qname]
        for bname, btype in q.bindings:
            if bname in bindings and bindings[bname] != btype:
                diags.append(_at(
                    decl, f"query {decl.name}: binding {bname!r} redeclared "
                    f"as {btype} (was {bindings[bname]})", file))
            bindings[bname] = btype
        if q.frame_constraint is not None:
            frame_parts.append(q.frame_constraint)
        if q.video_constraint is not None:
            video_parts.append(q.video_constraint)
        if q.frame_output:
            frame_output = q.frame_output
        if q.video_output is not None:
            video_output = q.video_output
    return FlatQuery(
        name=decl.name,
        kind="basic",
        bindings=list(bindings.items()),  # root's first, as declared
        video_pred=conjoin(video_parts),
        frame_output=frame_output,
        video_output=video_output,
    ), conjoin(frame_parts)


def _split_frame_pred(
    expr, bindings: dict[str, str], decl: QueryDecl,
    diags: list[Diagnostic], file: str,
) -> tuple[list[Compare], dict[str, list]]:
    """The Scene comparisons of `decl`'s frame constraint and each object
    binding's conjuncts.  A conjunct is one comparison over Scene bindings
    or a predicate over one object binding; it reads no relation."""
    scene_conjs: list[Compare] = []
    binding_conjs = {b: [] for b, t in bindings.items() if t != SCENE_TYPE}
    for conj in conjuncts(expr):
        refs = list(walk_refs(conj))
        names = {r.binding for r in refs}
        vobjs = [n for n in names if n in binding_conjs]
        if any(r.relation is not None for r in refs):
            problem = ("a frame_constraint reads no relation; only a spatial "
                       "query's predicate does")
        elif not names <= bindings.keys():
            continue  # an unknown binding, reported by _check_pred
        elif len(names) == len(vobjs) == 1:
            binding_conjs[vobjs[0]].append(conj)
            continue
        elif not vobjs and isinstance(conj, Compare):
            scene_conjs.append(conj)
            continue
        elif len(vobjs) > 1:
            problem = "a non-relation conjunct may reference only one binding"
        elif vobjs:
            problem = "a conjunct may not read both a Scene and an object binding"
        else:
            problem = "a Scene conjunct must be a single comparison"
        diags.append(_at(decl, f"query {decl.name}: {problem}", file))
    return scene_conjs, binding_conjs


def validate(program: Program, file: str = "<source>") -> ValidatedProgram:
    """Check every declaration; raises ValidationError with all diagnostics."""
    diags: list[Diagnostic] = []
    types: dict[str, FlatVObjType] = {}
    for decl in program.decls:
        if isinstance(decl, VObjTypeDecl):
            if decl.name == SCENE_TYPE:
                diags.append(_at(
                    decl, f"{SCENE_TYPE!r} is a reserved type and cannot be "
                    f"declared", file))
                continue
            flat = _flatten_vobj(program, decl, diags, file)
            if flat is not None:
                types[decl.name] = flat

    relations = program.relations
    flawed = set()  # relations with a diagnostic of their own
    for rel in relations.values():
        if len(rel.participants) < 2:
            diags.append(_at(
                rel, f"relation {rel.name!r}: arity must be >= 2", file))
            flawed.add(rel.name)
        for part in rel.participants:
            if part not in program.vobjs and part != SCENE_TYPE:
                diags.append(_at(
                    rel, f"relation {rel.name!r}: undeclared participant "
                    f"{part!r}", file))
                flawed.add(rel.name)

    queries: dict[str, FlatQuery] = {}
    query_order: list[str] = []

    basic_decls = [d for d in program.decls if isinstance(d, QueryDecl)]
    for decl in basic_decls:
        for bname, btype in decl.bindings:
            if btype not in program.vobjs and btype != SCENE_TYPE:
                diags.append(_at(
                    decl, f"query {decl.name}: undeclared VObj type {btype!r} "
                    f"for binding {bname!r}", file))
            elif btype in types and types[btype].detector is None:
                diags.append(_at(
                    decl, f"query {decl.name}: binding {bname!r} has type "
                    f"{btype}, which declares no detector and inherits none",
                    file))
        flattened = _flatten_query(program, decl, diags, file)
        if flattened is None:
            continue
        flat, frame_pred = flattened
        bmap = dict(flat.bindings)
        if frame_pred is None and flat.video_pred is None:
            diags.append(_at(
                decl, f"query {decl.name}: needs a frame_constraint or "
                f"video_constraint", file))
        _check_pred(frame_pred, bmap, types, decl, diags, file)
        _check_pred(flat.video_pred, bmap, types, decl, diags, file)
        flat.scene_conjs, flat.binding_conjs = _split_frame_pred(
            frame_pred, bmap, decl, diags, file)
        objects = [b for b, t in flat.bindings if t != SCENE_TYPE]
        for ref in flat.frame_output:
            if ref.binding not in objects:
                diags.append(_at(
                    decl, f"query {decl.name}: frame_output names "
                    f"{ref.binding!r}, which is no object binding", file))
                continue
            ftype = types.get(bmap[ref.binding])
            if (ftype is not None and ref.prop not in ftype.props
                    and ref.prop not in BUILTIN_PROPS):
                diags.append(_at(
                    decl, f"query {decl.name}: frame_output references "
                    f"unknown property {ref.prop!r}", file))
        if flat.video_output is not None:
            kind, binding = flat.video_output
            if kind != "count_distinct":
                diags.append(_at(
                    decl, f"query {decl.name}: unsupported aggregation "
                    f"{kind!r}", file))
            if binding not in objects:
                diags.append(_at(
                    decl, f"query {decl.name}: video_output names "
                    f"{binding!r}, which is no object binding", file))
        elif flat.video_pred is not None and objects:
            flat.video_output = ("count_distinct", objects[0])
        aggregated = flat.video_output and flat.video_output[1]
        if any(r.relation is not None or r.binding != aggregated
               for r in walk_refs(flat.video_pred)):
            diags.append(_at(
                decl, f"query {decl.name}: a video_constraint reads no "
                f"relation and only the aggregated binding, video_output's "
                f"or else the first object binding", file))
        queries[decl.name] = flat
        query_order.append(decl.name)

    def query_kind(name: str) -> Optional[str]:
        if name in queries:
            return queries[name].kind
        return None

    hoq_decls = [
        d for d in program.decls
        if isinstance(d, (DurationDecl, SpatialDecl, TemporalDecl))
    ]
    # one pass in declaration order: a higher-order query may reference every
    # basic query and each higher-order query declared before it (temporal
    # over temporal)
    for decl in hoq_decls:
        if isinstance(decl, SpatialDecl):
            ok = True
            for sub in (decl.first, decl.second):
                kind = query_kind(sub)
                if kind is None:
                    diags.append(_at(
                        decl, f"spatial query {decl.name}: undeclared query "
                        f"{sub!r}", file))
                    ok = False
                elif kind != "basic":
                    diags.append(_at(
                        decl, f"spatial query {decl.name}: violates Rule 1, "
                        f"{sub!r} is a {kind} query (only basic queries "
                        f"are allowed)", file))
                    ok = False
            if decl.relation not in relations:
                diags.append(_at(
                    decl, f"spatial query {decl.name}: undeclared relation "
                    f"{decl.relation!r}", file))
                ok = False
            if not ok:
                continue
            q1, q2 = queries[decl.first], queries[decl.second]
            for sub in (q1, q2):
                if len(sub.bindings) != 1 or sub.bindings[0][1] == SCENE_TYPE:
                    diags.append(_at(
                        decl, f"spatial query {decl.name}: {sub.name!r} must "
                        f"bind exactly one VObj", file))
                    ok = False
            if not ok:
                continue
            bindings = q1.bindings + q2.bindings
            (b1, t1), (b2, t2) = bindings
            if b1 == b2:
                diags.append(_at(
                    decl, f"spatial query {decl.name}: sub-query bindings "
                    f"share the name {b1!r}", file))
                continue
            rel, rel_pred = relations[decl.relation], decl.predicate
            parts = rel.participants
            # a spatial query relates two objects: a relation of any other
            # arity relates none of its pairs
            if rel.name not in flawed and t1 in types and t2 in types \
                    and not (len(parts) == 2 and any(
                        p1 in types[t1].ancestors and p2 in types[t2].ancestors
                        for p1, p2 in (parts, parts[::-1]))):
                diags.append(_at(
                    decl, f"spatial query {decl.name}: relation {rel.name}"
                    f"({', '.join(rel.participants)}) does not relate "
                    f"{t1} and {t2}", file))
                continue
            _check_pred(rel_pred, dict(bindings), types, decl, diags, file)
            # relations are symmetric: their arguments come in either order
            props = {p.name for p in rel.properties}
            for ref in walk_refs(rel_pred):
                if ref.relation is not None and (
                        ref.relation != rel.name or ref.prop not in props
                        or set(ref.args) != {b1, b2}):
                    diags.append(_at(
                        decl, f"spatial query {decl.name}: {ref.relation}"
                        f"({', '.join(ref.args)}).{ref.prop} is no property "
                        f"of the query's relation {rel.name}({b1}, {b2})",
                        file))
            queries[decl.name] = FlatQuery(
                name=decl.name,
                kind="spatial",
                bindings=bindings,
                scene_conjs=q1.scene_conjs + q2.scene_conjs,
                binding_conjs={**q1.binding_conjs, **q2.binding_conjs},
                relation=decl.relation,
                relation_pred=rel_pred,
                frame_output=q1.frame_output + q2.frame_output,
            )
            query_order.append(decl.name)
        elif isinstance(decl, DurationDecl):
            kind = query_kind(decl.base)
            if kind is None:
                diags.append(_at(
                    decl, f"duration query {decl.name}: undeclared query "
                    f"{decl.base!r}", file))
                continue
            if kind not in ("basic", "spatial"):
                diags.append(_at(
                    decl, f"duration query {decl.name}: violates Rule 2, "
                    f"{decl.base!r} is a {kind} query (only basic or spatial "
                    f"queries are allowed)", file))
                continue
            if decl.min_frames is None and decl.min_seconds is None:
                diags.append(_at(
                    decl, f"duration query {decl.name}: needs min_frames or "
                    f"min_seconds", file))
                continue
            base = queries[decl.base]
            queries[decl.name] = FlatQuery(
                name=decl.name,
                kind="duration",
                bindings=base.bindings,
                base=decl.base,
                min_frames=decl.min_frames,
                min_seconds=decl.min_seconds,
                gap_tolerance=decl.gap_tolerance,
            )
            query_order.append(decl.name)
        elif isinstance(decl, TemporalDecl):
            ok = True
            for sub in (decl.first, decl.then):
                if query_kind(sub) is None:
                    diags.append(_at(
                        decl, f"temporal query {decl.name}: undeclared query "
                        f"{sub!r}", file))
                    ok = False
            if decl.max_interval_frames is None and decl.max_interval_seconds is None:
                diags.append(_at(
                    decl, f"temporal query {decl.name}: needs "
                    f"max_interval_frames or max_interval_seconds", file))
                ok = False
            if not ok:
                continue
            queries[decl.name] = FlatQuery(
                name=decl.name,
                kind="temporal",
                first=decl.first,
                then=decl.then,
                max_interval_frames=decl.max_interval_frames,
                max_interval_seconds=decl.max_interval_seconds,
            )
            query_order.append(decl.name)

    if diags:
        raise ValidationError(diags)
    return ValidatedProgram(
        types=types,
        relations=relations,
        queries=queries,
        query_order=query_order,
    )
