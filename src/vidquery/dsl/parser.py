"""Recursive-descent parser for `.vq` query programs.

Grammar sketch:

    program    := decl*
    decl       := vobj | relation | query | "duration"|"spatial"|"temporal" query
    vobj       := "vobj" NAME ["extends" NAME] "{" (detector | property)* "}"
    relation   := "relation" NAME "(" NAME ("," NAME)+ ")" "{" property* "}"
    query      := "query" NAME ["extends" NAME] "{" query_item* "}"
    property   := "property" NAME ":" ("stateless"|"stateful") "(" kv,* ")" ["intrinsic"]
    expr       := or;  or := and ("|" and)*;  and := not ("&" not)*
    not        := "!" not | "(" expr ")" | comparison
    comparison := ref OP literal | ref "in" "[" literal,* "]"
    ref        := NAME "." NAME | NAME "(" NAME "," NAME ")" "." NAME

Comments run from `#` to end of line.  Diagnostics carry line:col positions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Optional

from .ast import (
    COMPARISON_OPS,
    And,
    Compare,
    DurationDecl,
    Loc,
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
)


class DslSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int, file: str = "<source>"):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.file = file


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>-?\d+(\.\d+)?)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>==|!=|<=|>=|[{}()\[\]:,.&|!<>=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | string | op | eof
    text: str
    line: int
    col: int


def _tokenize(source: str, file: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {source[pos]!r}", line, col, file)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# a duration's or temporal's numbers: item -> (whole, least, least allowed)
_NUMBER_ITEMS = {
    "min_frames": (True, 1, True),
    "gap_tolerance": (True, 0, True),
    "max_interval_frames": (True, 0, True),
    "min_seconds": (False, 0, False),
    "max_interval_seconds": (False, 0, True),
}


class _Parser:
    def __init__(self, source: str, file: str):
        self.file = file
        self.tokens = _tokenize(source, file)
        self.pos = 0

    # token plumbing

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.cur
        raise DslSyntaxError(message, tok.line, tok.col, self.file)

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        return self.cur.kind == kind and (text is None or self.cur.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            want = text or kind
            self.error(f"expected {want!r}, found {self.cur.text or 'end of input'!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.expect("ident")
        return tok

    def loc(self) -> Loc:
        return Loc(self.cur.line, self.cur.col)

    # declarations

    def parse_program(self) -> Program:
        program = Program()
        seen: set[str] = set()
        while not self.at("eof"):
            decl = self.parse_decl()
            if decl.name in seen:
                raise DslSyntaxError(
                    f"duplicate declaration of {decl.name!r}",
                    decl.loc.line, decl.loc.col, self.file,
                )
            seen.add(decl.name)
            program.decls.append(decl)
        return program

    def parse_decl(self):
        if self.at("ident", "vobj"):
            return self.parse_vobj()
        if self.at("ident", "relation"):
            return self.parse_relation()
        if self.at("ident", "query"):
            return self.parse_query()
        if self.cur.kind == "ident" and self.cur.text in ("duration", "spatial", "temporal"):
            return self.parse_higher_order()
        self.error(f"expected a declaration, found {self.cur.text!r}")

    def parse_vobj(self) -> VObjTypeDecl:
        loc = self.loc()
        self.expect("ident", "vobj")
        name = self.expect_ident().text
        parent = None
        if self.at("ident", "extends"):
            self.advance()
            parent = self.expect_ident().text
        decl = VObjTypeDecl(name=name, parent=parent, loc=loc)
        self.expect("op", "{")
        while not self.at("op", "}"):
            if self.at("ident", "detector"):
                self.advance()
                self.expect("op", ":")
                decl.detector = self.parse_string()
            elif self.at("ident", "property"):
                decl.properties.append(self.parse_property())
            else:
                self.error(f"expected 'detector' or 'property', found {self.cur.text!r}")
        self.expect("op", "}")
        return decl

    def parse_relation(self) -> RelationDecl:
        loc = self.loc()
        self.expect("ident", "relation")
        name = self.expect_ident().text
        self.expect("op", "(")
        participants = [self.expect_ident().text]
        while self.at("op", ","):
            self.advance()
            participants.append(self.expect_ident().text)
        self.expect("op", ")")
        decl = RelationDecl(name=name, participants=tuple(participants), loc=loc)
        self.expect("op", "{")
        while not self.at("op", "}"):
            if self.at("ident", "property"):
                decl.properties.append(self.parse_property())
            else:
                self.error(f"expected 'property', found {self.cur.text!r}")
        self.expect("op", "}")
        return decl

    def parse_property(self) -> PropertyDef:
        loc = self.loc()
        self.expect("ident", "property")
        name = self.expect_ident().text
        self.expect("op", ":")
        kind_tok = self.expect("ident")
        if kind_tok.text not in ("stateless", "stateful"):
            self.error("property kind must be 'stateless' or 'stateful'", kind_tok)
        impl = ""
        deps: tuple[str, ...] = ()
        window = None
        self.expect("op", "(")
        while not self.at("op", ")"):
            key = self.expect_ident().text
            self.expect("op", "=")
            if key == "impl":
                impl = self.parse_string()
            elif key == "deps":
                self.expect("op", "[")
                names = []
                while not self.at("op", "]"):
                    names.append(self.expect_ident().text)
                    if self.at("op", ","):
                        self.advance()
                self.expect("op", "]")
                deps = tuple(names)
            elif key == "window":
                window = int(self.expect("number").text)
            else:
                self.error(f"unknown property argument {key!r}")
            if self.at("op", ","):
                self.advance()
        self.expect("op", ")")
        intrinsic = False
        if self.at("ident", "intrinsic"):
            self.advance()
            intrinsic = True
        return PropertyDef(
            name=name, kind=kind_tok.text, impl=impl, deps=deps,
            window=window, intrinsic=intrinsic, loc=loc,
        )

    def parse_query(self) -> QueryDecl:
        loc = self.loc()
        self.expect("ident", "query")
        name = self.expect_ident().text
        parent = None
        if self.at("ident", "extends"):
            self.advance()
            parent = self.expect_ident().text
        decl = QueryDecl(name=name, parent=parent, loc=loc)
        self.expect("op", "{")
        while not self.at("op", "}"):
            item = self.expect("ident")
            if item.text == "bind":
                bname = self.expect_ident().text
                self.expect("op", ":")
                btype = self.expect_ident().text
                decl.bindings.append((bname, btype))
                continue
            self.expect("op", ":")
            if item.text == "frame_constraint":
                decl.frame_constraint = self.parse_expr()
            elif item.text == "video_constraint":
                decl.video_constraint = self.parse_expr()
            elif item.text == "frame_output":
                decl.frame_output = self.parse_output_refs()
            elif item.text == "video_output":
                kind = self.expect_ident().text
                self.expect("op", "(")
                binding = self.expect_ident().text
                self.expect("op", ")")
                decl.video_output = (kind, binding)
            else:
                self.error(f"unknown query item {item.text!r}", item)
        self.expect("op", "}")
        return decl

    def parse_output_refs(self) -> list[PropRef]:
        refs = [self.parse_plain_ref()]
        while self.at("op", ","):
            self.advance()
            refs.append(self.parse_plain_ref())
        return refs

    def parse_plain_ref(self) -> PropRef:
        binding = self.expect_ident().text
        self.expect("op", ".")
        prop = self.expect_ident().text
        return PropRef(binding=binding, prop=prop)

    def parse_higher_order(self):
        loc = self.loc()
        flavor = self.advance().text
        self.expect("ident", "query")
        name = self.expect_ident().text
        self.expect("op", "{")
        items: dict[str, Any] = {}
        tokens: dict[str, Token] = {}  # where each item's value starts
        while not self.at("op", "}"):
            key = self.expect_ident().text
            self.expect("op", ":")
            tokens[key] = self.cur
            if key == "predicate":
                items[key] = self.parse_expr()
            elif self.cur.kind == "number":
                text = self.advance().text
                items[key] = float(text) if "." in text else int(text)
            else:
                items[key] = self.expect_ident().text
        self.expect("op", "}")
        allowed = {
            "duration": {"base", "min_frames", "min_seconds", "gap_tolerance"},
            "spatial": {"first", "second", "relation", "predicate"},
            "temporal": {"first", "then", "max_interval_frames", "max_interval_seconds"},
        }[flavor]
        for key in sorted(items):
            if key not in allowed:
                raise DslSyntaxError(
                    f"{flavor} query {name!r} has unknown item {key!r}",
                    loc.line, loc.col, self.file,
                )
        for key in sorted(items.keys() & _NUMBER_ITEMS.keys()):
            whole, least, inclusive = _NUMBER_ITEMS[key]
            value = items[key]
            ok = type(value) is int or (not whole and type(value) is float
                                        and math.isfinite(value))
            if not (ok and (value >= least if inclusive else value > least)):
                what = "a whole number" if whole else "a number"
                bound = ">=" if inclusive else ">"
                self.error(f"{flavor} query {name!r}: {key} must be {what} "
                           f"{bound} {least}, found {tokens[key].text!r}",
                           tokens[key])
        try:
            if flavor == "duration":
                return DurationDecl(
                    name=name,
                    base=items.pop("base"),
                    min_frames=items.pop("min_frames", None),
                    min_seconds=items.pop("min_seconds", None),
                    gap_tolerance=items.pop("gap_tolerance", 0),
                    loc=loc,
                )
            if flavor == "spatial":
                return SpatialDecl(
                    name=name,
                    first=items.pop("first"),
                    second=items.pop("second"),
                    relation=items.pop("relation"),
                    predicate=items.pop("predicate", None),
                    loc=loc,
                )
            return TemporalDecl(
                name=name,
                first=items.pop("first"),
                then=items.pop("then"),
                max_interval_frames=items.pop("max_interval_frames", None),
                max_interval_seconds=items.pop("max_interval_seconds", None),
                loc=loc,
            )
        except KeyError as exc:
            raise DslSyntaxError(
                f"{flavor} query {name!r} is missing item {exc.args[0]!r}",
                loc.line, loc.col, self.file,
            ) from None

    # expressions

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        items = [self.parse_and()]
        while self.at("op", "|"):
            self.advance()
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_and(self):
        items = [self.parse_not()]
        while self.at("op", "&"):
            self.advance()
            items.append(self.parse_not())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_not(self):
        if self.at("op", "!"):
            self.advance()
            return Not(self.parse_not())
        if self.at("op", "("):
            self.advance()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        return self.parse_comparison()

    def parse_comparison(self) -> Compare:
        first = self.expect_ident().text
        if self.at("op", "("):
            self.advance()
            a = self.expect_ident().text
            self.expect("op", ",")
            b = self.expect_ident().text
            self.expect("op", ")")
            self.expect("op", ".")
            prop = self.expect_ident().text
            ref = PropRef(binding=None, prop=prop, relation=first, args=(a, b))
        else:
            self.expect("op", ".")
            prop = self.expect_ident().text
            ref = PropRef(binding=first, prop=prop)
        if self.at("ident", "in"):
            self.advance()
            self.expect("op", "[")
            values = []
            while not self.at("op", "]"):
                values.append(self.parse_literal())
                if self.at("op", ","):
                    self.advance()
            self.expect("op", "]")
            return Compare(ref=ref, op="in", literal=tuple(values))
        op_tok = self.expect("op")
        if op_tok.text not in COMPARISON_OPS:
            self.error(f"expected a comparison operator, found {op_tok.text!r}", op_tok)
        return Compare(ref=ref, op=op_tok.text, literal=self.parse_literal())

    def parse_literal(self):
        if self.cur.kind == "string":
            return self.parse_string()
        if self.cur.kind == "number":
            text = self.advance().text
            return float(text) if "." in text else float(int(text))
        self.error(f"expected a literal, found {self.cur.text!r}")

    def parse_string(self) -> str:
        tok = self.expect("string")
        body = tok.text[1:-1]
        return body.replace('\\"', '"').replace("\\\\", "\\")


def parse(source: str, file: str = "<source>") -> Program:
    """Parse query-language source into a Program AST."""
    parser = _Parser(source, file)
    return parser.parse_program()
