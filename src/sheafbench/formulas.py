"""First-order formula language for the forcing interpreter.

Grammar (quantifiers bind weakest and extend maximally to the right, ``->``
associates to the right, ``|`` binds looser than ``&``)::

    formula := "false"
             | atom
             | "(" formula ")"
             | formula "&" formula
             | formula "|" formula
             | formula "->" formula
             | ("exists" | "forall") ident ":" sort "." formula
    atom    := ident "(" [term {"," term}] ")"
    term    := primary {"+" primary}
    primary := number | ident
    sort    := "Nat" | "FinSeq" | "Seq2" | "SeqN"

Identifiers in terms are resolved later: bound variables first, then named
constants registered with the model.
"""
from __future__ import annotations

import re
from dataclasses import dataclass


SORTS = ("Nat", "FinSeq", "Seq2", "SeqN")
KEYWORDS = ("false", "exists", "forall")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Lit:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Name:
    ident: str

    def __str__(self) -> str:
        return self.ident


@dataclass(frozen=True)
class Sum:
    left: object
    right: object

    def __str__(self) -> str:
        return f"{self.left}+{self.right}"


# ------------------------------------------------------------- formulas

@dataclass(frozen=True)
class Falsum:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Atom:
    name: str
    args: tuple

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class And:
    left: object
    right: object

    def __str__(self) -> str:
        return f"{_wrap(self.left, (Or, Implies, Exists, Forall))} & {_wrap(self.right, (And, Or, Implies, Exists, Forall))}"


@dataclass(frozen=True)
class Or:
    left: object
    right: object

    def __str__(self) -> str:
        return f"{_wrap(self.left, (Implies, Exists, Forall))} | {_wrap(self.right, (Or, Implies, Exists, Forall))}"


@dataclass(frozen=True)
class Implies:
    left: object
    right: object

    def __str__(self) -> str:
        return f"{_wrap(self.left, (Implies, Exists, Forall))} -> {self.right}"


@dataclass(frozen=True)
class Exists:
    var: str
    sort: str
    body: object

    def __str__(self) -> str:
        return f"exists {self.var}:{self.sort}. {self.body}"


@dataclass(frozen=True)
class Forall:
    var: str
    sort: str
    body: object

    def __str__(self) -> str:
        return f"forall {self.var}:{self.sort}. {self.body}"


def _wrap(node, loose) -> str:
    text = str(node)
    return f"({text})" if isinstance(node, loose) else text


_TOKEN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[().,:&|+]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup == "arrow" or m.group("sym"):
            kind = "sym"
            value = "->" if m.lastgroup == "arrow" else m.group("sym")
        elif m.group("num"):
            kind, value = "num", m.group("num")
        else:
            kind, value = "ident", m.group("ident")
        tokens.append((kind, value, m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, got, pos = self.next()
        if got != value:
            raise ParseError(f"expected {value!r}, found {got or 'end of input'!r}", pos)

    def formula(self):
        kind, value, pos = self.peek()
        if kind == "ident" and value in ("exists", "forall"):
            self.next()
            vkind, var, vpos = self.next()
            if vkind != "ident" or var in KEYWORDS:
                raise ParseError("expected a variable name", vpos)
            self.expect(":")
            skind, sort, spos = self.next()
            if sort not in SORTS:
                raise ParseError(
                    f"unknown sort {sort!r} (expected one of {', '.join(SORTS)})", spos
                )
            self.expect(".")
            body = self.formula()
            return (Exists if value == "exists" else Forall)(var, sort, body)
        return self.implication()

    def implication(self):
        left = self.disjunction()
        kind, value, _ = self.peek()
        if value == "->":
            self.next()
            right = self.formula()
            return Implies(left, right)
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.peek()[1] == "|":
            self.next()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unit()
        while self.peek()[1] == "&":
            self.next()
            node = And(node, self.unit())
        return node

    def unit(self):
        kind, value, pos = self.next()
        if value == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        if kind == "ident":
            if value == "false":
                return Falsum()
            if value in ("exists", "forall"):
                self.i -= 1
                return self.formula()
            self.expect("(")
            args = []
            if self.peek()[1] != ")":
                args.append(self.term())
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.term())
            self.expect(")")
            return Atom(value, tuple(args))
        raise ParseError(f"expected a formula, found {value or 'end of input'!r}", pos)

    def term(self):
        node = self.primary()
        while self.peek()[1] == "+":
            self.next()
            node = Sum(node, self.primary())
        return node

    def primary(self):
        kind, value, pos = self.next()
        if kind == "num":
            return Lit(int(value))
        if kind == "ident" and value not in KEYWORDS:
            return Name(value)
        raise ParseError(f"expected a term, found {value or 'end of input'!r}", pos)


def parse_formula(text: str):
    parser = _Parser(text)
    node = parser.formula()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input starting with {value!r}", pos)
    return node


def term_names(term) -> frozenset:
    if isinstance(term, Lit):
        return frozenset()
    if isinstance(term, Name):
        return frozenset({term.ident})
    if isinstance(term, Sum):
        return term_names(term.left) | term_names(term.right)
    raise TypeError(f"not a term: {term!r}")


def free_names(formula) -> frozenset:
    """Identifiers not bound by any quantifier (variables or constants)."""
    if isinstance(formula, Falsum):
        return frozenset()
    if isinstance(formula, Atom):
        out = frozenset()
        for arg in formula.args:
            out |= term_names(arg)
        return out
    if isinstance(formula, (And, Or, Implies)):
        return free_names(formula.left) | free_names(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return free_names(formula.body) - {formula.var}
    raise TypeError(f"not a formula: {formula!r}")
