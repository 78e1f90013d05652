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


class _Node:
    """A frozen syntax node that computes its hash and free names once.

    ``_seal`` runs at construction: it stores the hash of the field tuple,
    the value the generated ``__hash__`` would return on every call, and the
    node's sorted free names, built from its children's ``free``.  Each node
    class binds ``__hash__`` in its own body, because ``dataclass(frozen=True)``
    writes a fresh one over an inherited method.
    """

    def _seal(self, fields: tuple, free: tuple) -> None:
        object.__setattr__(self, "_hash", hash(fields))
        object.__setattr__(self, "free", free)

    def __hash__(self) -> int:
        return self._hash


class _Binary(_Node):
    """A node with ``left`` and ``right`` children."""

    def __post_init__(self):
        self._seal((self.left, self.right), _union(self.left.free, self.right.free))


class _Quantifier(_Node):
    """A node binding ``var`` of ``sort`` in ``body``."""

    def __post_init__(self):
        free = self.body.free
        if self.var in free:
            free = tuple(n for n in free if n != self.var)
        self._seal((self.var, self.sort, self.body), free)


def _union(a: tuple, b: tuple) -> tuple:
    """Sorted union of two sorted name tuples."""
    if not a or a == b:
        return b
    if not b:
        return a
    return tuple(sorted({*a, *b}))


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Lit(_Node):
    value: int
    __hash__ = _Node.__hash__

    def __post_init__(self):
        self._seal((self.value,), ())

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Name(_Node):
    ident: str
    __hash__ = _Node.__hash__

    def __post_init__(self):
        self._seal((self.ident,), (self.ident,))

    def __str__(self) -> str:
        return self.ident


@dataclass(frozen=True)
class Sum(_Binary):
    left: object
    right: object
    __hash__ = _Node.__hash__

    def __str__(self) -> str:
        return f"{self.left}+{self.right}"


# ------------------------------------------------------------- formulas

@dataclass(frozen=True)
class Falsum(_Node):
    __hash__ = _Node.__hash__

    def __post_init__(self):
        self._seal((), ())

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Atom(_Node):
    name: str
    args: tuple
    __hash__ = _Node.__hash__

    def __post_init__(self):
        free = ()
        for arg in self.args:
            free = _union(free, arg.free)
        self._seal((self.name, self.args), free)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class And(_Binary):
    left: object
    right: object
    __hash__ = _Node.__hash__

    def __str__(self) -> str:
        return f"{_wrap(self.left, (Or, Implies, Exists, Forall))} & {_wrap(self.right, (And, Or, Implies, Exists, Forall))}"


@dataclass(frozen=True)
class Or(_Binary):
    left: object
    right: object
    __hash__ = _Node.__hash__

    def __str__(self) -> str:
        return f"{_wrap(self.left, (Implies, Exists, Forall))} | {_wrap(self.right, (Or, Implies, Exists, Forall))}"


@dataclass(frozen=True)
class Implies(_Binary):
    left: object
    right: object
    __hash__ = _Node.__hash__

    def __str__(self) -> str:
        return f"{_wrap(self.left, (Implies, Exists, Forall))} -> {self.right}"


@dataclass(frozen=True)
class Exists(_Quantifier):
    var: str
    sort: str
    body: object
    __hash__ = _Node.__hash__

    def __str__(self) -> str:
        return f"exists {self.var}:{self.sort}. {self.body}"


@dataclass(frozen=True)
class Forall(_Quantifier):
    var: str
    sort: str
    body: object
    __hash__ = _Node.__hash__

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
