from dataclasses import fields

import pytest

from sheafbench.double import DOpen, SingletonOpen
from sheafbench.forcing import generic_value, pure_value, table_value
from sheafbench.formulas import (
    And,
    Atom,
    Exists,
    Falsum,
    Forall,
    Implies,
    Lit,
    Name,
    Or,
    ParseError,
    Sum,
    parse_formula,
)
from sheafbench.points import Point


def test_parse_atoms_and_terms():
    node = parse_formula("Eq(n+0, 2)")
    assert node == Atom("Eq", (Sum(Name("n"), Lit(0)), Lit(2)))


def test_parse_falsum_and_empty_args():
    assert parse_formula("false") == Falsum()
    assert parse_formula("Flag()") == Atom("Flag", ())


def test_connective_precedence():
    node = parse_formula("A() & B() | C() -> D()")
    assert node == Implies(Or(And(Atom("A", ()), Atom("B", ())), Atom("C", ())), Atom("D", ()))


def test_implication_is_right_associative():
    node = parse_formula("A() -> B() -> C()")
    assert node == Implies(Atom("A", ()), Implies(Atom("B", ()), Atom("C", ())))


def test_quantifier_extends_maximally():
    node = parse_formula("forall n : Nat . Eq(n, 1) & false")
    assert node == Forall("n", "Nat", And(Atom("Eq", (Name("n"), Lit(1))), Falsum()))


def test_quantifier_after_arrow():
    node = parse_formula("A() -> exists u:FinSeq. InBar(u)")
    assert node == Implies(Atom("A", ()), Exists("u", "FinSeq", Atom("InBar", (Name("u"),))))


def test_parens_override():
    node = parse_formula("(forall n:Nat. Eq(n,n)) -> false")
    assert isinstance(node, Implies)
    assert isinstance(node.left, Forall)


def test_nested_quantifiers_over_sorts():
    text = "forall a:Seq2. exists u:FinSeq. Prefix(a, u) & InBar(u)"
    node = parse_formula(text)
    assert node.sort == "Seq2"
    assert node.body.sort == "FinSeq"
    assert isinstance(node.body.body, And)


def test_round_trip_through_str():
    samples = [
        "false",
        "Eq(n+0, 2)",
        "A() & (B() | C())",
        "(A() -> B()) -> C()",
        "forall a:Seq2. exists u:FinSeq. Prefix(a, u) & InBar(u)",
        "exists n:Nat. (Eq(n, 1) -> false) & Leq(n, k)",
    ]
    for text in samples:
        node = parse_formula(text)
        assert parse_formula(str(node)) == node


def test_free_names_sees_constants_but_not_bound_vars():
    node = parse_formula("forall n:Nat. Eq(n, k) & Rel(pi, n)")
    assert node.free == ("k", "pi")


def _chain(depth: int):
    """An ``And`` chain built bottom-up under one quantifier."""
    node = Atom("Eq", (Name("x0"), Lit(0)))
    for i in range(1, depth):
        node = And(Atom("Leq", (Sum(Name(f"x{i % 7}"), Lit(1)), Lit(i))), node)
    return Exists("x3", "Nat", node)


def test_deep_chains_hash_and_know_their_free_names():
    first, second = _chain(1500), _chain(1500)
    assert hash(first) == hash(second)
    assert first.free == ("x0", "x1", "x2", "x4", "x5", "x6")
    assert first.body.free == tuple(f"x{i}" for i in range(7))


_POINT = Point((0,), 1)
_SAMPLES = [
    Lit(3), Name("n"), Sum(Name("n"), Lit(1)), Falsum(),
    Atom("Eq", (Name("n"), Lit(2))), Atom("Flag", ()),
    And(Falsum(), Atom("A", ())), Or(Falsum(), Atom("A", ())),
    Implies(Falsum(), Atom("A", ())),
    Exists("n", "Nat", Atom("Eq", (Name("n"), Name("k")))),
    Forall("u", "FinSeq", Atom("InBar", (Name("u"),))),
    pure_value(_POINT, 2), generic_value(2),
    table_value({_POINT: Point((), 0)}, 2, label="t"),
    DOpen((0, 1)), SingletonOpen(_POINT),
]


@pytest.mark.parametrize("node", _SAMPLES, ids=lambda x: type(x).__name__)
def test_hash_is_stored_once_and_equals_the_field_tuple_hash(node):
    expected = hash(tuple(getattr(node, f.name) for f in fields(node)))
    assert node._hash == expected
    assert type(node).__hash__(node) == expected
    # the class serves the stored value rather than recomputing it
    object.__setattr__(node, "_hash", expected + 1)
    try:
        assert hash(node) == expected + 1
    finally:
        object.__setattr__(node, "_hash", expected)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("forall n : Float . Eq(n, 1)")
    assert "Float" in str(err.value)
    with pytest.raises(ParseError):
        parse_formula("Eq(1, 2) extra")
    with pytest.raises(ParseError):
        parse_formula("Eq(1 2)")
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError):
        parse_formula("Eq(1, 2) & @")
    with pytest.raises(ParseError):
        parse_formula("exists false : Nat . false")


def test_keywords_cannot_be_terms():
    with pytest.raises(ParseError):
        parse_formula("Eq(forall, 1)")
