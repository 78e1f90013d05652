import pytest

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
    free_names,
    parse_formula,
)


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
    assert free_names(node) == frozenset({"k", "pi"})


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
