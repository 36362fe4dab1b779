import random

import pytest

from rewrite_arena import leaf, number, parse_sexpr, print_sexpr, term
from rewrite_arena.terms import (
    ArityError,
    InvalidPositionError,
    ParseError,
    node_count,
    positions,
    replace_at,
    subterm_at,
    symbol,
)
from helpers import random_term


def test_parse_leaf_variable():
    t = parse_sexpr("x")
    assert t.is_leaf() and t.op.name == "x" and not t.is_number()


def test_parse_matmul_chain_five_nodes():
    t = parse_sexpr("(* (* A B) C)")
    assert t.op.name == "*"
    assert node_count(t) == 5


def test_parse_pythagorean_nine_nodes():
    t = parse_sexpr("(+ (pow (sin x) 2) (pow (cos x) 2))")
    assert node_count(t) == 9


def test_parse_numbers_exact():
    assert parse_sexpr("3").value == 3
    assert parse_sexpr("-2").value == -2
    assert parse_sexpr("2.5").value * 2 == 5
    assert parse_sexpr("1/3").value * 3 == 1


def test_parse_comments_and_whitespace():
    t = parse_sexpr("; heading\n  (+ 1 ; inline\n 2)  ; trailing\n")
    assert print_sexpr(t) == "(+ 1 2)"


def test_parse_syntax_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse_sexpr("(+ 1 2")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_sexpr("(+ 1 2))")
    assert err.value.offset == 7


def test_parse_arity_mismatch_names_symbol():
    parse_sexpr("(foo77 1 2)")
    with pytest.raises(ParseError) as err:
        parse_sexpr("(foo77 1)")
    assert "foo77" in str(err.value)


def test_symbol_interning_identity():
    assert symbol("sin", 1) is symbol("sin", 1)
    with pytest.raises(ArityError):
        symbol("sin", 2)


def test_print_leaf_and_canonical_spacing():
    assert print_sexpr(leaf("x")) == "x"
    t = term("*", term("*", leaf("A"), leaf("B")), leaf("C"))
    assert print_sexpr(t) == "(* (* A B) C)"


def test_roundtrip_random_terms():
    rng = random.Random(7)
    for _ in range(300):
        t = random_term(rng)
        assert parse_sexpr(print_sexpr(t)) == t


def test_subterm_at():
    t = parse_sexpr("(* (* A B) C)")
    assert subterm_at(t, ()) is t
    assert print_sexpr(subterm_at(t, (0,))) == "(* A B)"
    assert print_sexpr(subterm_at(t, (0, 1))) == "B"
    with pytest.raises(InvalidPositionError):
        subterm_at(t, (0, 1, 0))
    with pytest.raises(InvalidPositionError):
        subterm_at(t, (2,))


def test_replace_at():
    t = parse_sexpr("(* (* A B) C)")
    s = parse_sexpr("(* B A)")
    assert print_sexpr(replace_at(t, (0,), s)) == "(* (* B A) C)"
    assert replace_at(t, (), s) is s
    # the original is untouched
    assert print_sexpr(t) == "(* (* A B) C)"


def test_replace_then_subterm_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        t = random_term(rng)
        pos_list = [p for p, _ in positions(t)]
        p = pos_list[rng.randrange(len(pos_list))]
        s = random_term(rng, depth=2)
        replaced = replace_at(t, p, s)
        assert subterm_at(replaced, p) == s
        # replacing a subterm by itself is the identity
        assert replace_at(t, p, subterm_at(t, p)) == t


def test_node_count_examples():
    assert node_count(parse_sexpr("x")) == 1
    assert node_count(parse_sexpr("(sin x)")) == 2


def test_node_count_replace_arithmetic():
    rng = random.Random(23)
    for _ in range(100):
        t = random_term(rng)
        pos_list = [p for p, _ in positions(t)]
        p = pos_list[rng.randrange(len(pos_list))]
        s = random_term(rng, depth=3)
        assert node_count(replace_at(t, p, s)) == (
            node_count(t) - node_count(subterm_at(t, p)) + node_count(s)
        )


def test_deep_terms_are_iterative_safe():
    deep = leaf("x")
    for _ in range(5000):
        deep = term("sin", deep)
    assert node_count(deep) == 5001
    text = print_sexpr(deep)
    assert parse_sexpr(text) == deep


def test_structural_equality_is_deep():
    a = parse_sexpr("(+ (sin x) 1)")
    b = parse_sexpr("(+ (sin x) 1)")
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != parse_sexpr("(+ (sin y) 1)")


def test_number_canonical_form():
    assert print_sexpr(number(5)) == "5"
    assert print_sexpr(parse_sexpr("2.5")) == "5/2"
    # canonical form round-trips to itself
    assert print_sexpr(parse_sexpr("5/2")) == "5/2"
