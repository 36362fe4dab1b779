import random

import pytest

from rewrite_arena import leaf, number, parse_sexpr, print_sexpr, term
from rewrite_arena.terms import (
    ArityError,
    InvalidPositionError,
    ParseError,
    Symbol,
    Term,
    node_count,
    positions,
    postorder,
    replace_at,
    subterm_at,
    symbol,
    variables,
)
from helpers import random_term


def test_parse_leaf_variable():
    t = parse_sexpr("x")
    assert not t.children and t.op.name == "x" and t.op.value is None


def test_parse_matmul_chain_five_nodes():
    t = parse_sexpr("(* (* A B) C)")
    assert t.op.name == "*"
    assert node_count(t) == 5


def test_parse_pythagorean_nine_nodes():
    t = parse_sexpr("(+ (pow (sin x) 2) (pow (cos x) 2))")
    assert node_count(t) == 9


def test_parse_numbers_exact():
    assert parse_sexpr("3").op.value == 3
    assert parse_sexpr("-2").op.value == -2
    assert parse_sexpr("2.5").op.value * 2 == 5
    assert parse_sexpr("1/3").op.value * 3 == 1


def test_literal_value_lives_on_the_symbol():
    assert leaf("2") == number(2) and leaf("2").op is parse_sexpr("2.0").op
    assert leaf("true").op.value is True and leaf("false").op.value is False
    assert leaf("x").op.value is None and symbol("sin", 1).value is None
    assert leaf("3abc").op.value is None
    # Only numerals are left out of the candidate variables.
    assert variables(parse_sexpr("(+ x (- 1/2 (&& true y)))")) == {
        "x", "true", "y"}


def test_postorder_children_first_last_child_first():
    # Built from uninterned symbols: other tests intern "f" at arity 1.
    f, g = Symbol("f", 2), Symbol("g", 2)
    t = Term(f, (Term(g, (leaf("a"), leaf("b"))), leaf("c")))
    assert [print_sexpr(n) for n in postorder(t)] == [
        "c", "b", "a", "(g a b)", "(f (g a b) c)"]
    # A subterm shared by identity is yielded once; equal copies are not.
    shared = t.children[0]
    nodes = list(postorder(Term(f, (shared, shared))))
    assert len(nodes) == 4 and sum(n is shared for n in nodes) == 1
    copy = Term(g, (leaf("a"), leaf("b")))
    assert len(list(postorder(Term(f, (shared, copy))))) == 7
    chain = leaf("x")
    for _ in range(10_000):
        chain = term("neg", chain)
    nodes = list(postorder(chain))
    assert len(nodes) == 10_001 and nodes[0].op.name == "x"
    assert nodes[-1] is chain


def _walk_with_done(t, cut):
    """postorder(t, done), where done holds for cut and for each node once
    it is yielded: (the nodes yielded, the nodes done was asked about)."""
    yielded, asked = [], []

    def done(node):
        asked.append(node)
        return node is cut or any(node is n for n in yielded)

    for node in postorder(t, done):
        assert not any(node is n for n in yielded)
        yielded.append(node)
    return yielded, asked


def test_postorder_done_cuts_subtrees_and_yields_a_shared_node_once():
    f, g = Symbol("f", 2), Symbol("g", 1)
    t = Term(f, (Term(g, (Term(f, (leaf("a"), leaf("b"))),)),
                 Term(f, (leaf("c"), Term(g, (leaf("b"),))))))
    full = list(postorder(t))
    for cut in full:
        below = [n for n in postorder(cut) if n is not cut]
        yielded, asked = _walk_with_done(t, cut)
        # The default order, less the cut subtree.
        assert [id(n) for n in yielded] == [
            id(n) for n in full if not any(n is m for m in [cut, *below])]
        # A done node is neither yielded nor entered: none below it is met.
        assert any(n is cut for n in asked)
        assert not any(n is m for n in asked for m in below)
    # A shared node is entered once, then found done.
    shared = Term(g, (leaf("a"),))
    t = Term(f, (shared, Term(g, (shared,))))
    yielded, asked = _walk_with_done(t, None)
    assert [print_sexpr(n) for n in yielded] == ["a", "(g a)", "(g (g a))",
                                                 "(f (g a) (g (g a)))"]
    assert sum(n is shared for n in asked) == 2
    assert sum(n is shared.children[0] for n in asked) == 1


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


def test_the_first_collector_pause_collects_everything_first(monkeypatch):
    from types import SimpleNamespace

    from rewrite_arena import terms

    calls = []
    state = {"enabled": True}
    monkeypatch.setattr(terms, "gc", SimpleNamespace(
        isenabled=lambda: state["enabled"],
        disable=lambda: calls.append("disable") or state.update(enabled=False),
        enable=lambda: calls.append("enable") or state.update(enabled=True),
        collect=lambda: calls.append("collect")))
    monkeypatch.setattr(terms, "_COLLECTED", False)
    for _ in range(2):
        with terms.cyclic_gc_paused():
            with terms.cyclic_gc_paused():  # nested: leaves it paused
                assert not state["enabled"]
    assert calls == ["collect", "disable", "enable", "disable", "enable"]
    assert state["enabled"]
