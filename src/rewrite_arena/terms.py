"""Immutable terms over interned symbols, plus s-expression I/O.

Terms are ordered trees: every node carries an operator symbol and a tuple of
children whose length equals the symbol's arity.  Leaves are arity-0 symbols
(named variables like ``x``, opaque atoms like ``A1``) or literals.  A
literal's value lives on its symbol: ``Symbol.value`` is the exact rational
of a numeral name, True or False for ``true`` and ``false``, and None for
every other name.  Numeral syntax is parsed here and nowhere else.  Terms are
immutable and structurally shared, so the rest of the system can copy spines
freely and cache per-node data.
"""
from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator

Position = tuple[int, ...]


class TermError(Exception):
    pass


class ParseError(TermError):
    """Malformed s-expression; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ArityError(TermError):
    pass


class InvalidPositionError(TermError):
    pass


class Symbol:
    """Interned operator symbol.  Equal names are the same object.

    `value` is the literal an arity-0 name denotes, else None.
    """

    __slots__ = ("name", "arity", "value")

    def __init__(self, name: str, arity: int):
        self.name = name
        self.arity = arity
        self.value = _literal_value(name) if arity == 0 else None

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.arity})"

    def __reduce__(self):
        return (symbol, (self.name, self.arity))


def _is_numeral_token(tok: str) -> bool:
    if not tok:
        return False
    body = tok[1:] if tok[0] in "+-" else tok
    if not body:
        return False
    return body[0].isdigit() or (body[0] == "." and len(body) > 1 and body[1].isdigit())


def _literal_value(name: str) -> Fraction | bool | None:
    if name == "true":
        return True
    if name == "false":
        return False
    if not _is_numeral_token(name):
        return None
    try:
        return Fraction(name)
    except (ValueError, ZeroDivisionError):
        return None


_INTERN: dict[str, Symbol] = {}
_INTERN_LOCK = threading.Lock()


def symbol(name: str, arity: int) -> Symbol:
    """Intern a symbol.  The first use of a name fixes its arity."""
    sym = _INTERN.get(name)
    if sym is not None:
        if sym.arity != arity:
            raise ArityError(
                f"symbol {name!r} already declared with arity {sym.arity}, got {arity}"
            )
        return sym
    with _INTERN_LOCK:
        sym = _INTERN.get(name)
        if sym is None:
            sym = Symbol(name, arity)
            _INTERN[name] = sym
        elif sym.arity != arity:
            raise ArityError(
                f"symbol {name!r} already declared with arity {sym.arity}, got {arity}"
            )
    return sym


def _numeral_name(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Term:
    """Immutable term node.  Compare structurally; hash is cached."""

    __slots__ = ("op", "children", "_hash", "_memo")

    def __init__(self, op: Symbol, children: tuple["Term", ...] = ()):
        if len(children) != op.arity:
            raise ArityError(
                f"symbol {op.name!r} has arity {op.arity}, got {len(children)} children"
            )
        self.op = op
        self.children = children
        self._hash = hash((op.name,) + tuple(c._hash for c in children))
        self._memo = None

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        # Iterative deep compare; symbols are interned so `is` suffices.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.op is not b.op:
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        return f"Term({print_sexpr(self)!r})"

    def __reduce__(self):
        # Serialize through the s-expression form: re-interns symbols on
        # load and keeps pickling iterative even for very deep chains.
        return (parse_sexpr, (print_sexpr(self),))


def term(op_name: str, *children: Term) -> Term:
    return Term(symbol(op_name, len(children)), tuple(children))


def leaf(name: str) -> Term:
    return Term(symbol(name, 0))


def number(value) -> Term:
    return Term(symbol(_numeral_name(Fraction(value)), 0))


TRUE = leaf("true")
FALSE = leaf("false")


def _parse_numeral(tok: str, offset: int) -> Term:
    value = _literal_value(tok)
    if value is None:
        raise ParseError(f"bad numeral {tok!r}", offset)
    return number(value)


def parse_sexpr(text: str) -> Term:
    """Parse one s-expression into a term.

    Atoms are symbols, variables, or decimal numerals; lists are
    ``(op child ...)``; whitespace-insensitive; ``;`` starts a line comment.
    """
    i = 0
    n = len(text)
    out: list[Term] = []
    # Stack of (open-paren offset, op token or None, children-so-far).
    stack: list[list] = []

    def emit(t: Term, offset: int):
        if stack:
            stack[-1][2].append(t)
        else:
            out.append(t)

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if out and not stack:
            raise ParseError("trailing content after expression", i)
        if ch == "(":
            stack.append([i, None, []])
            i += 1
            continue
        if ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", i)
            open_at, op_tok, kids = stack.pop()
            if op_tok is None:
                if kids:
                    raise ParseError("list must start with an operator symbol", open_at)
                raise ParseError("empty list", open_at)
            if _is_numeral_token(op_tok):
                raise ParseError(f"numeral {op_tok!r} cannot head a list", open_at)
            try:
                op = symbol(op_tok, len(kids))
            except ArityError as exc:
                raise ParseError(str(exc), open_at) from None
            emit(Term(op, tuple(kids)), open_at)
            i += 1
            continue
        start = i
        while i < n and not text[i].isspace() and text[i] not in "();":
            i += 1
        tok = text[start:i]
        if stack and stack[-1][1] is None and not stack[-1][2]:
            stack[-1][1] = tok
            continue
        if _is_numeral_token(tok):
            emit(_parse_numeral(tok, start), start)
        else:
            emit(Term(symbol(tok, 0)), start)
    if stack:
        raise ParseError("unclosed '('", stack[-1][0])
    if not out:
        raise ParseError("no expression found", i)
    return out[0]


def print_sexpr(t: Term) -> str:
    """Render a term with canonical single spacing; inverse of parse_sexpr."""
    tokens: list[str] = []
    # Work stack holds terms and literal ")" markers.
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            tokens.append(item)
            continue
        if not item.children:
            tokens.append(item.op.name)
        else:
            tokens.append("(")
            tokens.append(item.op.name)
            stack.append(")")
            stack.extend(reversed(item.children))
    buf: list[str] = []
    prev = None
    for tok in tokens:
        if prev is not None and prev != "(" and tok != ")":
            buf.append(" ")
        buf.append(tok)
        prev = tok
    return "".join(buf)


def _path(t: Term, pos: Position) -> list[Term]:
    """The nodes from t down to the subterm at pos, both included."""
    path = [t]
    for depth, idx in enumerate(pos):
        cur = path[-1]
        if idx < 0 or idx >= len(cur.children):
            raise InvalidPositionError(
                f"position {pos} invalid at depth {depth}: node {cur.op.name!r} "
                f"has {len(cur.children)} children"
            )
        path.append(cur.children[idx])
    return path


def subterm_at(t: Term, pos: Position) -> Term:
    return _path(t, pos)[-1]


def replace_at(t: Term, pos: Position, s: Term) -> Term:
    """New term equal to t except the subtree at pos is s."""
    path = _path(t, pos)
    for depth in range(len(pos) - 1, -1, -1):
        kids, idx = path[depth].children, pos[depth]
        s = Term(path[depth].op, kids[:idx] + (s,) + kids[idx + 1:])
    return s


def node_count(t: Term) -> int:
    """Total number of nodes, leaves included."""
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


def positions(t: Term) -> Iterator[tuple[Position, Term]]:
    """All (position, subterm) pairs in preorder; root first."""
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, node = stack.pop()
        yield pos, node
        for idx in range(len(node.children) - 1, -1, -1):
            stack.append((pos + (idx,), node.children[idx]))


def postorder(t: Term, done: Callable[[Term], bool] | None = None
              ) -> Iterator[Term]:
    """Each distinct node of t once, after its children, last child first.

    Shared subterms are yielded once, by identity.  The order is the one
    e-class ids follow when the e-graph adds a term.

    A node for which `done` holds is neither entered nor yielded.  A
    caller that passes `done` makes it hold for each node yielded, so a
    shared subterm comes once.
    """
    if done is None:
        seen: set[int] = set()

        def done(node):  # marks node on entry: it cannot recur until yielded
            return id(node) in seen or seen.add(id(node))

    stack: list[Term | None] = [t]
    while stack:
        node = stack.pop()
        if node is None:  # a marker: the node under it has its children done
            yield stack.pop()
        elif not done(node):
            stack += (node, None, *node.children)


def variables(t: Term) -> set[str]:
    """Names of arity-0 non-numeral leaves (candidate variables)."""
    return {node.op.name for node in postorder(t)
            if not node.children and not isinstance(node.op.value, Fraction)}


# Whether a pause has collected everything first (see cyclic_gc_paused).
_COLLECTED = False


@contextmanager
def cyclic_gc_paused():
    """Keep the cyclic garbage collector off for the block, or for each
    call of a function it decorates.

    Both engines allocate terms, e-nodes, match tuples and candidate lists
    by the hundred thousand and free them by reference counting; none of
    them forms a cycle.  With the collector on, that churn set off
    collections that walked every live container again and again: about a
    quarter of a saturation iteration on a 40-matrix chain, and up to a
    fifth of a stochastic chain.

    The block should drop what it allocated but does not keep before it
    ends: the young generation holds every container made while the
    collector was off, and the first collection after it resumes walks
    each one still alive.

    The first pause in a process collects everything first.  A run that
    spends nearly all its time paused would otherwise hardly ever collect
    again, and would keep the cyclic garbage made before it, such as the
    modules a re-import replaced, through all of its work.
    """
    global _COLLECTED
    if not gc.isenabled():
        yield
        return
    if not _COLLECTED:
        _COLLECTED = True
        gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
