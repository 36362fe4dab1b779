"""Patterns, guards, rules, matching, and exact constant folding.

A pattern is an ordinary term whose arity-0 leaves may be pattern variables
(spelled ``?a``).  Rules rewrite a matched subterm into an instantiated
right-hand side, optionally gated by a syntactic guard on the exact constant
the bound subterm folds to (constant_of, memoized on the term's nodes).
One-step rewrites of a term are enumerated in stochastic.py, which also
holds the `proposals` view.

Patterns are compiled, as egg compiles them, to straight-line Python
generated on first use.  A matcher tests op identity node by node (a
literal's value lives on its interned symbol) and binds or compares
variables; a builder constructs a right-hand side in post-order, each node
inline with its hash, not through Term.__init__.  From the same two
emitters a Ruleset compiles, per root operator, one rewriter that runs
every rule that can match there; candidate enumeration calls it at each
position.  match_pattern and instantiate run one pattern's matcher or
builder.  The e-graph compiles through the same helpers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

from .operators import OPERATORS
from .terms import (
    Term,
    TermError,
    Position,
    number,
    parse_sexpr,
    postorder,
    print_sexpr,
    replace_at,
    subterm_at,
    TRUE,
    FALSE,
)


class RuleError(TermError):
    pass


class UnboundVariableError(RuleError):
    pass


Substitution = dict[str, Term]


def is_pattern_var(t: Term) -> bool:
    return not t.children and t.op.name.startswith("?")


def pattern_vars(p: Term) -> set[str]:
    return {node.op.name for node in postorder(p) if is_pattern_var(node)}


def match_pattern(p: Term, t: Term) -> Substitution | None:
    """Match p against t at the root; returns bindings or None.

    Non-linear patterns (a variable occurring twice) require structurally
    equal bindings.
    """
    return _compiled(p, _MATCHER, _compile_matcher)(t)


def instantiate(p: Term, subst: Substitution) -> Term:
    """p with each pattern variable replaced by its binding in subst."""
    return _compiled(p, _BUILDER, _compile_builder)(subst)


# ---------------------------------------------------------------------------
# Compiled patterns.  Code is generated as source, exec-ed once on first use
# and kept by what it serves: a pattern term's own memo for one pattern's
# matcher or builder, the Ruleset for its per-root rewriters.  The e-graph
# compiles its e-matchers and appliers through _compiled and _define too.
# Suites rebuild equal rules case after case, so equal sources compile once.

_MATCHER = "rules.matcher"
_BUILDER = "rules.builder"
_compile = lru_cache(maxsize=4096)(compile)


def _compiled(pattern: Term, key: str, compile_function):
    memo = pattern._memo
    if memo is None:
        memo = pattern._memo = {}
    function = memo.get(key)
    if function is None:
        function = memo[key] = compile_function(pattern)
    return function


def _define(label: str, name: str, params: str, body: list[str], env: dict):
    """Exec `def name(params): body` with env as its globals; tracebacks
    name the code `<label>`."""
    source = "\n".join([f"def {name}({params}):", *body])
    exec(_compile(source, f"<{label}>", "exec"), env)
    # Popped, so the function and its globals form no cycle: reference
    # counting frees both with what holds the function.
    return env.pop(name)


def _emit_match(pattern: Term, env: dict, bound: dict[str, str],
                body: list[str], kids: list[str] | None = None) -> None:
    """Append to body, inside a `while True:`, the tests that match pattern
    at local t0 and `break` on failure.  An operator or literal node tests
    op identity, then unpacks its subterm's children; a variable's first
    occurrence binds its subterm in `bound`, each later one compares with
    `!=`.  Nodes go root first, then children last to first.  Given `kids`,
    t0's op is taken as tested and its children as unpacked there.
    """
    slots = 1  # locals t1, t2, ... hold the subterms under pattern nodes
    stack = ([(pattern, "t0")] if kids is None or is_pattern_var(pattern)
             else list(zip(pattern.children, kids)))
    while stack:
        p, t = stack.pop()
        if is_pattern_var(p):
            name = p.op.name
            if name in bound:
                body += [f"        if {bound[name]} != {t}:", "            break"]
            else:
                bound[name] = t
            continue
        op = f"S{len(env)}"
        env[op] = p.op
        body += [f"        if {t}.op is not {op}:", "            break"]
        if p.children:
            sub = [f"t{slots + i}" for i in range(len(p.children))]
            slots += len(sub)
            body.append(f"        {', '.join(sub)}, = {t}.children")
            stack.extend(zip(p.children, sub))


def _emit_build(pattern: Term, env: dict, bound: dict[str, str],
                body: list[str]) -> str:
    """Append to body the lines that build pattern in post-order; return
    its local.  A variable is read from its local in `bound` (one missing
    gets a new local there); a literal leaf is the pattern's own leaf.

    Each node is built inline, without a call to Term.__init__: a new
    Term gets its four slots, with the hash that __init__ would compute.
    The arity check is not emitted; it held when the pattern node was made
    with the same interned symbol and as many children.
    """
    env.update(Term=Term, new=object.__new__)
    done: list[str] = []  # locals of the finished subpatterns, a stack
    slots = 0  # locals c0, c1, ... hold the subterms built so far
    stack: list[tuple[Term, bool]] = [(pattern, False)]
    while stack:
        p, expanded = stack.pop()
        if is_pattern_var(p):
            name = p.op.name
            if name not in bound:
                bound[name] = f"c{slots}"
                slots += 1
            done.append(bound[name])
        elif not p.children:
            # A ground leaf root makes a cycle (term, memo, function,
            # globals, term) that only the cyclic collector frees.
            leaf = f"L{len(env)}"
            env[leaf] = p
            done.append(leaf)
        elif expanded:
            arity = len(p.children)
            kids = done[len(done) - arity:]
            del done[len(done) - arity:]
            op = f"S{len(env)}"
            env[op] = p.op
            cid = f"c{slots}"
            slots += 1
            hashes = "".join(f", {k}._hash" for k in kids)
            body += [f"        {cid} = new(Term)",
                     f"        {cid}.op = {op}",
                     f"        {cid}.children = ({', '.join(kids)},)",
                     f"        {cid}._hash = hash(({p.op.name!r}{hashes}))",
                     f"        {cid}._memo = None"]
            done.append(cid)
        else:
            stack.append((p, True))
            stack.extend((c, False) for c in reversed(p.children))
    return done[0]


def _compile_matcher(pattern: Term):
    """`match(t0)`: the substitution matching the pattern at t0, or None."""
    env: dict[str, object] = {}
    body = ["    while True:"]
    bound: dict[str, str] = {}
    _emit_match(pattern, env, bound, body)
    subst = ", ".join(f"{name!r}: {t}" for name, t in bound.items())
    body.append(f"        return {{{subst}}}")
    return _define(print_sexpr(pattern), "match", "t0", body, env)


def _compile_builder(pattern: Term):
    """`build(subst)`: the pattern with its variables replaced.

    Each variable loads its binding once, before anything is built, so
    the first missing one raises UnboundVariableError.
    """
    env: dict[str, object] = {"UnboundVariableError": UnboundVariableError}
    bound: dict[str, str] = {}
    builds: list[str] = []
    result = _emit_build(pattern, env, bound, builds)
    return _define(print_sexpr(pattern), "build", "subst", [
        "    try:", *[f"        {t} = subst[{name!r}]"
                     for name, t in bound.items()],
        *builds, f"        return {result}",
        "    except KeyError as missing:",
        "        raise UnboundVariableError(",
        "            f'unbound pattern variable {missing.args[0]}') from None"],
        env)


def _compile_rewriter(rules: tuple[Rule, ...], label: str):
    """`rewrite(t0)`: [(rule name, rewritten t0), ...] over rules, in order.

    rules share t0's root operator (Ruleset.rules_for_root), so it is not
    tested and its children are unpacked once.  Each rule is one block:
    its match, its guard through `Guard.passes`, its right-hand side.
    """
    env: dict[str, object] = {}
    arity = max((len(r.lhs.children) for r in rules), default=0)
    kids = [f"a{i}" for i in range(arity)]
    body = ["    out = []"]
    if kids:
        body.append(f"    {', '.join(kids)}, = t0.children")
    for rule in rules:
        bound: dict[str, str] = {}
        body.append("    while True:")
        _emit_match(rule.lhs, env, bound, body, kids)
        if rule.guard is not None:
            guard = f"G{len(env)}"
            env[guard] = rule.guard
            body += [f"        if not {guard}.passes({bound[rule.guard.var]}):",
                     "            break"]
        result = _emit_build(rule.rhs, env, bound, body)
        body += [f"        out.append(({rule.name!r}, {result}))",
                 "        break"]
    body.append("    return out")
    return _define(label, "rewrite", "t0", body, env)


# ---------------------------------------------------------------------------
# Exact constant folding (shared by guards, proposal folding, and analyses).

# Folded values are exact rationals or booleans.
Constant = Fraction | bool


def fold_node(op_name: str, args: list[Constant]):
    """Fold one operator over constant arguments; None if undefined/unknown."""
    kind, fold, _ = OPERATORS.get(op_name, (None, None, None))
    if fold is None or not all(isinstance(a, kind) for a in args):
        return None
    return fold(*args)


def constant_term(value: Constant) -> Term:
    if isinstance(value, bool):
        return TRUE if value else FALSE
    return number(value)


def fold_step(op_name: str, kids) -> Term | None:
    """The literal that op_name over literal kids folds to, else None."""
    values = []
    for k in kids:
        v = k.op.value
        if v is None:
            return None
        values.append(v)
    folded = fold_node(op_name, values)
    return None if folded is None else constant_term(folded)


_CONSTANT = "rules.constant"


def constant_of(t: Term) -> Constant | None:
    """The exact constant t folds to, const_fold(t).op.value, or None.

    A node with children keeps it in its memo under "rules.constant", next
    to cost entries keyed by models, as an e-class keeps its constant.  One
    iterative walk fills the nodes that have none, stopping at those that
    do; a leaf's constant is its symbol's value.
    """
    if not t.children:
        return t.op.value
    if t._memo is not None and _CONSTANT in t._memo:
        return t._memo[_CONSTANT]
    stack = [t]
    while stack:
        node = stack[-1]
        todo = [c for c in node.children if c.children and (
            c._memo is None or _CONSTANT not in c._memo)]
        if todo:
            stack += todo
            continue
        stack.pop()
        if node._memo is None:
            node._memo = {}
        # fold_node gives None for a None argument.
        node._memo[_CONSTANT] = fold_node(
            node.op.name, [constant_of(c) for c in node.children])
    return t._memo[_CONSTANT]


def const_fold(t: Term) -> Term:
    """Fold every constant subterm exactly; unfoldable parts are kept as-is."""
    if not t.children:
        return t
    done: dict[int, Term] = {}
    for node in postorder(t):
        if not node.children:
            done[id(node)] = node
            continue
        kids = tuple([done[id(c)] for c in node.children])
        folded = fold_step(node.op.name, kids)
        if folded is not None:
            done[id(node)] = folded
        elif all(k is c for k, c in zip(kids, node.children)):
            done[id(node)] = node
        else:
            done[id(node)] = Term(node.op, kids)
    return done[id(t)]


# ---------------------------------------------------------------------------
# Guards and rules.

@dataclass(frozen=True)
class Guard:
    """Syntactic side condition on one bound pattern variable.

    kind "nonzero": the bound term, after exact constant folding, is not the
    literal 0.  kind "literal": the bound term folds to a numeric literal.
    Both engines decide through `admits`, on the constant the bound term or
    class is known to equal (None when unknown): the e-graph reads its
    class's constant, `passes` the term's, memoized by constant_of.
    """

    kind: str
    var: str

    def __post_init__(self):
        if self.kind not in ("nonzero", "literal"):
            raise RuleError(f"unknown guard kind {self.kind!r}")

    def admits(self, constant: Constant | None) -> bool:
        # An isinstance test, not `== 0`: False == 0 in Python.
        rational = isinstance(constant, Fraction)
        if self.kind == "nonzero":
            return not (rational and constant == 0)
        return rational

    def passes(self, bound: Term) -> bool:
        return self.admits(constant_of(bound))


@dataclass(frozen=True)
class Rule:
    name: str
    lhs: Term
    rhs: Term
    guard: Guard | None = None

    def __post_init__(self):
        lvars = pattern_vars(self.lhs)
        missing = pattern_vars(self.rhs) - lvars
        if missing:
            raise RuleError(
                f"rule {self.name!r}: RHS variables {sorted(missing)} not bound by LHS"
            )
        if self.guard is not None and self.guard.var not in lvars:
            raise RuleError(
                f"rule {self.name!r}: guard variable {self.guard.var} not bound by LHS"
            )

    def __repr__(self):
        return f"Rule({self.name!r})"


class Ruleset:
    """Named ordered collection of rules with unique names."""

    def __init__(self, name: str, rules: list[Rule], fold_constants: bool = False):
        seen = set()
        for r in rules:
            if r.name in seen:
                raise RuleError(f"duplicate rule name {r.name!r}")
            seen.add(r.name)
        self.name = name
        self.rules = tuple(rules)
        self.fold_constants = fold_constants
        # Whether some rule can rewrite a leaf: one with a leaf LHS.
        self.rewrites_leaves = any(not r.lhs.children for r in self.rules)
        # Compiled rewriters by root op name, and by the rules they run.
        self._rewriters: dict[str, object] = {}
        self._by_rules: dict[tuple[Rule, ...], object] = {}

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def rules_for_root(self, op_name: str) -> tuple[Rule, ...]:
        """Rules whose LHS can possibly match a term headed by op_name."""
        return tuple(r for r in self.rules
                     if is_pattern_var(r.lhs) or r.lhs.op.name == op_name)

    def rewriter(self, op_name: str):
        """The compiled `rewrite(t)` for a term t headed by op_name: the
        results of rules_for_root(op_name) at t, as [(rule name, term),
        ...].  Roots with the same rules share one function."""
        rewrite = self._rewriters.get(op_name)
        if rewrite is None:
            rules = self.rules_for_root(op_name)
            rewrite = self._by_rules.get(rules) or _compile_rewriter(
                rules, f"rewrites of {op_name} in {self.name}")
            self._rewriters[op_name] = self._by_rules[rules] = rewrite
        return rewrite

    def __getstate__(self):
        # Generated functions do not pickle; a copy compiles its own.
        return {**self.__dict__, "_rewriters": {}, "_by_rules": {}}

    def __repr__(self):
        return f"Ruleset({self.name!r}, {len(self.rules)} rules)"


def apply_rule_at(rule: Rule, t: Term, pos: Position) -> Term | None:
    """Apply rule at pos, or None if the LHS or guard does not apply."""
    sub = subterm_at(t, pos)
    subst = match_pattern(rule.lhs, sub)
    if subst is None:
        return None
    if rule.guard is not None and not rule.guard.passes(subst[rule.guard.var]):
        return None
    return replace_at(t, pos, instantiate(rule.rhs, subst))


# ---------------------------------------------------------------------------
# Ruleset text format:
#   name: LHS => RHS [if nonzero(?v)]
#   name: LHS <=> RHS
# Patterns are s-expressions with ?v variables; ';' starts a comment.

def parse_rule_line(line: str) -> list[Rule]:
    if ":" not in line:
        raise RuleError(f"missing ':' in rule line: {line!r}")
    name, body = line.split(":", 1)
    name = name.strip()
    guard = None
    if " if " in body:
        body, guard_text = body.rsplit(" if ", 1)
        guard_text = guard_text.strip()
        if not guard_text.endswith(")") or "(" not in guard_text:
            raise RuleError(f"malformed guard {guard_text!r}")
        kind, var = guard_text[:-1].split("(", 1)
        guard = Guard(kind.strip(), var.strip())
    bidirectional = "<=>" in body
    sep = "<=>" if bidirectional else "=>"
    if sep not in body:
        raise RuleError(f"missing '=>' in rule line: {line!r}")
    lhs_text, rhs_text = body.split(sep, 1)
    lhs = parse_sexpr(lhs_text.strip())
    rhs = parse_sexpr(rhs_text.strip())
    rules = [Rule(name, lhs, rhs, guard)]
    if bidirectional:
        rules.append(Rule(name + "-rev", rhs, lhs, guard))
    return rules


def rule_line(rule: Rule) -> str:
    """One directed rule in the text format; parse_rule_line reads it back."""
    line = f"{rule.name}: {print_sexpr(rule.lhs)} => {print_sexpr(rule.rhs)}"
    if rule.guard is not None:
        line += f" if {rule.guard.kind}({rule.guard.var})"
    return line


def parse_ruleset(text: str, name: str = "ruleset",
                  fold_constants: bool = False) -> Ruleset:
    rules: list[Rule] = []
    for raw in text.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        rules.extend(parse_rule_line(line))
    return Ruleset(name, rules, fold_constants)
