"""Patterns, guards, rules, matching, and exact constant folding.

A pattern is an ordinary term whose arity-0 leaves may be pattern variables
(spelled ``?a``).  Rules rewrite a matched subterm into an instantiated
right-hand side, optionally gated by a syntactic guard evaluated after exact
constant folding of the bound subterm.  One-step rewrites of a term are
enumerated in stochastic.py, which also holds the `proposals` view.

Patterns are compiled, as egg compiles them: on first use, each pattern
becomes a straight-line Python function, generated as source and kept in
the pattern term's memo.  match_pattern runs a matcher that tests op
identity node by node (a literal's value lives on its interned symbol) and
binds or compares variables; instantiate runs a builder that constructs the
right-hand side in post-order.  The e-graph compiles its own e-matchers and
appliers through the same helpers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .operators import OPERATORS
from .terms import (
    Term,
    TermError,
    Position,
    number,
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
    try:
        match = p._memo[_MATCHER]
    except (TypeError, KeyError):  # no memo yet, or not compiled yet
        match = _compiled(p, _MATCHER, _compile_matcher)
    return match(t)


def instantiate(p: Term, subst: Substitution) -> Term:
    """p with each pattern variable replaced by its binding in subst."""
    try:
        build = p._memo[_BUILDER]
    except (TypeError, KeyError):  # no memo yet, or not compiled yet
        build = _compiled(p, _BUILDER, _compile_builder)
    return build(subst)


# ---------------------------------------------------------------------------
# Compiled patterns.  A pattern compiles once, on first use, to a
# straight-line Python function generated as source and exec-ed.  The
# pattern term keeps its functions in its own memo, so they live as long
# as the rule's terms.  The e-graph compiles its e-matchers and appliers
# through the same two helpers.  match_pattern and instantiate read the memo
# inline: a call through _compiled added about a fifth to each match.

_MATCHER = "rules.matcher"
_BUILDER = "rules.builder"


def _compiled(pattern: Term, key: str, compile_function):
    memo = pattern._memo
    if memo is None:
        memo = pattern._memo = {}
    function = memo.get(key)
    if function is None:
        function = memo[key] = compile_function(pattern)
    return function


def _define(pattern: Term, name: str, params: str, body: list[str],
            env: dict):
    """Exec `def name(params): body` with env as its globals."""
    source = "\n".join([f"def {name}({params}):", *body])
    exec(compile(source, f"<pattern {print_sexpr(pattern)}>", "exec"), env)
    # Popped, so the function and its globals form no cycle: reference
    # counting frees both with the pattern term.
    return env.pop(name)


def _compile_matcher(pattern: Term):
    """`match(t0)`: the substitution matching the pattern at t0, or None.

    The pairs (pattern node, subterm) are visited as a stack pops them:
    the root, then each node's children last to first.  An operator or
    literal node tests op identity, then unpacks the subterm's children; a variable's first occurrence binds its subterm, and each
    later one compares with `!=` against that binding.
    """
    env: dict[str, object] = {}
    body: list[str] = []
    bound: dict[str, str] = {}  # variable -> local holding its binding
    slots = 1  # locals t0, t1, ... hold the subterms under pattern nodes
    stack = [(pattern, "t0")]
    while stack:
        p, t = stack.pop()
        if is_pattern_var(p):
            name = p.op.name
            if name in bound:
                body.append(f"    if {bound[name]} != {t}:")
                body.append("        return None")
            else:
                bound[name] = t
            continue
        op = f"S{len(env)}"
        env[op] = p.op
        body.append(f"    if {t}.op is not {op}:")
        body.append("        return None")
        if p.children:
            kids = [f"t{slots + i}" for i in range(len(p.children))]
            slots += len(kids)
            body.append(f"    {', '.join(kids)}, = {t}.children")
            stack.extend(zip(p.children, kids))
    subst = ", ".join(f"{name!r}: {t}" for name, t in bound.items())
    body.append(f"    return {{{subst}}}")
    return _define(pattern, "match", "t0", body, env)


def _compile_builder(pattern: Term):
    """`build(subst)`: the pattern with its variables replaced.

    Each variable loads its binding once, in the order a left-to-right
    walk first meets it, so the first missing one raises
    UnboundVariableError.  Operator nodes are then built in post-order; a
    literal leaf is the pattern's own leaf, shared by every result.
    """
    env: dict[str, object] = {"Term": Term,
                              "UnboundVariableError": UnboundVariableError}
    loads: list[str] = []
    builds: list[str] = []
    bound: dict[str, str] = {}  # variable -> local holding its binding
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
                loads.append(f"        {bound[name]} = subst[{name!r}]")
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
            builds.append(f"    {cid} = Term({op}, ({', '.join(kids)},))")
            done.append(cid)
        else:
            stack.append((p, True))
            stack.extend((c, False) for c in reversed(p.children))
    body = []
    if loads:
        body += ["    try:", *loads,
                 "    except KeyError as missing:",
                 "        raise UnboundVariableError(",
                 "            f'unbound pattern variable {missing.args[0]}'"
                 ") from None"]
    body += [*builds, f"    return {done[0]}"]
    return _define(pattern, "build", "subst", body, env)


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
    class is known to equal (None when unknown).
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
        return self.admits(const_fold(bound).op.value)


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
        self._by_root: dict[str, tuple[Rule, ...]] = {}

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def rules_for_root(self, op_name: str) -> tuple[Rule, ...]:
        """Rules whose LHS can possibly match a term headed by op_name."""
        cached = self._by_root.get(op_name)
        if cached is None:
            cached = tuple(
                r for r in self.rules
                if is_pattern_var(r.lhs) or r.lhs.op.name == op_name
            )
            self._by_root[op_name] = cached
        return cached

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
    from .terms import parse_sexpr

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
