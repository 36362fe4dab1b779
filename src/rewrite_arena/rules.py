"""Patterns, guards, rules, matching, and exact constant folding.

A pattern is an ordinary term whose arity-0 leaves may be pattern variables
(spelled ``?a``).  Rules rewrite a matched subterm into an instantiated
right-hand side, optionally gated by a syntactic guard on the exact constant
the bound subterm folds to (constant_of, memoized on the term's nodes).
One-step rewrites of a term are enumerated in stochastic.py, which also
holds the `proposals` view.

A Ruleset compiles, as egg compiles patterns, one rewriter per root
operator: straight-line Python, generated on first use, that runs every
rule that can match there (testing op identity node by node, building
each right-hand-side node inline with its hash), then, if the ruleset
folds, constant folding.  Every term-side rewrite of the stochastic engine
goes through it.  match_pattern, instantiate and apply_rule_at are plain
interpreters that share no code with it: the tests' reference.
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
    positions,
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
    equal bindings.  Variables bind in the rewriters' order: root first,
    then children last to first.
    """
    subst: Substitution = {}
    stack = [(p, t)]
    while stack:
        pp, tt = stack.pop()
        if is_pattern_var(pp):
            name = pp.op.name
            if name not in subst:
                subst[name] = tt
            elif subst[name] != tt:
                return None
        elif pp.op is not tt.op:
            return None
        else:
            stack.extend(zip(pp.children, tt.children))
    return subst


def instantiate(p: Term, subst: Substitution) -> Term:
    """p with each pattern variable replaced by its binding in subst; a
    literal leaf is the pattern's own leaf.  UnboundVariableError names
    the first missing variable, left to right."""
    for _, n in positions(p):
        if is_pattern_var(n) and n.op.name not in subst:
            raise UnboundVariableError(f"unbound pattern variable {n.op.name}")
    built: dict[int, Term] = {}
    for n in postorder(p):
        if n.children:
            built[id(n)] = Term(n.op, tuple([built[id(c)] for c in n.children]))
        else:
            built[id(n)] = subst[n.op.name] if is_pattern_var(n) else n
    return built[id(p)]


# ---------------------------------------------------------------------------
# Compiled rewriters, exec-ed once on first use and kept by the Ruleset.  The
# e-graph compiles its e-matchers and appliers through _define too.  Suites
# rebuild equal rules case after case, so equal sources compile once.

# The rule name a constant-folding step is proposed and traced under.
FOLD_RULE_NAME = "fold"

_compile = lru_cache(maxsize=4096)(compile)


def _define(label: str, name: str, params: str, body: list[str], env: dict):
    """Exec `def name(params): body` with env as its globals; tracebacks
    name the code `<label>`."""
    source = "\n".join([f"def {name}({params}):", *body])
    exec(_compile(source, f"<{label}>", "exec"), env)
    # Popped, so the function and its globals form no cycle: reference
    # counting frees both with what holds the function.
    return env.pop(name)


def _emit_match(pattern: Term, env: dict, bound: dict[str, str],
                body: list[str], kids: list[str]) -> None:
    """Append to body, inside a `while True:`, the tests that match pattern
    at local t0 and `break` on failure.  t0's op is taken as tested and its
    children as unpacked into `kids`.  Below it an operator or literal node
    tests op identity, then unpacks its subterm's children; a variable's
    first occurrence binds its subterm in `bound`, each later one compares
    with `!=`.  Nodes go root first, then children last to first.
    """
    slots = 1  # locals t1, t2, ... hold the subterms under pattern nodes
    stack = ([(pattern, "t0")] if is_pattern_var(pattern)
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
    its local.  A variable is read from its local in `bound`; a literal
    leaf is the pattern's own leaf.

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
            done.append(bound[p.op.name])
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
            # First child first, not as postorder: _compile_applier's order.
            stack.append((p, True))
            stack.extend((c, False) for c in reversed(p.children))
    return done[0]


def _compile_rewriter(rules: tuple[Rule, ...], label: str, fold: bool):
    """`rewrite(t0)`: [(rule name, rewritten t0), ...] over rules, in order,
    then (FOLD_RULE_NAME, literal) when `fold` and t0 folds to a literal.

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
    if fold:
        # Last, as constant names number env.  Roots with equal rules share
        # one rewriter, so t0's op is read at run time.
        env["fold_step"] = fold_step
        body += ["    if t0.children:",
                 "        folded = fold_step(t0.op.name, t0.children)",
                 "        if folded is not None:",
                 f"            out.append(({FOLD_RULE_NAME!r}, folded))"]
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


def _has_constant(node: Term) -> bool:
    return not node.children or (node._memo is not None
                                 and _CONSTANT in node._memo)


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
    for node in postorder(t, _has_constant):
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
            if r.name == FOLD_RULE_NAME and fold_constants:
                raise RuleError(f"rule name {r.name!r} is the constant-fold "
                                f"step's in a folding ruleset")
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
        results of rules_for_root(op_name), then any fold, at t, as
        [(rule name, term), ...].  Roots with the same rules share one."""
        rewrite = self._rewriters.get(op_name)
        if rewrite is None:
            rules = self.rules_for_root(op_name)
            rewrite = self._by_rules.get(rules) or _compile_rewriter(
                rules, f"rewrites of {op_name} in {self.name}",
                self.fold_constants)
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
