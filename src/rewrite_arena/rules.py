"""Patterns, guards, rules, matching, and candidate generation.

A pattern is an ordinary term whose arity-0 leaves may be pattern variables
(spelled ``?a``).  Rules rewrite a matched subterm into an instantiated
right-hand side, optionally gated by a syntactic guard evaluated after exact
constant folding of the bound subterm.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .terms import (
    Term,
    TermError,
    Position,
    number,
    positions,
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
    out = set()
    stack = [p]
    while stack:
        node = stack.pop()
        if is_pattern_var(node):
            out.add(node.op.name)
        stack.extend(node.children)
    return out


def match_pattern(p: Term, t: Term) -> Substitution | None:
    """Match p against t at the root; returns bindings or None.

    Non-linear patterns (a variable occurring twice) require structurally
    equal bindings.
    """
    subst: Substitution = {}
    stack = [(p, t)]
    while stack:
        pp, tt = stack.pop()
        if is_pattern_var(pp):
            name = pp.op.name
            bound = subst.get(name)
            if bound is None:
                subst[name] = tt
            elif bound != tt:
                return None
            continue
        if pp.op is not tt.op or pp.value != tt.value:
            return None
        stack.extend(zip(pp.children, tt.children))
    return subst


def instantiate(p: Term, subst: Substitution) -> Term:
    if is_pattern_var(p):
        try:
            return subst[p.op.name]
        except KeyError:
            raise UnboundVariableError(f"unbound pattern variable {p.op.name}") from None
    if not p.children:
        return p
    return Term(p.op, tuple(instantiate(c, subst) for c in p.children), p.value)


# ---------------------------------------------------------------------------
# Exact constant folding (shared by guards, proposal folding, and analyses).

_ARITH_OPS = frozenset({"+", "-", "*", "/", "pow", "neg", "min", "max", "abs"})
_COMPARE_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})
_LOGIC_OPS = frozenset({"&&", "||", "!"})

FOLDABLE_OPS = _ARITH_OPS | _COMPARE_OPS | _LOGIC_OPS

# Folded values are exact rationals or booleans.
Constant = Fraction | bool


def fold_node(op_name: str, args: list[Constant]):
    """Fold one operator over constant arguments; None if undefined/unknown."""
    if op_name in _ARITH_OPS:
        if any(isinstance(a, bool) for a in args):
            return None
        if op_name == "+":
            return args[0] + args[1]
        if op_name == "-":
            return args[0] - args[1]
        if op_name == "*":
            return args[0] * args[1]
        if op_name == "/":
            return None if args[1] == 0 else args[0] / args[1]
        if op_name == "neg":
            return -args[0]
        if op_name == "min":
            return min(args)
        if op_name == "max":
            return max(args)
        if op_name == "abs":
            return abs(args[0])
        if op_name == "pow":
            base, exp = args
            if exp.denominator != 1 or abs(exp.numerator) > 64:
                return None
            if base == 0 and exp < 0:
                return None
            return base ** exp.numerator
    if op_name in _COMPARE_OPS:
        if any(isinstance(a, bool) for a in args):
            return None
        a, b = args
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                "==": a == b, "!=": a != b}[op_name]
    if op_name in _LOGIC_OPS:
        if not all(isinstance(a, bool) for a in args):
            return None
        if op_name == "&&":
            return args[0] and args[1]
        if op_name == "||":
            return args[0] or args[1]
        return not args[0]
    return None


def term_constant(t: Term) -> Constant | None:
    """Constant value of a literal leaf (numeral or true/false)."""
    if t.value is not None:
        return t.value
    if not t.children:
        if t.op.name == "true":
            return True
        if t.op.name == "false":
            return False
    return None


def constant_term(value: Constant) -> Term:
    if isinstance(value, bool):
        return TRUE if value else FALSE
    return number(value)


def const_fold(t: Term) -> Term:
    """Fold every constant subterm exactly; unfoldable parts are kept as-is."""
    if not t.children:
        return t
    # Post-order with an explicit stack, keyed by node identity.
    done: dict[int, Term] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        if not node.children:
            done[id(node)] = node
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
            continue
        kids = tuple(done[id(c)] for c in node.children)
        values = []
        for k in kids:
            v = term_constant(k)
            if v is None:
                break
            values.append(v)
        folded = None
        if len(values) == len(kids):
            folded = fold_node(node.op.name, values)
        if folded is not None:
            done[id(node)] = constant_term(folded)
        elif all(k is c for k, c in zip(kids, node.children)):
            done[id(node)] = node
        else:
            done[id(node)] = Term(node.op, kids, node.value)
    return done[id(t)]


# ---------------------------------------------------------------------------
# Guards and rules.

@dataclass(frozen=True)
class Guard:
    """Syntactic side condition on one bound pattern variable.

    kind "nonzero": the bound term, after exact constant folding, is not the
    literal 0.  kind "literal": the bound term folds to a numeric literal.
    """

    kind: str
    var: str

    def __post_init__(self):
        if self.kind not in ("nonzero", "literal"):
            raise RuleError(f"unknown guard kind {self.kind!r}")

    def passes(self, bound: Term) -> bool:
        folded = const_fold(bound)
        if self.kind == "nonzero":
            return not (folded.value == 0 if folded.value is not None else False)
        return folded.value is not None


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

    def without(self, *names: str) -> "Ruleset":
        drop = set(names)
        return Ruleset(self.name, [r for r in self.rules if r.name not in drop],
                       self.fold_constants)

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


class Proposal(NamedTuple):
    term: Term
    rule: str
    position: Position


FOLD_RULE_NAME = "fold"


def proposals(t: Term, ruleset: Ruleset) -> list[Proposal]:
    """All one-step rewrites of t, deduplicated by result term.

    Order is deterministic: position-major (preorder), rule-minor (ruleset
    order, then constant folding).  The identity is never proposed.
    """
    out: list[Proposal] = []
    seen: set[Term] = set()
    for pos, sub in positions(t):
        for rule in ruleset.rules_for_root(sub.op.name):
            subst = match_pattern(rule.lhs, sub)
            if subst is None:
                continue
            if rule.guard is not None and not rule.guard.passes(subst[rule.guard.var]):
                continue
            candidate = replace_at(t, pos, instantiate(rule.rhs, subst))
            if candidate == t or candidate in seen:
                continue
            seen.add(candidate)
            out.append(Proposal(candidate, rule.name, pos))
        if ruleset.fold_constants and sub.children:
            values = []
            for k in sub.children:
                v = term_constant(k)
                if v is None:
                    break
                values.append(v)
            if len(values) == len(sub.children):
                folded = fold_node(sub.op.name, values)
                if folded is not None:
                    candidate = replace_at(t, pos, constant_term(folded))
                    if candidate != t and candidate not in seen:
                        seen.add(candidate)
                        out.append(Proposal(candidate, FOLD_RULE_NAME, pos))
    return out


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
