"""Minimal equality saturation: e-graph, e-matching, scheduling, extraction.

The e-graph keeps a union-find over e-class ids, a hashcons from canonical
e-nodes to classes, and a per-class constant analysis (an exact rational
or boolean).  Congruence repair is deferred: rebuild() re-canonicalizes
every node and merges congruent classes to a fixpoint, which is simple and
plenty fast at the graph sizes this package targets.  The saturation loop
and pulsing live in the runner, which drives run_iteration and extract.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .costs import CostModel
from .rules import (
    Rule,
    Ruleset,
    Substitution,
    constant_term,
    fold_node,
    is_pattern_var,
)
from .terms import Term, TermError

EClassId = int
ENode = tuple  # (Symbol, child EClassId, ...) -- children canonical at creation


class EGraphError(TermError):
    pass


class ExtractionError(EGraphError):
    pass


class EClass:
    __slots__ = ("nodes", "constant")

    def __init__(self):
        self.nodes: dict[ENode, None] = {}
        self.constant = None


class EGraph:
    def __init__(self):
        self._uf: list[EClassId] = []
        self.classes: dict[EClassId, EClass] = {}
        self.hashcons: dict[ENode, EClassId] = {}
        self.contradiction = False
        self.union_count = 0
        self._dirty = False

    # -- union-find ---------------------------------------------------------

    def find(self, a: EClassId) -> EClassId:
        uf = self._uf
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    def _fresh_class(self) -> EClassId:
        cid = len(self._uf)
        self._uf.append(cid)
        self.classes[cid] = EClass()
        return cid

    # -- analysis -----------------------------------------------------------

    def _make_constant(self, node: ENode):
        op = node[0]
        if len(node) == 1:
            name = op.name
            if name == "true":
                return True
            if name == "false":
                return False
            body = name[1:] if name[0] in "+-" else name
            if body and (body[0].isdigit() or body[0] == "."):
                try:
                    return Fraction(name)
                except (ValueError, ZeroDivisionError):
                    return None
            return None
        args = []
        for child in node[1:]:
            c = self.classes[self.find(child)].constant
            if c is None:
                return None
            args.append(c)
        return fold_node(op.name, args)

    def _join_into(self, cid: EClassId, constant) -> bool:
        """Join a constant into a class; True when the class learned it."""
        if constant is None:
            return False
        cls = self.classes[cid]
        if cls.constant is None:
            cls.constant = constant
            return True
        if cls.constant != constant:
            self.contradiction = True
        return False

    # -- construction ---------------------------------------------------------

    def add_enode(self, op_sym, child_ids) -> EClassId:
        node = (op_sym, *[self.find(c) for c in child_ids])
        existing = self.hashcons.get(node)
        if existing is not None:
            return self.find(existing)
        cid = self._fresh_class()
        self.classes[cid].nodes[node] = None
        self.hashcons[node] = cid
        if self._join_into(cid, self._make_constant(node)):
            self._dirty = True
        return cid

    def add_term(self, t: Term) -> EClassId:
        ids: dict[int, EClassId] = {}
        stack: list[tuple[Term, bool]] = [(t, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in ids:
                continue
            if expanded:
                ids[id(node)] = self.add_enode(
                    node.op, [ids[id(c)] for c in node.children])
            else:
                stack.append((node, True))
                for c in node.children:
                    stack.append((c, False))
        return ids[id(t)]

    # -- union and rebuild ------------------------------------------------------

    def union(self, a: EClassId, b: EClassId) -> EClassId:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        ca, cb = self.classes[ra], self.classes[rb]
        # Deterministic leader: larger class wins, ties go to the lower id.
        if (len(cb.nodes), -rb) > (len(ca.nodes), -ra):
            ra, rb = rb, ra
            ca, cb = cb, ca
        self._uf[rb] = ra
        ca.nodes.update(cb.nodes)
        self._join_into(ra, cb.constant)
        del self.classes[rb]
        self.union_count += 1
        self._dirty = True
        return ra

    def _canonicalize(self, node: ENode) -> ENode:
        if len(node) == 1:
            return node
        return (node[0], *[self.find(c) for c in node[1:]])

    def rebuild(self) -> None:
        """Restore congruence and analysis to a fixpoint.

        Each pass re-keys every node canonically (merging congruent
        classes), recomputes analysis joins, and materializes literal nodes
        for classes whose constant became known.
        """
        if not self._dirty:
            return
        while True:
            changed = False
            # Congruence pass: canonical keys, congruent classes merged.
            pairs = [(node, cid)
                     for cid, cls in self.classes.items()
                     for node in cls.nodes]
            self.hashcons = {}
            for node, cid in pairs:
                root = self.find(cid)
                canon = self._canonicalize(node)
                existing = self.hashcons.get(canon)
                if existing is None:
                    self.hashcons[canon] = root
                elif self.find(existing) != root:
                    self.union(existing, root)
                    changed = True
            for cid in list(self.classes.keys()):
                cls = self.classes.get(cid)
                if cls is None:
                    continue
                canon_nodes = {}
                for node in cls.nodes:
                    canon_nodes[self._canonicalize(node)] = None
                cls.nodes = canon_nodes
            # Analysis pass: recompute joins bottom-up and materialize
            # constants as literal leaf nodes.
            for cid in list(self.classes.keys()):
                cls = self.classes.get(cid)
                if cls is None:
                    continue
                for node in list(cls.nodes):
                    if self._join_into(self.find(cid), self._make_constant(node)):
                        changed = True
            for cid in list(self.classes.keys()):
                cls = self.classes.get(cid)
                if cls is None or cls.constant is None:
                    continue
                lit = constant_term(cls.constant)
                key = (lit.op,)
                owner = self.hashcons.get(key)
                if owner is None:
                    lit_id = self.add_enode(lit.op, [])
                    self.union(lit_id, cid)
                    changed = True
                elif self.find(owner) != self.find(cid):
                    self.union(owner, cid)
                    changed = True
            if not changed:
                break
        self._dirty = False

    # -- queries ------------------------------------------------------------

    def num_classes(self) -> int:
        return len(self.classes)

    def num_nodes(self) -> int:
        return sum(len(c.nodes) for c in self.classes.values())

    def constant_of(self, cid: EClassId):
        return self.classes[self.find(cid)].constant

    def represents(self, cid: EClassId, t: Term) -> bool:
        """True when the class contains t as a concrete tree."""
        memo: dict[tuple[EClassId, int], bool] = {}

        def visit(c: EClassId, node: Term) -> bool:
            c = self.find(c)
            key = (c, id(node))
            hit = memo.get(key)
            if hit is not None:
                return hit
            memo[key] = False
            ok = False
            for enode in self.classes[c].nodes:
                if enode[0] is not node.op or len(enode) - 1 != len(node.children):
                    continue
                if all(visit(child, kid)
                       for child, kid in zip(enode[1:], node.children)):
                    ok = True
                    break
            memo[key] = ok
            return ok

        return visit(cid, t)

    def copy(self) -> "EGraph":
        dup = EGraph.__new__(EGraph)
        dup._uf = list(self._uf)
        dup.classes = {}
        for cid, cls in self.classes.items():
            c2 = EClass()
            c2.nodes = dict(cls.nodes)
            c2.constant = cls.constant
            dup.classes[cid] = c2
        dup.hashcons = dict(self.hashcons)
        dup.contradiction = self.contradiction
        dup.union_count = self.union_count
        dup._dirty = self._dirty
        return dup

    # -- e-matching -----------------------------------------------------------

    def ematch(self, pattern: Term) -> list[tuple[Substitution, EClassId]]:
        """All matches of the pattern; variables bind canonical e-class ids."""
        results: list[tuple[dict, EClassId]] = []
        seen: set = set()
        if is_pattern_var(pattern):
            name = pattern.op.name
            for cid in self.classes:
                results.append(({name: cid}, cid))
            return results
        for cid in list(self.classes.keys()):
            if cid not in self.classes:
                continue
            for subst in self._match_class(pattern, cid, {}):
                key = (cid, tuple(sorted(subst.items())))
                if key not in seen:
                    seen.add(key)
                    results.append((subst, cid))
        return results

    def _match_class(self, pattern: Term, cid: EClassId, subst: dict):
        cid = self.find(cid)
        if is_pattern_var(pattern):
            name = pattern.op.name
            bound = subst.get(name)
            if bound is None:
                new = dict(subst)
                new[name] = cid
                yield new
            elif self.find(bound) == cid:
                yield subst
            return
        cls = self.classes.get(cid)
        if cls is None:
            return
        arity = len(pattern.children)
        for node in list(cls.nodes):
            if node[0] is not pattern.op or len(node) - 1 != arity:
                continue
            if arity == 0:
                yield subst
            else:
                yield from self._match_children(pattern.children, node, 1, subst)

    def _match_children(self, patterns, node, k, subst):
        if k > len(patterns):
            yield subst
            return
        for sub in self._match_class(patterns[k - 1], node[k], subst):
            yield from self._match_children(patterns, node, k + 1, sub)

    # -- rule application -------------------------------------------------------

    def guard_passes(self, rule: Rule, subst: Substitution) -> bool:
        if rule.guard is None:
            return True
        cls = self.classes[self.find(subst[rule.guard.var])]
        if rule.guard.kind == "nonzero":
            return not (isinstance(cls.constant, Fraction) and cls.constant == 0)
        return isinstance(cls.constant, Fraction)

    def add_instantiated(self, pattern: Term, subst: Substitution) -> EClassId:
        if is_pattern_var(pattern):
            return self.find(subst[pattern.op.name])
        child_ids = [self.add_instantiated(c, subst) for c in pattern.children]
        return self.add_enode(pattern.op, child_ids)


@dataclass
class RuleStats:
    match_limit: int
    ban_length: int
    banned_until: int = -1
    times_banned: int = 0
    matches_total: int = 0


class BackoffScheduler:
    """Ban rules that match too much; limit and ban length double on re-trigger."""

    def __init__(self, match_limit: int = 1000, ban_length: int = 5):
        self.match_limit = match_limit
        self.ban_length = ban_length
        self.stats: dict[str, RuleStats] = {}

    def _get(self, name: str) -> RuleStats:
        st = self.stats.get(name)
        if st is None:
            st = RuleStats(self.match_limit, self.ban_length)
            self.stats[name] = st
        return st

    def can_run(self, name: str, iteration: int) -> bool:
        # A ban at iteration i with length L covers iterations i+1 .. i+L.
        return iteration > self._get(name).banned_until

    def record(self, name: str, n_matches: int, iteration: int) -> bool:
        """Record match volume; True if the rule just got banned."""
        st = self._get(name)
        st.matches_total += n_matches
        if n_matches > st.match_limit:
            st.banned_until = iteration + st.ban_length
            st.match_limit *= 2
            st.ban_length *= 2
            st.times_banned += 1
            return True
        return False


@dataclass
class IterationReport:
    iteration: int
    matches: int
    applied: int
    unions: int
    nodes: int
    classes: int
    contradiction: bool
    banned: list[str] = field(default_factory=list)


def run_iteration(g: EGraph, ruleset: Ruleset, scheduler: BackoffScheduler,
                  iteration: int = 0) -> IterationReport:
    """One read-then-write saturation step over every unbanned rule.

    Matches are collected against the pre-iteration graph for all rules
    first (guards checked against the constant analysis at match time),
    then all right-hand sides are instantiated and unioned, then the graph
    is rebuilt once.
    """
    unions_before = g.union_count
    matched: list[tuple[Rule, Substitution, EClassId]] = []
    banned: list[str] = []
    total_matches = 0
    for rule in ruleset:
        if not scheduler.can_run(rule.name, iteration):
            banned.append(rule.name)
            continue
        hits = g.ematch(rule.lhs)
        total_matches += len(hits)
        if scheduler.record(rule.name, len(hits), iteration):
            # Newly banned: this iteration's matches are dropped too.
            banned.append(rule.name)
            continue
        for subst, root in hits:
            if g.guard_passes(rule, subst):
                matched.append((rule, subst, root))
    applied = 0
    for rule, subst, root in matched:
        new_id = g.add_instantiated(rule.rhs, subst)
        g.union(root, new_id)
        applied += 1
    g.rebuild()
    return IterationReport(
        iteration=iteration,
        matches=total_matches,
        applied=applied,
        unions=g.union_count - unions_before,
        nodes=g.num_nodes(),
        classes=g.num_classes(),
        contradiction=g.contradiction,
        banned=banned,
    )


# ---------------------------------------------------------------------------
# Extraction.

def extract(g: EGraph, root: EClassId, model: CostModel) -> tuple[Term, float]:
    """Minimum-cost concrete term represented by the root class.

    Folds the model's `_combine` over e-nodes to a fixpoint, keeping per
    class the best combined value and the e-node that reaches it.
    """
    if type(model)._combine is CostModel._combine:
        raise ExtractionError(f"{model!r} has no per-node cost rule; "
                              "check goal representation instead")
    combine, scalar, find = model._combine, model._scalar, g.find
    best: dict[EClassId, object] = {}
    best_node: dict[EClassId, ENode] = {}
    changed = True
    while changed:
        changed = False
        for cid, cls in g.classes.items():
            for node in cls.nodes:
                child_values = []
                for child in node[1:]:
                    value = best.get(find(child))
                    if value is None:
                        break
                    child_values.append(value)
                else:
                    value = combine(node[0].name, child_values)
                    prev = best.get(cid)
                    if prev is None or scalar(value) < scalar(prev):
                        best[cid] = value
                        best_node[cid] = node
                        changed = True
    root = find(root)
    if root not in best:
        raise ExtractionError("root class admits no finite-cost term")

    # Post-order over the chosen e-nodes, iterative so deep terms build.
    built: dict[EClassId, Term] = {}
    stack = [root]
    while stack:
        cid = stack[-1]
        if cid in built:
            stack.pop()
            continue
        node = best_node[cid]
        kids = [find(c) for c in node[1:]]
        missing = [k for k in kids if k not in built]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        # A numeral leaf carries its exact value, as parsed numerals do.
        value = None if kids else g._make_constant(node)
        built[cid] = Term(node[0], tuple(built[k] for k in kids),
                          value if isinstance(value, Fraction) else None)
    return built[root], scalar(best[root])
