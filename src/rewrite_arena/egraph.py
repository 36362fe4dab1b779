"""Minimal equality saturation: e-graph, e-matching, scheduling, extraction.

The e-graph keeps a union-find over e-class ids, each class as a plain
list of its e-nodes, a hashcons from canonical e-nodes to classes, and a
constant analysis: a map from each class known to equal a constant (an
exact rational or boolean; a literal leaf's constant is its symbol's
value) to it.  Each e-node is stored after a hashcons miss, so between
rebuilds it is a hashcons key and sits once in one class.  Congruence
repair is deferred: rebuild() re-canonicalizes every node and merges
congruent classes to a fixpoint, skipping the last pass when the previous
one shows it would unite nothing.

E-matching and application follow egg's compiled patterns: each side of
a rule compiles once to generated straight-line Python, kept in the
pattern term's memo by _compiled and exec-ed through rules._define, which
also builds the stochastic engine's rewriters.  A left-hand
side becomes nested loops over class nodes with op, arity and
variable-equality tests that emit flat match tuples (root, v1, v2, ...);
a rule's right-hand side becomes one loop over those tuples that builds
it post-order, looking each e-node up in the hashcons before it makes a
class, and unions it into the match's root.  A missed root e-node goes
straight into the root's class, leaving the state such a union would.

ematch and represents need a rebuilt graph and raise EGraphError on one
with unions not yet repaired.  On a rebuilt graph each canonical e-node
sits in exactly one class, so every match is found once and represents is
a bottom-up hashcons lookup, egg's lookup_expr.

The saturation loop and pulsing live in the runner, which drives
run_iteration and extract.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .costs import CostModel
from .rules import (
    Rule,
    Ruleset,
    _define,
    constant_term,
    fold_node,
    is_pattern_var,
)
from .terms import Term, TermError, cyclic_gc_paused, postorder, print_sexpr

EClassId = int
ENode = tuple  # (Symbol, child EClassId, ...) -- children canonical at creation
Match = tuple  # (root EClassId, one EClassId per pattern variable)


class EGraphError(TermError):
    pass


class ExtractionError(EGraphError):
    pass


class EGraph:
    def __init__(self):
        self._uf: list[EClassId] = []
        self.classes: dict[EClassId, list[ENode]] = {}  # root -> its e-nodes
        self.hashcons: dict[ENode, EClassId] = {}
        self.constants: dict[EClassId, object] = {}  # root -> its constant
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

    # -- analysis -----------------------------------------------------------

    def _make_constant(self, node: ENode):
        op = node[0]
        if len(node) == 1:
            return op.value
        args = []
        uf, constants = self._uf, self.constants
        for child in node[1:]:
            if uf[child] != child:
                child = self.find(child)
            c = constants.get(child)
            if c is None:
                return None
            args.append(c)
        return fold_node(op.name, args)

    def _join_into(self, cid: EClassId, constant) -> bool:
        """Join a constant into a class; True when the class learned it."""
        if constant is None:
            return False
        known = self.constants.get(cid)
        if known is None:
            self.constants[cid] = constant
            return True
        if known != constant:
            self.contradiction = True
        return False

    # -- construction ---------------------------------------------------------

    def add_enode(self, op_sym, child_ids) -> EClassId:
        node = (op_sym, *[self.find(c) for c in child_ids])
        existing = self.hashcons.get(node)
        if existing is not None:
            return self.find(existing)
        return self._add_new(node)

    def _add_new(self, node: ENode) -> EClassId:
        """A new class holding a canonical node the hashcons lacks."""
        cid = len(self._uf)
        self._uf.append(cid)
        self.classes[cid] = [node]
        self.hashcons[node] = cid
        # Only a leaf, or a node whose first child holds a constant, folds.
        if len(node) == 1 or node[1] in self.constants:
            constant = self._make_constant(node)
            if constant is not None:
                self.constants[cid] = constant
                # Rebuild materializes the literal, unless node already is it.
                if len(node) > 1 or constant_term(constant).op is not node[0]:
                    self._dirty = True
        return cid

    def add_term(self, t: Term) -> EClassId:
        ids: dict[int, EClassId] = {}
        for node in postorder(t):
            ids[id(node)] = self.add_enode(
                node.op, [ids[id(c)] for c in node.children])
        return ids[id(t)]

    # -- union and rebuild ------------------------------------------------------

    def union(self, a: EClassId, b: EClassId) -> EClassId:
        uf = self._uf
        ra = a if uf[a] == a else self.find(a)
        rb = b if uf[b] == b else self.find(b)
        if ra == rb:
            return ra
        classes = self.classes
        ca, cb = classes[ra], classes[rb]
        # Deterministic leader: larger class wins, ties go to the lower id.
        # _compile_applier relies on it: a fresh one-node class always loses.
        if (len(cb), -rb) > (len(ca), -ra):
            ra, rb = rb, ra
            ca, cb = cb, ca
        uf[rb] = ra
        ca += cb
        self._join_into(ra, self.constants.pop(rb, None))
        del classes[rb]
        self.union_count += 1
        self._dirty = True
        return ra

    def _canonicalize(self, node: ENode) -> ENode:
        if len(node) == 1:
            return node
        uf = self._uf
        return (node[0], *[c if uf[c] == c else self.find(c) for c in node[1:]])

    def rebuild(self) -> None:
        """Restore congruence and analysis to a fixpoint.

        Each pass scans every node under its canonical key, uniting
        congruent classes; re-keys each class's nodes canonically, keeping
        the first of equal ones; recomputes analysis joins; and
        materializes literal nodes for classes whose constant became known
        (these two only while a class holds a constant).  Re-keying also
        builds the hashcons the next scan would build.  Unless that finds
        a canonical node in two classes or the analysis or literal step
        changed something, the next pass would unite nothing, so the
        hashcons is adopted and the fixpoint ends.  Finds, unions and
        insertions keep the order of the plain fixpoint, and so do leaders
        and node order: after a re-key that left a node in two classes, a
        merged list keeps one of each, so lengths are those of node sets.

        An id whose parent is a root is read without calling find, which
        would change nothing there.  A one-node class whose node the scan
        already keyed is merged in place, as union would merge it: the
        other class was scanned earlier, so its id is lower, and it holds
        a node, so it leads under union's rule.
        """
        if not self._dirty:
            return
        uf, find, union, canonicalize, join = (
            self._uf, self.find, self.union, self._canonicalize,
            self._join_into)
        classes, constants = self.classes, self.constants
        shared = False  # whether the last re-key left a node in two classes

        def unite(a: EClassId, b: EClassId) -> None:
            nodes = classes[union(a, b)]
            if shared:
                nodes[:] = dict.fromkeys(nodes)

        while True:
            # Congruence scan: canonical keys, congruent classes merged.
            # Unions here join classes scanned so far, so a class is united
            # no earlier than its own turn, and the copy taken then holds
            # the nodes it began the pass with: what union appends is skipped.
            hashcons = self.hashcons = {}
            setdefault = hashcons.setdefault
            for cid, nodes in list(classes.items()):
                for node in nodes[:]:
                    p = uf[cid]
                    root = p if uf[p] == p else find(cid)
                    key = node
                    if len(node) == 3:
                        _, a, b = node
                        pa, pb = uf[a], uf[b]
                        if pa != a or pb != b:
                            key = (node[0], pa if uf[pa] == pa else find(a),
                                   pb if uf[pb] == pb else find(b))
                    elif len(node) != 1:
                        key = canonicalize(node)
                    existing = setdefault(key, root)
                    if existing == root:
                        continue
                    p = uf[existing]
                    existing = p if uf[p] == p else find(existing)
                    if existing == root:
                        continue
                    if root == cid and len(nodes) == 1 and not shared:
                        uf[cid] = existing
                        classes[existing].append(node)
                        join(existing, constants.pop(cid, None))
                        del classes[cid]
                        self.union_count += 1
                    else:
                        unite(existing, root)
            # Canonical class lists, and the hashcons they key.
            adopt, held = {}, 0
            for cid, nodes in classes.items():
                canon = {}
                for node in nodes:
                    if len(node) == 3:
                        _, a, b = node
                        pa, pb = uf[a], uf[b]
                        if pa != a or pb != b:
                            node = (node[0], pa if uf[pa] == pa else find(a),
                                    pb if uf[pb] == pb else find(b))
                    elif len(node) != 1:
                        node = canonicalize(node)
                    canon[node] = None
                classes[cid] = list(canon)
                adopt.update(dict.fromkeys(canon, cid))
                held += len(canon)
            shared = len(adopt) < held
            # Analysis pass: recompute joins bottom-up and materialize
            # constants as literal leaf nodes.
            changed = False
            if constants:  # none now means none all through the rebuild
                for cid, nodes in classes.items():
                    for node in nodes:
                        if join(cid, self._make_constant(node)):
                            changed = True
                for cid in list(classes):
                    constant = constants.get(cid)
                    if constant is None:
                        continue
                    lit = constant_term(constant)
                    owner = hashcons.get((lit.op,))
                    if owner is None:
                        unite(self.add_enode(lit.op, []), cid)
                        changed = True
                    elif find(owner) != find(cid):
                        unite(owner, cid)
                        changed = True
            if not changed and not shared:
                self.hashcons = adopt
                break
        self._dirty = False

    # -- queries ------------------------------------------------------------

    def num_classes(self) -> int:
        return len(self.classes)

    def num_nodes(self) -> int:
        return sum(map(len, self.classes.values()))

    def represents(self, cid: EClassId, t: Term) -> bool:
        """True when the class contains t as a concrete tree.

        Looks t's nodes up in the hashcons bottom-up.  On a rebuilt graph
        its keys and classes are canonical, so a subterm is in some class
        exactly when this finds it.
        """
        if self._dirty:
            raise EGraphError("represents needs a rebuilt graph")
        lookup = self.hashcons.get
        ids: dict[int, EClassId] = {}
        for node in postorder(t):
            found = lookup((node.op, *[ids[id(c)] for c in node.children]))
            if found is None:
                return False
            ids[id(node)] = found
        return ids[id(t)] == self.find(cid)

    def copy(self) -> "EGraph":
        dup = EGraph.__new__(EGraph)
        dup._uf = list(self._uf)
        dup.classes = {cid: nodes[:] for cid, nodes in self.classes.items()}
        dup.hashcons = dict(self.hashcons)
        dup.constants = dict(self.constants)
        dup.contradiction = self.contradiction
        dup.union_count = self.union_count
        dup._dirty = self._dirty
        return dup

    # -- e-matching -----------------------------------------------------------

    def ematch(self, pattern: Term) -> list[Match]:
        """All matches (root, v1, v2, ...); variables, in the order of
        `matcher(pattern).names`, bind canonical e-class ids.

        Matches come in class order, then node order, then children left to
        right.  Each match is found exactly once: the bindings fix every
        pattern node's e-node bottom-up, and on a rebuilt graph the hashcons
        holds each canonical e-node in one class.
        """
        if self._dirty:
            raise EGraphError("ematch needs a rebuilt graph")
        return matcher(pattern)(self.classes, self.hashcons)

    # -- rule application -------------------------------------------------------

    def guarded(self, rule: Rule, hits: list[Match]) -> list[Match]:
        """The rule's matches whose guard admits its variable's class."""
        guard = rule.guard
        if guard is None:
            return hits
        at = matcher(rule.lhs).names.index(guard.var) + 1
        admits, constant, find = guard.admits, self.constants.get, self.find
        return [hit for hit in hits if admits(constant(find(hit[at])))]

    def add_instantiated(self, rule: Rule, hits: list[Match]) -> None:
        """Add the rule's rhs under each lhs match; union it into the root."""
        names = matcher(rule.lhs).names
        _compiled(rule.rhs, (_APPLIER, names),
                  lambda rhs: _compile_applier(names, rhs))(self, hits)


# ---------------------------------------------------------------------------
# Compiled patterns.  Each side of a rule compiles once, through rules._define,
# to a straight-line Python function kept in the pattern term's own memo.

_MATCHER = "egraph.matcher"
_APPLIER = "egraph.applier"

# Python allows 20 nested loops: one over classes, one per operator node.
MAX_PATTERN_OPERATORS = 19


def _compiled(pattern: Term, key, compile_function):
    memo = pattern._memo = pattern._memo or {}
    if key not in memo:
        memo[key] = compile_function(pattern)
    return memo[key]


def matcher(pattern: Term):
    """The pattern's compiled e-matcher; EGraphError if it cannot compile."""
    try:
        return _compiled(pattern, _MATCHER, _compile_matcher)
    except SyntaxError as exc:  # such as too many levels of indentation
        raise EGraphError(f"pattern {print_sexpr(pattern)} does not compile "
                          f"to an e-matcher: {exc.msg}") from None


def _compile_matcher(pattern: Term):
    """`match(classes, hashcons)`: all (root, v1, ...) matches, in order.

    The pattern is walked in pre-order.  An operator node loops over the
    nodes of its class and tests op identity and arity; a numeral or
    constant leaf tests that the hashcons puts its e-node in the class,
    which on a rebuilt graph is where the node is; a variable's first
    occurrence names the class it sits in, and each later one tests that
    class for equality.  Class ids in nodes are taken to be canonical.  The
    function's `names` lists the variables in that first-binding order.
    """
    env: dict[str, object] = {}
    body = ["    out = []", "    append = out.append"]
    depth = 1

    def emit(line: str) -> None:
        body.append("    " * depth + line)

    bound: dict[str, str] = {}  # variable -> local holding its class
    operators = 0
    slots = 1  # locals c0, c1, ... name the classes pattern nodes sit in
    emit("for c0, e0 in classes.items():" if pattern.children
         else "for c0 in classes:")
    depth += 1
    stack = [(pattern, "c0")]
    while stack:
        p, cls = stack.pop()
        if is_pattern_var(p):
            name = p.op.name
            if name in bound:
                emit(f"if {cls} == {bound[name]}:")
                depth += 1
            else:
                bound[name] = cls
        elif not p.children:
            key = f"K{len(env)}"
            env[key] = (p.op,)
            emit(f"if hashcons.get({key}) == {cls}:")
            depth += 1
        else:
            operators += 1
            if operators > MAX_PATTERN_OPERATORS:
                raise EGraphError(
                    f"pattern {print_sexpr(pattern)} has more than "
                    f"{MAX_PATTERN_OPERATORS} operator nodes")
            op, node = f"S{len(env)}", f"n{operators}"
            env[op] = p.op
            kids = [f"c{slots + i}" for i in range(len(p.children))]
            slots += len(kids)
            nodes = "e0" if p is pattern else f"classes[{cls}]"
            emit(f"for {node} in {nodes}:")
            emit(f"    if {node}[0] is {op} and len({node}) == {len(kids) + 1}:")
            depth += 2
            emit(f"_, {', '.join(kids)} = {node}")
            stack.extend(reversed(list(zip(p.children, kids))))
    emit(f"append(({', '.join(['c0', *bound.values()])},))")
    body.append("    return out")
    match = _define(print_sexpr(pattern), "match", "classes, hashcons", body,
                    env)
    match.names = tuple(bound)
    return match


def _compile_applier(names: tuple[str, ...], rhs: Term):
    """`apply(g, hits)`: per match (root, v1, ...), binding `names` in order,
    build rhs post-order and union it into the root when they differ.

    A variable makes its class canonical once; an operator node looks its
    e-node up in the hashcons and makes a new class only on a miss.  A
    missed root makes none, since that one-node class would lose union's
    leader tie: its id is reserved, pointing at the root, to key the node,
    which goes into the root's class with its constant, as one union.
    """
    env: dict[str, object] = {}
    slot = {name: f"v{i}" for i, name in enumerate(names)}
    body = ["    uf, find, add_new, union = g._uf, g.find, g._add_new, g.union",
            "    hashcons, classes, join = g.hashcons, g.classes, g._join_into",
            "    lookup, make_constant, added = hashcons.get, g._make_constant, 0",
            f"    for {', '.join(['r', *slot.values()])}, in hits:"]
    seen: set[str] = set()  # variables made canonical so far
    done: list[str] = []  # locals of the finished subpatterns, a stack
    slots = 0  # locals c0, c1, ... hold the classes built so far
    stack: list[tuple[Term, bool]] = [(rhs, False)]
    while stack:
        p, expanded = stack.pop()
        if is_pattern_var(p):
            cid = slot[p.op.name]
            if cid not in seen:
                seen.add(cid)
                body.append(f"        if uf[{cid}] != {cid}:")
                body.append(f"            {cid} = find({cid})")
            done.append(cid)
        elif expanded:
            arity = len(p.children)
            kids = done[len(done) - arity:]
            del done[len(done) - arity:]
            op = f"S{len(env)}"
            env[op] = p.op
            cid = f"c{slots}"
            slots += 1
            body += [f"        node = ({', '.join([op, *kids])},)",
                     f"        {cid} = lookup(node)",
                     f"        if {cid} is None:"]
            if p is not rhs:
                body.append(f"            {cid} = add_new(node)")
            else:  # the root: straight into r's class, as the docstring says
                folds = f"if {kids[0]} in g.constants: " if kids else ""
                body += ["            if uf[r] != r:", "                r = find(r)",
                         "            hashcons[node] = len(uf); uf.append(r)",
                         "            classes[r].append(node)",
                         f"            {folds}join(r, make_constant(node))",
                         "            added += 1", "            continue"]
            body += [f"        elif uf[{cid}] != {cid}:",
                     f"            {cid} = find({cid})"]
            done.append(cid)
        else:
            # First child first, not as postorder: the order fixes class ids.
            stack.append((p, True))
            stack.extend((c, False) for c in reversed(p.children))
    body += ["        if uf[r] != r:", "            r = find(r)",
             f"        if r != {done[0]}:", f"            union(r, {done[0]})",
             "    if added:", "        g.union_count += added",
             "        g._dirty = True"]
    return _define(print_sexpr(rhs), "apply", "g, hits", body, env)


@dataclass
class RuleStats:
    match_limit: int
    ban_length: int
    banned_until: int = -1
    times_banned: int = 0


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
    then each rule's right-hand sides are added and unioned in one applier
    loop, then the graph is rebuilt once.
    """
    with cyclic_gc_paused():
        unions_before = g.union_count
        matched: list[tuple[Rule, list[Match]]] = []
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
            matched.append((rule, g.guarded(rule, hits)))
        applied = 0
        for rule, hits in matched:
            g.add_instantiated(rule, hits)
            applied += len(hits)
        matched = hits = None  # freed before rebuild and the collector
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
    class the best combined value and the first e-node, in class then
    node order, to reach it.  Sweeps after the first skip a node none of
    whose children's classes improved since its own class's last turn:
    its value is the one it had then, which the class's best already
    matched, so it could not strictly improve the class.  The nodes a
    sweep does evaluate see the values the full sweep's would, so picks
    and tie-breaks are those of the full sweeps.
    """
    if not model.extractable:
        raise ExtractionError(f"{model!r} has no per-node cost rule; "
                              "check goal representation instead")
    combine, scalar, find, uf = model._combine, model._scalar, g.find, g._uf
    best: dict[EClassId, object] = {}
    best_node: dict[EClassId, ENode] = {}
    improved = [0] * len(uf)  # per class, the tick of its last improvement
    turn: dict[EClassId, int] = {}  # per class, the tick its last turn began
    tick = 0
    changed = True
    while changed:
        changed = False
        for cid, nodes in g.classes.items():
            since = turn.get(cid)
            turn[cid] = tick
            for node in nodes:
                if since is not None:
                    for child in node[1:]:
                        p = uf[child]
                        if improved[p if uf[p] == p else find(child)] > since:
                            break
                    else:
                        continue
                child_values = []
                for child in node[1:]:
                    p = uf[child]
                    value = best.get(p if uf[p] == p else find(child))
                    if value is None:
                        break
                    child_values.append(value)
                else:
                    value = combine(node[0].name, child_values)
                    prev = best.get(cid)
                    if prev is None or scalar(value) < scalar(prev):
                        best[cid] = value
                        best_node[cid] = node
                        tick += 1
                        improved[cid] = tick
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
        built[cid] = Term(node[0], tuple(built[k] for k in kids))
    return built[root], scalar(best[root])
