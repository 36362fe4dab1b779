"""Built-in rulesets, written in the ruleset text format.

The trig and integration collections are curated: they contain every rule
the benchmark problems need, including the two division rules (written
here as recip and cancel) whose guards only check syntactic equality with
zero and therefore admit unsound derivations on terms like x - x.
"""
from __future__ import annotations

from .rules import Rule, Ruleset, parse_ruleset
from .terms import Term, leaf, symbol

ASSOC_TEXT = """
; reassociation of a product chain, both directions
assoc: (* (* ?a ?b) ?c) <=> (* ?a (* ?b ?c))
"""

_ALGEBRA_TEXT = """
; shared algebraic identities
add-comm: (+ ?a ?b) => (+ ?b ?a)
mul-comm: (* ?a ?b) => (* ?b ?a)
add-assoc: (+ (+ ?a ?b) ?c) <=> (+ ?a (+ ?b ?c))
mul-assoc: (* (* ?a ?b) ?c) <=> (* ?a (* ?b ?c))
add-zero: (+ ?a 0) => ?a
zero-add: (+ 0 ?a) => ?a
mul-one: (* ?a 1) => ?a
one-mul: (* 1 ?a) => ?a
mul-zero: (* ?a 0) => 0
zero-mul: (* 0 ?a) => 0
sub-zero: (- ?a 0) => ?a
sub-self: (- ?a ?a) => 0
double: (+ ?a ?a) => (* 2 ?a)
add-sub-assoc: (+ (- ?a ?b) ?c) => (+ ?a (- ?c ?b))
add-of-sub: (+ ?a (- ?b ?c)) => (- (+ ?a ?b) ?c)
sub-sub: (- (- ?a ?b) ?c) => (- ?a (+ ?b ?c))
sub-of-sub: (- ?a (- ?b ?c)) => (+ (- ?a ?b) ?c)
sub-neg: (- ?a (* -1 ?b)) => (+ ?a ?b)
add-neg: (+ ?a (* -1 ?b)) => (- ?a ?b)
neg-lift: (* ?a (* -1 ?b)) => (* -1 (* ?a ?b))
"""

TRIG_TEXT = _ALGEBRA_TEXT + """
; powers
pow4-split: (pow ?a 4) => (pow (pow ?a 2) 2)
diff-squares: (- (pow ?a 2) (pow ?b 2)) <=> (* (+ ?a ?b) (- ?a ?b))
diff-pow4: (- (pow ?a 4) (pow ?b 4)) => (* (+ (pow ?a 2) (pow ?b 2)) (- (pow ?a 2) (pow ?b 2)))
; trigonometric identities
pyth: (+ (pow (sin ?x) 2) (pow (cos ?x) 2)) => 1
pyth-sin: (pow (sin ?x) 2) <=> (- 1 (pow (cos ?x) 2))
pyth-cos: (pow (cos ?x) 2) <=> (- 1 (pow (sin ?x) 2))
tan-def: (tan ?x) <=> (/ (sin ?x) (cos ?x))
; division; the recip and cancel guards are only syntactic
recip: (/ ?b ?a) => (/ 1 (/ ?a ?b)) if nonzero(?b)
cancel: (/ (* ?a ?b) (* ?c ?b)) => (/ ?a ?c) if nonzero(?b)
div-self: (/ ?a ?a) => 1 if nonzero(?a)
zero-div: (/ 0 ?a) => 0
div-one: (/ ?a 1) => ?a
mul-div-cancel: (* ?b (/ ?a ?b)) => ?a if nonzero(?b)
div-mul-cancel: (/ (* ?a ?b) ?b) => ?a if nonzero(?b)
div-mul-cancel-left: (/ (* ?b ?a) ?b) => ?a if nonzero(?b)
div-div: (/ ?a (/ ?b ?c)) => (/ (* ?a ?c) ?b) if nonzero(?c)
pow2-div: (/ (pow ?a 2) ?a) => ?a if nonzero(?a)
sub-cancel-neg: (- (- ?a ?b) ?a) => (* -1 ?b)
"""

INTEGRATION_TEXT = _ALGEBRA_TEXT + """
; integrals are (int body var); derivatives are (d var body)
i-one: (int 1 ?x) => ?x
i-var: (int ?x ?x) => (/ (pow ?x 2) 2)
i-cos: (int (cos ?x) ?x) => (sin ?x)
i-sin: (int (sin ?x) ?x) => (* -1 (cos ?x))
i-sum: (int (+ ?f ?g) ?x) <=> (+ (int ?f ?x) (int ?g ?x))
i-diff: (int (- ?f ?g) ?x) <=> (- (int ?f ?x) (int ?g ?x))
i-const: (int ?c ?x) => (* ?c ?x) if literal(?c)
i-const-factor: (int (* ?c ?f) ?x) => (* ?c (int ?f ?x)) if literal(?c)
i-parts: (int (* ?a ?b) ?x) => (- (* ?a (int ?b ?x)) (int (* (d ?x ?a) (int ?b ?x)) ?x))
d-var: (d ?x ?x) => 1
d-const: (d ?x ?c) => 0 if literal(?c)
d-sum: (d ?x (+ ?a ?b)) => (+ (d ?x ?a) (d ?x ?b))
d-mul: (d ?x (* ?a ?b)) => (+ (* ?a (d ?x ?b)) (* ?b (d ?x ?a)))
d-sin: (d ?x (sin ?x)) => (cos ?x)
d-cos: (d ?x (cos ?x)) => (* -1 (sin ?x))
; division support for results like (* 2 (/ (pow x 2) 2))
mul-div-cancel: (* ?b (/ ?a ?b)) => ?a if nonzero(?b)
div-one: (/ ?a 1) => ?a
"""

HALIDE_TEXT = """
; inequality reasoning over min/max/+/- with boolean connectives
lt-max-split: (< (max ?a ?b) ?c) => (&& (< ?a ?c) (< ?b ?c))
lt-min-split: (< (min ?a ?b) ?c) => (|| (< ?a ?c) (< ?b ?c))
lt-to-max: (< ?a (max ?b ?c)) => (|| (< ?a ?b) (< ?a ?c))
lt-to-min: (< ?a (min ?b ?c)) => (&& (< ?a ?b) (< ?a ?c))
lt-add-same: (< ?a (+ ?a ?c)) => (< 0 ?c)
lt-add-same-flip: (< (+ ?a ?c) ?a) => (< ?c 0)
lt-sub: (< (- ?a ?b) ?a) => (< 0 ?b)
lt-add-cancel: (< (+ ?a ?b) (+ ?a ?c)) => (< ?b ?c)
le-min: (<= (min ?a ?b) ?a) => true
le-max: (<= ?a (max ?a ?b)) => true
eq-same: (== ?a ?a) => true
lt-total: (|| (< ?a ?b) (<= ?b ?a)) => true
max-add-push: (+ (max ?a ?b) ?c) <=> (max (+ ?a ?c) (+ ?b ?c))
min-add-push: (+ (min ?a ?b) ?c) <=> (min (+ ?a ?c) (+ ?b ?c))
max-comm: (max ?a ?b) => (max ?b ?a)
min-comm: (min ?a ?b) => (min ?b ?a)
max-same: (max ?a ?a) => ?a
min-same: (min ?a ?a) => ?a
add-comm: (+ ?a ?b) => (+ ?b ?a)
add-zero: (+ ?a 0) => ?a
zero-add: (+ 0 ?a) => ?a
and-true: (&& true ?a) => ?a
and-true-r: (&& ?a true) => ?a
and-false: (&& false ?a) => false
and-false-r: (&& ?a false) => false
or-true: (|| true ?a) => true
or-true-r: (|| ?a true) => true
or-false: (|| false ?a) => ?a
or-false-r: (|| ?a false) => ?a
"""


def assoc_ruleset() -> Ruleset:
    return parse_ruleset(ASSOC_TEXT, name="assoc")


def trig_ruleset() -> Ruleset:
    return parse_ruleset(TRIG_TEXT, name="trig")


def integration_ruleset() -> Ruleset:
    return parse_ruleset(INTEGRATION_TEXT, name="integration")


def halide_ruleset() -> Ruleset:
    return parse_ruleset(HALIDE_TEXT, name="halide", fold_constants=True)


def needle_ruleset(n: int) -> Ruleset:
    """The abstract needle system {a => b, b => a, f(b..b) => g(b..b)}.

    f and g have arity n; their symbols are suffixed with n so that needle
    systems of different arities can coexist in one interner.
    """
    a, b = leaf("a"), leaf("b")
    f = symbol(f"f{n}", n)
    g = symbol(f"g{n}", n)
    all_b = (b,) * n
    rules = [
        Rule("a-to-b", a, b),
        Rule("b-to-a", b, a),
        Rule("needle", Term(f, all_b), Term(g, all_b)),
    ]
    return Ruleset(f"needle{n}", rules)


_BUILTIN = {
    "assoc": assoc_ruleset,
    "trig": trig_ruleset,
    "integration": integration_ruleset,
    "halide": halide_ruleset,
}


def builtin_ruleset(name: str) -> Ruleset:
    if name.startswith("needle"):
        return needle_ruleset(int(name[len("needle"):]))
    try:
        return _BUILTIN[name]()
    except KeyError:
        raise KeyError(f"unknown ruleset {name!r}; "
                       f"known: {sorted(_BUILTIN)} and needleN") from None
