"""Structured tensor rules: text format, AST, and compressed summands.

A program is a set of rules (`A(i, j) := B(i, k) * C(k, j) * (0 <= i < N)`),
unique sets (`B_U(i, j) := ...`) describing the non-redundant region of each
tensor, and redundancy maps (`B_R(i, j, i', j') := ...`) sending redundant
coordinates to unique ones.  Compressed summands conjoin a rule summand with
the unique sets of its inputs, which is the object the rest of the pipeline
(counting, indexing, code generation) operates on.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace

from .polyhedra import (
    EQ0, FALSE, GE0, MODEQ, AffineExpr, Constraint, Polyhedron, _refine_box,
    eq, ge, implies, is_empty, modeq, normalize_constraints,
)

MAX_MOD_PIECES = 64


class SturError(ValueError):
    pass


class SturSyntaxError(SturError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Iterator:
    name: str
    position: int


@dataclass(frozen=True)
class SymbolicMod:
    """Mod-equality whose modulus or residue is a symbol, e.g. (j-i) % N = s.

    Parse- and print-only: compilation requires literal modulus and residue,
    so lowering one of these raises with a pointer at the offending symbol.
    """

    expr: AffineExpr
    modulus: object  # int or symbol name
    residue: object

    def rename(self, mapping):
        return SymbolicMod(self.expr.rename(mapping), self.modulus, self.residue)

    def variables(self):
        return self.expr.variables()

    def __str__(self):
        return f"(({self.expr}) % {self.modulus} = {self.residue})"


@dataclass(frozen=True)
class Access:
    tensor: str
    indices: tuple

    @property
    def index_names(self):
        return tuple(it.name for it in self.indices)

    def __str__(self):
        return f"{self.tensor}({', '.join(self.index_names)})"


@dataclass(frozen=True)
class Summand:
    output: Access
    inputs: tuple
    constraints: tuple
    iterators: tuple

    def symbols(self):
        names = set()
        for c in self.constraints:
            names |= c.variables()
        names -= {it.name for it in self.iterators}
        return tuple(sorted(names))

    @property
    def is_empty(self):
        return FALSE in self.constraints

    def literal_constraints(self):
        return tuple(c for c in self.constraints if isinstance(c, Constraint))


@dataclass(frozen=True)
class Rule:
    name: str
    summands: tuple


@dataclass(frozen=True)
class UniqueSet:
    tensor: str
    iters: tuple
    alternatives: tuple  # tuple of constraint tuples; one per union piece


@dataclass(frozen=True)
class RedundancyMap:
    tensor: str
    iters: tuple
    primed: tuple
    domain: tuple
    substitution: dict  # primed name -> AffineExpr over unprimed iters

    def __hash__(self):   # by value, so a map's lowered copy is cached by value
        return hash((self.tensor, self.iters, self.primed, self.domain,
                     tuple(sorted(self.substitution.items()))))


@dataclass(frozen=True)
class Program:
    rules: tuple
    unique_sets: dict
    redundancy_maps: dict
    # rule name -> (compressed summands, buffer registry), filled once by
    # `codegen.build_plan` and shared by the plans of every compression level
    compiled: dict = field(default_factory=dict, compare=False, repr=False)

    def rule(self, name):
        for r in self.rules:
            if r.name == name:
                return r
        raise SturError(f"no rule named {name!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#.*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<int>\d+)"
    r"|(?P<op>:=|<=|>=|[()*+%=<>;:,-])"
)

_REL = {"<", "<=", "=", ">", ">="}


def _tokenize(text):
    statements = []
    current = []
    for ln, line in enumerate(text.splitlines(), start=1):
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise SturSyntaxError(f"unexpected character {line[pos]!r}", ln, pos + 1)
            pos = m.end()
            kind = m.lastgroup
            if kind in ("ws", "comment"):
                continue
            value = m.group()
            if kind == "op" and value == ";":
                if current:
                    statements.append(current)
                    current = []
                continue
            current.append((kind, value, ln, m.start() + 1))
        if current:
            statements.append(current)
            current = []
    return statements


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def _err(self, message):
        if self.i < len(self.tokens):
            _, v, ln, col = self.tokens[self.i]
            raise SturSyntaxError(f"{message} (near {v!r})", ln, col)
        _, _, ln, col = self.tokens[-1]
        raise SturSyntaxError(f"{message} (at end of statement)", ln, col)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, 0, 0)

    def take(self, kind=None, value=None):
        k, v, _, _ = self.peek()
        if k is None or (kind and k != kind) or (value and v != value):
            self._err(f"expected {value or kind}")
        self.i += 1
        return v

    def at(self, value):
        return self.peek()[1] == value

    def done(self):
        return self.i >= len(self.tokens)

    # affine := ["-"] product (("+"|"-") product)*
    # product := INT ["*" atom] | atom ["*" INT] | "(" affine ")"
    def affine(self):
        expr = self.product(negate=self.at("-") and bool(self.take(value="-")))
        while self.at("+") or self.at("-"):
            op = self.take()
            expr = expr + self.product(negate=(op == "-"))
        return expr

    def product(self, negate=False):
        sign = -1 if negate else 1
        k, v, _, _ = self.peek()
        if v == "(":
            self.take(value="(")
            inner = self.affine()
            self.take(value=")")
            return inner * sign
        if k == "int":
            const = int(self.take("int"))
            if self.at("*"):
                self.take(value="*")
                atom = self.atom()
                return atom * (sign * const)
            return AffineExpr.constant(sign * const)
        if k == "name":
            name = self.take("name")
            if self.at("*"):
                self.take(value="*")
                k2, v2, _, _ = self.peek()
                if k2 == "name":
                    self._err(f"non-affine term {name}*{v2}")
                const = int(self.take("int"))
                return AffineExpr.var(name) * (sign * const)
            return AffineExpr.var(name) * sign
        self._err("expected an affine expression")

    def atom(self):
        k, v, _, _ = self.peek()
        if v == "(":
            self.take(value="(")
            inner = self.affine()
            self.take(value=")")
            return inner
        if k == "name":
            name = self.take("name")
            if self.at("*"):
                self._err(f"non-affine term {name}*...")
            return AffineExpr.var(name)
        self._err("expected a variable")

    def name_list(self):
        names = [self.take("name")]
        while self.at(","):
            self.take(value=",")
            names.append(self.take("name"))
        return names

    def constraint_body(self):
        """Inside parens: a (chained) comparison or a mod-equality."""
        first = self.affine()
        if self.at("%"):
            self.take(value="%")
            mk, mv, _, _ = self.peek()
            if mk not in ("int", "name"):
                self._err("expected a modulus")
            self.take()
            modulus = int(mv) if mk == "int" else mv
            self.take(value="=")
            rk, rv, _, _ = self.peek()
            if rk not in ("int", "name"):
                self._err("expected a residue")
            self.take()
            residue = int(rv) if rk == "int" else rv
            if isinstance(modulus, int) and isinstance(residue, int):
                if modulus <= 0:
                    self._err("modulus must be positive")
                return [modeq(first, modulus, residue)]
            return [SymbolicMod(first, modulus, residue)]
        out = []
        left = first
        seen_rel = False
        while self.peek()[1] in _REL:
            rel = self.take()
            right = self.affine()
            seen_rel = True
            if rel == "<":
                out.append(ge(right - left - AffineExpr.constant(1)))
            elif rel == "<=":
                out.append(ge(right - left))
            elif rel == "=":
                out.append(eq(left - right))
            elif rel == ">":
                out.append(ge(left - right - AffineExpr.constant(1)))
            else:
                out.append(ge(left - right))
            left = right
        if not seen_rel:
            self._err("expected a comparison operator")
        return out


def _first_appearance_iterators(accesses):
    order = []
    for acc in accesses:
        for name in acc:
            if name not in order:
                order.append(name)
    return {name: Iterator(name, pos) for pos, name in enumerate(order)}


def _parse_term(p):
    """factor ("*" factor)* -> (accesses as raw (tensor, names), constraints)."""
    accesses = []
    constraints = []
    while True:
        k, v, _, _ = p.peek()
        if k == "name":
            tensor = p.take("name")
            p.take(value="(")
            names = p.name_list()
            p.take(value=")")
            accesses.append((tensor, tuple(names)))
        elif v == "(":
            p.take(value="(")
            constraints.extend(p.constraint_body())
            p.take(value=")")
        else:
            p._err("expected a tensor access or a constraint")
        if p.at("*"):
            p.take(value="*")
            continue
        return accesses, constraints


def _parse_body(p):
    terms = [_parse_term(p)]
    while p.at("+"):
        p.take(value="+")
        terms.append(_parse_term(p))
    if not p.done():
        p._err("trailing input after statement")
    return terms


def _make_summand(head_name, head_iters, terms):
    summands = []
    for accesses, constraints in terms:
        by_name = _first_appearance_iterators([head_iters] + [n for _, n in accesses])
        output = Access(head_name, tuple(by_name[n] for n in head_iters))
        inputs = tuple(Access(t, tuple(by_name[n] for n in names))
                       for t, names in accesses)
        iterators = tuple(sorted(by_name.values(), key=lambda it: it.position))
        summands.append(Summand(output, inputs, tuple(constraints), iterators))
    return tuple(summands)


def parse_program(text):
    rules = []
    unique_sets = {}
    redundancy_maps = {}
    deferred = []  # headerless unique sets: iterator names come from rule accesses

    for tokens in _tokenize(text):
        p = _Parser(tokens)
        name = p.take("name")
        head = None
        if p.at("("):
            p.take(value="(")
            head = tuple(p.name_list())
            p.take(value=")")
        if p.at(":=") or p.at("=") or p.at(":"):
            p.take()
        else:
            p._err("expected ':=' after the head")

        if name.endswith("_U"):
            tensor = name[:-2]
            terms = _parse_body(p)
            alternatives = tuple(tuple(cs) for _, cs in terms)
            for accs, _ in terms:
                if accs:
                    raise SturError(f"unique set {name} may not contain accesses")
            if head is None:
                deferred.append((tensor, alternatives))
            else:
                unique_sets[tensor] = UniqueSet(tensor, head, alternatives)
        elif name.endswith("_R"):
            tensor = name[:-2]
            if head is None:
                p._err(f"redundancy map {name} needs an iterator list")
            plain = tuple(n for n in head if not n.endswith("'"))
            primed = tuple(n for n in head if n.endswith("'"))
            terms = _parse_body(p)
            if len(terms) != 1 or terms[0][0]:
                raise SturError(f"redundancy map {name} must be a single constraint term")
            domain, substitution = _split_redmap(terms[0][1], primed, name)
            redundancy_maps[tensor] = RedundancyMap(tensor, plain, primed, tuple(domain), substitution)
        else:
            terms = _parse_body(p)
            if head is None:
                p._err(f"rule {name} needs an iterator list")
            rules.append(Rule(name, _make_summand(name, head, terms)))

    program = Program(tuple(rules), unique_sets, redundancy_maps)
    for tensor, alternatives in deferred:
        iters = _infer_unique_iters(program, tensor)
        program.unique_sets[tensor] = UniqueSet(tensor, iters, alternatives)
    return program


def _split_redmap(constraints, primed, name):
    domain, substitution = [], {}
    for c in constraints:
        pv = sorted(v for v in c.variables() if v in primed)
        if not pv:
            domain.append(c)
            continue
        if not isinstance(c, Constraint) or c.kind != EQ0 or len(pv) != 1:
            raise SturError(f"{name}: cannot solve {c} for a primed iterator")
        var = pv[0]
        a = c.expr.coeff(var)
        if abs(a) != 1:
            raise SturError(f"{name}: primed iterator {var} has coefficient {a}")
        rhs = c.expr.drop(var) * (-1 if a > 0 else 1)
        if var in substitution:
            raise SturError(f"{name}: {var} is defined twice")
        substitution[var] = rhs
    return domain, substitution


def _infer_unique_iters(program, tensor):
    for rule in program.rules:
        for s in rule.summands:
            for acc in (s.output, *s.inputs):
                if acc.tensor == tensor:
                    return acc.index_names
    raise SturError(f"unknown identifier {tensor!r}: headerless unique set "
                    f"needs a rule access to name its iterators")


# ---------------------------------------------------------------------------
# Printer


def _constraint_text(c):
    if isinstance(c, SymbolicMod):
        return str(c)
    if c.kind == GE0:
        return f"({c.expr} >= 0)"
    if c.kind == EQ0:
        return f"({c.expr} = 0)"
    return f"(({c.expr}) % {c.modulus} = {c.residue})"


def _term_text(accesses, constraints):
    parts = [str(a) for a in accesses] + [_constraint_text(c) for c in constraints]
    return " * ".join(parts) if parts else "(0 >= 0)"


def print_program(p):
    lines = []
    for rule in p.rules:
        head = str(rule.summands[0].output)
        body = " + ".join(_term_text(s.inputs, s.constraints) for s in rule.summands)
        lines.append(f"{head} := {body}")
    for us in p.unique_sets.values():
        head = f"{us.tensor}_U({', '.join(us.iters)})"
        body = " + ".join(_term_text((), alt) for alt in us.alternatives)
        lines.append(f"{head} := {body}")
    for rm in p.redundancy_maps.values():
        head = f"{rm.tensor}_R({', '.join(rm.iters + rm.primed)})"
        subs = [eq(AffineExpr.var(v) - rm.substitution[v]) for v in sorted(rm.substitution)]
        lines.append(f"{head} := {_term_text((), tuple(rm.domain) + tuple(subs))}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Simplification and compressed-summand construction


def simplify_summand(s):
    """Set-preserving cleanup: dedupe, drop constant-true and implied
    constraints; a constant-false system collapses to a single marker."""
    literal = [c for c in s.constraints if isinstance(c, Constraint)]
    symbolic = tuple(c for c in s.constraints if isinstance(c, SymbolicMod))
    cons = list(normalize_constraints(literal))
    if is_empty(cons):
        return replace(s, constraints=(FALSE,))
    keep = list(cons)
    for idx in reversed(range(len(keep))):
        c = keep[idx]
        if c.kind == MODEQ:
            continue
        if implies(keep[:idx] + keep[idx + 1:], c):
            del keep[idx]
    return replace(s, constraints=tuple(keep) + symbolic)


def _renamed_alternatives(program, access):
    us = program.unique_sets.get(access.tensor)
    if us is None:
        return [()]
    if len(us.iters) != len(access.indices):
        raise SturError(
            f"unique set {access.tensor}_U has {len(us.iters)} iterators, "
            f"access {access} has {len(access.indices)}")
    mapping = dict(zip(us.iters, access.index_names))
    return [tuple(c.rename(mapping) for c in alt) for alt in us.alternatives]


def _literal_bounds(s, expr):
    """Integer range of expr over the summand's symbol-free constraint box."""
    dims = tuple(it.name for it in s.iterators)
    lits = [c for c in s.literal_constraints()
            if c.kind != MODEQ and not (c.expr.variables() - set(dims))]
    box = Polyhedron.build(dims, (), lits)
    if box.trivially_empty:
        return None
    lo, hi = _refine_box(box, {})
    vals_lo = expr.const
    vals_hi = expr.const
    for var, a in expr.coeffs.items():
        if var not in set(dims) or lo[var] is None or hi[var] is None:
            return None
        vals_lo += a * (lo[var] if a > 0 else hi[var])
        vals_hi += a * (hi[var] if a > 0 else lo[var])
    return vals_lo, vals_hi


def split_mod_constraints(s):
    """Replace each literal mod-equality with enumerated equality summands.

    (j - i) % 4 = 2 over a literal box j-i in [-3, 3] becomes the two
    summands j-i = 2 and j-i = -2.  Needs literal extents to bound the
    expression; symbolic moduli are rejected outright.
    """
    for c in s.constraints:
        if isinstance(c, SymbolicMod):
            raise SturError(
                f"symbolic modulus in {c}: bind it to a literal before compiling")
    mods = [c for c in s.literal_constraints() if c.kind == MODEQ]
    if not mods:
        return [s]
    c = mods[0]
    bounds = _literal_bounds(s, c.expr)
    if bounds is None:
        raise SturError(
            f"cannot bound ({c.expr}) under literal constraints; "
            f"periodic structure needs literal extents")
    lo, hi = bounds
    values = [v for v in range(lo, hi + 1) if v % c.modulus == c.residue % c.modulus]
    if len(values) > MAX_MOD_PIECES:
        raise SturError(f"periodic structure too wide ({len(values)} pieces)")
    out = []
    for val in values:
        rest = [k for k in s.constraints if k is not c]
        rest.append(eq(c.expr - AffineExpr.constant(val)))
        cand = simplify_summand(replace(s, constraints=tuple(rest)))
        if cand.is_empty:
            continue
        out.extend(split_mod_constraints(cand))
    return out


def build_compressed_summands(program, rule_name):
    """Rule summands conjoined with the unique sets of their inputs.

    Unique-set unions distribute (cartesian product across inputs), and
    literal mod-equalities are split into enumerated equality summands, so
    every returned summand is a pure conjunction ready for counting.
    The output tensor's own unique set is not conjoined here; output
    deduplication is the registry's concern.
    """
    rule = program.rule(rule_name)
    out = []
    for s in rule.summands:
        alt_lists = [_renamed_alternatives(program, acc) for acc in s.inputs]
        for combo in itertools.product(*alt_lists):
            extra = [c for alt in combo for c in alt]
            cand = simplify_summand(
                replace(s, constraints=tuple(s.constraints) + tuple(extra)))
            if cand.is_empty:
                continue
            out.extend(split_mod_constraints(cand))
    return out
