"""Parametric integer-point counting with piecewise quasi-polynomial results.

Counting works by symbolic summation rather than generating functions:
counted dims are eliminated innermost-first; for each dim the lower bounds
are max-combined and the upper bounds min-combined by case-splitting into
pieces where one bound pair dominates, and the running weight polynomial is
summed across the dim's range in closed form (Bernoulli/Faulhaber power
sums, telescoped as S(ub) - S(lb-1)).  Each dominance cell also emits an
explicit empty-range piece contributing 0, so the pieces of a result always
partition the context; provably empty pieces are pruned.

One pairwise loop, `_merge`, joins pieces whose union is a single
conjunction.  Sums (`pqp_add`) use it to fold a zero piece into a neighbour
whose polynomial vanishes there; fusion (`fuse_piecewise`) uses it to merge
any pair whose polynomials agree on the absorbed domain.

This covers the constraint class used here (boxes, triangles, fixed indices
and mod-equalities after quotient splitting) and is validated against the
brute-force enumerator by the test suite.  Inputs outside the class raise
"unsupported: periodic count" instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm

import numpy as np

from .polyhedra import (
    EQ0, FALSE, GE0, MODEQ, AffineExpr, Constraint, Polyhedron, PolyhedronError,
    eq, ge, enumerate_points, guards_mask, implies, int_guard, is_empty,
    normalize_constraints, poly_values,
)

MAX_DEGREE = 6   # highest power of a variable that `faulhaber_sum` sums


class CountingError(ValueError):
    pass


class PeriodicCountError(CountingError):
    def __init__(self, detail):
        super().__init__(f"unsupported: periodic count ({detail})")


class DegreeOverflowError(CountingError):
    def __init__(self, degree, cap):
        super().__init__(f"degree overflow: {degree} exceeds cap {cap}")


class DomainError(CountingError):
    pass


class QuasiPolynomial:
    """Polynomial with exact rational coefficients over named variables.

    terms maps a monomial, a sorted tuple of (var, exponent) pairs, to its
    coefficient.  Restricted to true polynomials: integer-valuedness on the
    associated domain is a checked property, not a structural one.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        ts = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff != 0:
                ts[tuple(sorted(mono))] = coeff
        self.terms = ts

    @staticmethod
    def constant(c):
        return QuasiPolynomial({(): Fraction(c)})

    @staticmethod
    def var(name):
        return QuasiPolynomial({((name, 1),): Fraction(1)})

    @staticmethod
    def from_affine(e):
        ts = {((v, 1),): a for v, a in e.coeffs.items()}
        ts[()] = e.const
        return QuasiPolynomial(ts)

    def __eq__(self, other):
        return isinstance(other, QuasiPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, QuasiPolynomial):
            other = QuasiPolynomial.constant(other)
        ts = dict(self.terms)
        for m, c in other.terms.items():
            ts[m] = ts.get(m, Fraction(0)) + c
        return QuasiPolynomial(ts)

    def __sub__(self, other):
        if not isinstance(other, QuasiPolynomial):
            other = QuasiPolynomial.constant(other)
        return self + other * -1

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if not isinstance(other, QuasiPolynomial):
            s = Fraction(other)
            return QuasiPolynomial({m: c * s for m, c in self.terms.items()})
        ts = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for v, e in m2:
                    exps[v] = exps.get(v, 0) + e
                key = tuple(sorted(exps.items()))
                ts[key] = ts.get(key, Fraction(0)) + c1 * c2
        return QuasiPolynomial(ts)

    __rmul__ = __mul__

    def power(self, n):
        out = QuasiPolynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, mapping):
        """Replace each var of `mapping` by its QuasiPolynomial, all at once."""
        out = QuasiPolynomial()
        for m, c in self.terms.items():
            term = QuasiPolynomial({tuple((v, e) for v, e in m if v not in mapping): c})
            for v, e in m:
                if v in mapping:
                    term = term * mapping[v].power(e)
            out = out + term
        return out

    def rename(self, mapping):
        ts = {}
        for m, c in self.terms.items():
            key = tuple(sorted((mapping.get(v, v), e) for v, e in m))
            ts[key] = ts.get(key, Fraction(0)) + c
        return QuasiPolynomial(ts)

    def coeffs_in(self, var):
        """Decompose as sum_e coeff_e * var**e; returns {e: QuasiPolynomial}."""
        out = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.pop(var, 0)
            rest = tuple(sorted(exps.items()))
            out.setdefault(e, {})
            out[e][rest] = out[e].get(rest, Fraction(0)) + c
        return {e: QuasiPolynomial(ts) for e, ts in out.items()}

    def variables(self):
        out = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    def evaluate(self, binding):
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for var, e in m:
                val *= Fraction(binding[var]) ** e
            total += val
        return total

    def denominator_lcm(self):
        return lcm(*(c.denominator for c in self.terms.values())) if self.terms else 1

    def to_str(self, var_order=None):
        if not self.terms:
            return "0"
        order = list(var_order or [])

        def level(mono):
            lv = -1
            for var, _ in mono:
                if var in order:
                    lv = max(lv, order.index(var))
            return lv

        def mono_key(item):
            mono, _ = item
            return (level(mono), sum(e for _, e in mono), mono)

        parts = []
        for mono, coeff in sorted(self.terms.items(), key=mono_key):
            factors = []
            for var, e in sorted(mono, key=lambda ve: (order.index(ve[0]) if ve[0] in order else -1, ve[0])):
                factors.append(var if e == 1 else f"{var}^{e}")
            body = "*".join(factors)
            if not body:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}*{body}"
            parts.append(("-" if coeff < 0 else "+", text))
        sign, text = parts[0]
        out = ("-" if sign == "-" else "") + text
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    def __str__(self):
        return self.to_str()

    __repr__ = __str__


def int_poly(qp, scale):
    """scale*qp as an integer poly (see `polyhedra.int_form`); scale must
    clear every denominator."""
    terms = [(coeff * scale, mono) for mono, coeff in sorted(qp.terms.items())]
    assert all(c.denominator == 1 for c, _ in terms)
    return tuple((int(c), mono) for c, mono in terms)


@lru_cache(maxsize=None)
def _bernoulli_plus(n):
    """Bernoulli numbers with the B1 = +1/2 convention."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(1, 2)
    # recurrence over the minus convention, then flip sign of B1 (only n=1 differs)
    total = Fraction(0)
    for j in range(n):
        bj = _bernoulli_plus(j) if j != 1 else Fraction(-1, 2)
        total += comb(n + 1, j) * bj
    return -total / (n + 1) if n % 2 == 0 else Fraction(0)


@lru_cache(maxsize=None)
def _power_sum_coeffs(p):
    """Coefficients of S_p(X) = sum_{t=1..X} t^p by power 0..p+1."""
    out = [Fraction(0)] * (p + 2)
    for j in range(p + 1):
        out[p + 1 - j] += Fraction(comb(p + 1, j)) * _bernoulli_plus(j) / (p + 1)
    return tuple(out)


def power_sum(p, upper):
    """S_p(upper) where upper is a QuasiPolynomial; S_p(X) - S_p(X-1) = X^p."""
    coeffs = _power_sum_coeffs(p)
    out = QuasiPolynomial()
    acc = QuasiPolynomial.constant(1)
    for k, c in enumerate(coeffs):
        if k > 0:
            acc = acc * upper
        if c:
            out = out + acc * c
    return out


def faulhaber_sum(p, var, lb, ub):
    """Closed form of sum_{var=lb..ub} p, valid whenever ub >= lb.

    lb and ub are affine in the remaining variables; callers guard the
    ub >= lb condition with piece constraints.  Telescoping S(ub) - S(lb-1)
    keeps the identity exact for negative bounds as well.
    """
    if isinstance(lb, AffineExpr):
        lb = QuasiPolynomial.from_affine(lb)
    if isinstance(ub, AffineExpr):
        ub = QuasiPolynomial.from_affine(ub)
    out = QuasiPolynomial()
    for e, coeff in p.coeffs_in(var).items():
        if e > MAX_DEGREE:
            raise DegreeOverflowError(e, MAX_DEGREE)
        out = out + coeff * (power_sum(e, ub) - power_sum(e, lb - QuasiPolynomial.constant(1)))
    return out


# ---------------------------------------------------------------------------
# Piecewise quasi-polynomials


@dataclass(frozen=True)
class PiecewiseQuasiPolynomial:
    """Pairwise-disjoint (domain, polynomial) pieces over a shared context.

    Piece domains are dimensionless polyhedra over the context's dims plus
    params.  The pieces of every value built here partition the context, so
    evaluation inside the context always hits exactly one piece.
    """

    pieces: tuple
    context: Polyhedron

    def evaluate(self, binding):
        if not all(cc.satisfied(binding) for cc in self.context.constraints):
            raise DomainError(f"point outside the domain: {binding}")
        hits = [poly for dom, poly in self.pieces
                if all(cc.satisfied(binding) for cc in dom.constraints)]
        if not hits:
            raise DomainError(f"point not covered by any piece: {binding}")
        if len(hits) > 1:
            raise CountingError("pieces overlap; internal invariant broken")
        val = hits[0].evaluate(binding)
        if val.denominator != 1:
            raise CountingError(f"non-integer value {val} at {binding}")
        return int(val)

    @cached_property
    def lowered(self):
        """(context guards, ((guard, ...), s * poly, s) per piece) in the
        integer form of `polyhedra.int_form`."""
        return (tuple(map(int_guard, self.context.constraints)),
                tuple((tuple(map(int_guard, dom.constraints)),
                       int_poly(p, p.denominator_lcm()), p.denominator_lcm())
                      for dom, p in self.pieces))

    def evaluate_many(self, points, binding):
        """Vectorized evaluate over int point rows (columns = context.dims)."""
        points = np.asarray(points, dtype=np.int64)
        n = len(points)
        cols = {d: points[:, k] for k, d in enumerate(self.context.dims)}
        env = {p: int(v) for p, v in binding.items()}
        context, pieces = self.lowered
        if not np.all(guards_mask(context, cols, env)):
            raise DomainError("points outside the domain")
        out = np.zeros(n, dtype=np.int64)
        covered = np.zeros(n, dtype=bool)
        for guards, poly, scale in pieces:
            mask = np.broadcast_to(guards_mask(guards, cols, env), n)
            if not mask.any():
                continue
            if (covered & mask).any():
                raise CountingError("pieces overlap; internal invariant broken")
            covered |= mask
            acc = poly_values(poly, {d: c[mask] for d, c in cols.items()}, env)
            if scale != 1:
                if np.any(acc % scale):
                    raise CountingError("non-integer value in vectorized evaluation")
                acc = acc // scale
            out[mask] = acc
        if not covered.all():
            raise DomainError("points not covered by any piece")
        return out

    def single_polynomial(self):
        """The polynomial of the one piece when it has no guards, else None."""
        if len(self.pieces) != 1 or self.pieces[0][0].constraints:
            return None
        return self.pieces[0][1]

    def substitute(self, mapping, context):
        """This value at an affine image, over `context`'s points: each dim of
        this value's context becomes mapping[dim] (AffineExprs, all at once),
        and every piece keeps that context as guards, so an image outside it
        has none."""
        region = [c.substitute(mapping) for c in self.context.constraints]
        polys = {d: QuasiPolynomial.from_affine(e) for d, e in mapping.items()}
        names = context.dims + context.params
        return PiecewiseQuasiPolynomial(tuple(
            (Polyhedron.build((), names, [c.substitute(mapping) for c in dom.constraints] + region),
             poly.substitute(polys)) for dom, poly in self.pieces), context)

    def rename(self, mapping):
        pieces = tuple(
            (dom.rename(mapping), poly.rename(mapping)) for dom, poly in self.pieces)
        return PiecewiseQuasiPolynomial(pieces, self.context.rename(mapping))

    def to_str(self, var_order=None):
        if not self.pieces:
            return "0"
        if len(self.pieces) == 1 and not self.pieces[0][0].constraints:
            return self.pieces[0][1].to_str(var_order)
        rendered = []
        for dom, poly in self.pieces:
            guard = " and ".join(str(c) for c in dom.constraints) or "true"
            rendered.append(f"{poly.to_str(var_order)} if {guard}")
        return "{ " + "; ".join(rendered) + " }"

    __str__ = to_str
    __repr__ = to_str


def _restrict(poly, constraints):
    """Substitute the equality constraints of a region into the polynomial."""
    eqs = [c for c in constraints if c.kind == EQ0]
    work = poly
    for _ in range(len(eqs) + 1):
        live = [c for c in eqs if any(v in work.variables() for v in c.expr.coeffs)]
        done = True
        for c in live:
            units = [v for v, a in sorted(c.expr.coeffs.items()) if abs(a) == 1]
            if not units:
                continue
            var = next((u for u in units if u in work.variables()), units[0])
            rhs = c.expr.drop(var) * -c.expr.coeff(var)
            work = work.substitute({var: QuasiPolynomial.from_affine(rhs)})
            eqs = [k.substitute({var: rhs}) if var in k.expr.coeffs else k
                   for k in eqs if k is not c]
            done = False
            break
        if done:
            break
    return work


def _simplify_domain(dom, context):
    """Tighten to equalities and drop constraints implied by context + rest."""
    cons = list(dom.constraints)
    # pairwise tightening: e >= 0 becomes e = 0 when the context forces e <= 0
    tightened = []
    for i, c in enumerate(cons):
        if c.kind == GE0:
            rest = cons[:i] + cons[i + 1:] + list(context.constraints)
            if implies(rest + [c], ge(-c.expr)):
                tightened.append(eq(c.expr))
                continue
        tightened.append(c)
    cons = list(normalize_constraints(tightened))
    kept = []
    for i, c in enumerate(cons):
        rest = kept + cons[i + 1:] + list(context.constraints)
        if implies(rest, c):
            continue
        kept.append(c)
    return Polyhedron.build(dom.dims, dom.params, kept)


def _union_if_exact(da, db, context):
    """Single-conjunction union of two disjoint regions, or None.

    Candidate = constraints implied by both regions; it is accepted only if
    it adds no points beyond the two regions (checked by negation branches).
    """
    survivors = []
    seen = set()
    for c in list(da.constraints) + list(db.constraints):
        key = (c.kind, c.expr.key(), c.modulus, c.residue)
        if key in seen or c.kind == MODEQ:
            if c.kind == MODEQ:
                return None
            continue
        seen.add(key)
        if implies(list(da.constraints) + list(context.constraints), c) and \
           implies(list(db.constraints) + list(context.constraints), c):
            survivors.append(c)
    base = survivors + list(context.constraints)
    for ca in da.constraints:
        for na in ca.negations():
            for cb in db.constraints:
                for nb in cb.negations():
                    if not is_empty(base + [na, nb]):
                        return None
    return Polyhedron.build(da.dims, da.params, survivors)


def _live(pieces, context):
    """The pieces whose domain is not provably empty within the context."""
    return [(dom, poly) for dom, poly in pieces
            if not is_empty(dom.constraints + context.constraints)]


def _tidy(pieces, context):
    """Simplify each domain against the context and sort the pieces."""
    out = [(_simplify_domain(dom, context), poly) for dom, poly in pieces]
    out.sort(key=lambda dp: (len(dp[0].constraints), str(dp[0]), str(dp[1])))
    return out


def _merge(pieces, context, vanishes):
    """Let piece i absorb piece j while vanishes(P_i, P_j, D_j) holds and
    D_i ∪ D_j is one conjunction (i keeps its polynomial); then tidy."""
    pieces = list(pieces)
    changed = True
    while changed:
        changed = False
        for i in range(len(pieces)):
            for j in range(len(pieces)):
                if i == j:
                    continue
                (da, pa), (db, pb) = pieces[i], pieces[j]
                if not vanishes(pa, pb, db):
                    continue
                union = _union_if_exact(da, db, context)
                if union is None:
                    continue
                pieces[i] = (union, pa)
                del pieces[j]
                changed = True
                break
            if changed:
                break
    return _tidy(pieces, context)


def pqp_add(a, b):
    """Pointwise sum; a zero piece folds into a neighbour that vanishes on it."""
    if a.context != b.context:
        raise CountingError("cannot add piecewise values over different contexts")
    context = a.context
    pieces = []
    for da, pa in a.pieces:
        for db, pb in b.pieces:
            dom = Polyhedron.build(
                da.dims, tuple(dict.fromkeys(da.params + db.params)),
                list(da.constraints) + list(db.constraints))
            pieces.append((dom, pa + pb))

    def absorbs(pa, pb, db):
        return (pb.is_zero and not pa.is_zero and _restrict(
            pa, list(db.constraints) + list(context.constraints)).is_zero)

    return PiecewiseQuasiPolynomial(
        tuple(_merge(_live(pieces, context), context, absorbs)), context)


def pqp_constant(value, context):
    top = Polyhedron.build((), context.dims + context.params, [])
    return PiecewiseQuasiPolynomial(
        ((top, QuasiPolynomial.constant(value)),), context)


# ---------------------------------------------------------------------------
# count_points


def _unit_bounds(cons, var):
    """Split constraints on var into unit-coefficient lower/upper bound exprs."""
    lowers, uppers, rest = [], [], []
    for c in cons:
        a = c.expr.coeff(var)
        if a == 0:
            rest.append(c)
        elif c.kind == MODEQ:
            raise PeriodicCountError(f"mod constraint on {var}")
        elif abs(a) != 1:
            raise PeriodicCountError(f"non-unit coefficient {a} on {var}")
        elif a > 0:
            lowers.append(-(c.expr.drop(var)))   # var >= L
        else:
            uppers.append(c.expr.drop(var))      # var <= U
    return lowers, uppers, rest


def _dominance(bounds, k, direction):
    """Constraints making bounds[k] the max (lower) or min (upper) bound.

    Ties go to the earlier-listed bound, giving disjoint cells.
    """
    cons = []
    for m, other in enumerate(bounds):
        if m == k:
            continue
        if direction == "max":
            diff = bounds[k] - other
        else:
            diff = other - bounds[k]
        if m < k:
            diff = diff - AffineExpr.constant(1)  # strict against earlier bounds
        cons.append(ge(diff))
    return cons


def _term_to_total(cons, weight, params, context):
    """One summand term as a total piecewise value: the term's region keeps
    its weight, and disjoint complement cells (prefix negation) contribute 0.
    """
    pieces = [(Polyhedron.build((), params, cons), weight)]
    prefix = []
    for c in cons:
        if c.kind == MODEQ:
            raise PeriodicCountError("mod constraint in counted region")
        for branch in c.negations():
            pieces.append(
                (Polyhedron.build((), params, prefix + [branch]),
                 QuasiPolynomial()))
        prefix.append(c)
    return PiecewiseQuasiPolynomial(
        tuple(_tidy(_live(pieces, context), context)), context)


def count_points(p, context=None):
    """Piecewise quasi-polynomial counting the integer points of p.

    The result is over p's params.  `context` optionally restricts the
    parameter space; pieces provably empty within it are dropped and never
    contribute.

    Elimination keeps a list of summand terms (region, weight); regions of
    distinct terms may overlap after a dim is projected away, so the final
    piecewise result is assembled by totalizing each term with explicit
    zero cells and adding them, which restores disjoint pieces that cover
    the whole context.
    """
    if context is None:
        context = Polyhedron.build((), p.params, [])
    terms = [(list(p.constraints), QuasiPolynomial.constant(1))]
    if p.trivially_empty:
        terms = []

    def live(cons):
        return not is_empty(cons + list(context.constraints))

    for k in reversed(range(len(p.dims))):
        var = p.dims[k]
        new_terms = []
        for cons, weight in terms:
            cons = list(normalize_constraints(cons))
            if FALSE in cons:
                continue
            eqs = [c for c in cons if c.kind == EQ0 and c.expr.coeff(var) != 0]
            if eqs:
                c0 = min(eqs, key=lambda c: abs(c.expr.coeff(var)))
                a = c0.expr.coeff(var)
                if abs(a) != 1:
                    # c0 is normal: its coefficients have no common factor,
                    # so a does not divide them all and var is not integral
                    raise PeriodicCountError(f"equality with coefficient {abs(a)} on {var}")
                rhs = c0.expr.drop(var) * -a
                rest = []
                for c in cons:
                    if c is c0:
                        continue
                    if c.expr.coeff(var) == 0:
                        rest.append(c)
                    else:
                        rest.append(c.substitute({var: rhs}))
                w = weight.substitute({var: QuasiPolynomial.from_affine(rhs)})
                if live(rest):
                    new_terms.append((rest, w))
                continue

            lowers, uppers, rest = _unit_bounds(cons, var)
            if not lowers or not uppers:
                raise CountingError(f"unbounded iterator {var}")
            for li, lb in enumerate(lowers):
                lo_dom = _dominance(lowers, li, "max")
                for ui, ub in enumerate(uppers):
                    hi_dom = _dominance(uppers, ui, "min")
                    cell = rest + lo_dom + hi_dom + [ge(ub - lb)]
                    if live(cell):
                        new_terms.append(
                            (cell, faulhaber_sum(weight, var, lb, ub)))
        terms = new_terms

    result = None
    for cons, weight in terms:
        cons = list(normalize_constraints(cons))
        if FALSE in cons:
            continue
        t = _term_to_total(cons, weight, p.params, context)
        result = t if result is None else pqp_add(result, t)
    if result is None:
        top = Polyhedron.build((), p.params, [])
        result = PiecewiseQuasiPolynomial(((top, QuasiPolynomial()),), context)
    return result


# ---------------------------------------------------------------------------
# Algorithm: piecewise fusion


def _implied_equalities(cons):
    """Equalities hidden as opposing inequality pairs e >= 0, -e >= 0."""
    by_vec = {}
    for c in cons:
        if c.kind == GE0:
            by_vec[tuple(sorted(c.expr.coeffs.items()))] = c
    eqs = []
    for key, c in by_vec.items():
        other = by_vec.get(tuple(sorted((-c.expr).coeffs.items())))
        if other is not None and other.expr.const == -c.expr.const:
            eqs.append(Constraint(EQ0, c.expr))
    return eqs


def _difference_vanishes(diff, dom, context):
    """(P - P') restricted to dom is zero.

    Equalities (explicit or hidden as opposing inequality pairs) are
    substituted away.  What remains is a full-dimensional domain: with free
    extent symbols it contains arbitrarily large grids, so only the zero
    polynomial vanishes on it.  Literal domains are finite and get checked
    point by point instead, which is exact.
    """
    if diff.is_zero:
        return True
    cons = list(dom.constraints) + list(context.constraints)
    cons += _implied_equalities(cons)
    restricted = _restrict(diff, cons)
    if restricted.is_zero:
        return True
    sys = Polyhedron.build(context.dims, context.params,
                           dom.constraints + context.constraints)
    if sys.params:
        return False
    try:
        pts = enumerate_points(sys, {})
    except (PolyhedronError, MemoryError):   # box refused: too large or unbounded
        return False
    return all(
        diff.evaluate(dict(zip(sys.dims, (int(x) for x in row)))) == 0
        for row in pts)


def fuse_piecewise(t):
    """Merge pieces whose polynomials agree on a neighbour's domain.

    Piece (D, P) absorbs (D', P') when (P - P')|_{D'} = 0 and D ∪ D' has a
    single-conjunction representation; it is `_merge`, the loop that folds
    zero pieces in `pqp_add`, with any vanishing pair allowed.  Pieces that
    cannot fuse are kept.
    """
    return PiecewiseQuasiPolynomial(tuple(_merge(
        t.pieces, t.context,
        lambda pa, pb, db: _difference_vanishes(pa - pb, db, t.context))),
        t.context)
