"""Exact-rational affine forms and parametric integer polyhedra.

The objects here are the substrate for everything else in the package:
iteration spaces, accessed index sets, preceding-access slices and the
piece domains of counting results are all `Polyhedron` values, i.e.
finite conjunctions of affine constraints over an ordered list of
dimensions plus a list of symbolic size parameters.

All arithmetic is done with `fractions.Fraction`; no floating point is
introduced anywhere.  Projection is rational Fourier-Motzkin elimination
with equality pre-substitution and integer tightening.  Because FM over
the rationals is not integer-exact in general, `image` records an
exactness flag and the test suite re-validates every projection used by
the kernel suite against the brute-force enumerator below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

GE0 = "ge0"    # expr >= 0
EQ0 = "eq0"    # expr == 0
MODEQ = "mod"  # expr ≡ residue (mod modulus)

EMPTY = "empty"
NONEMPTY = "nonempty"
UNKNOWN = "unknown"

# Safety valve for the brute-force enumerator.
MAX_BOX_POINTS = 80_000_000


class PolyhedronError(ValueError):
    pass


class UnboundedError(PolyhedronError):
    pass


class ModBlockedError(PolyhedronError):
    """A mod constraint prevented an elimination or projection."""


class AffineExpr:
    """Linear form sum(coeff_v * v) + const with exact rational entries."""

    __slots__ = ("coeffs", "const", "_key")

    def __init__(self, coeffs=None, const=0):
        cs = {}
        if coeffs:
            for v, a in coeffs.items():
                a = Fraction(a)
                if a != 0:
                    cs[v] = a
        self.coeffs = cs
        self.const = Fraction(const)
        self._key = None

    @staticmethod
    def var(name, coeff=1):
        return AffineExpr({name: Fraction(coeff)})

    @staticmethod
    def constant(c):
        return AffineExpr({}, c)

    def key(self):
        if self._key is None:
            self._key = (tuple(sorted(self.coeffs.items())), self.const)
        return self._key

    def __eq__(self, other):
        return isinstance(other, AffineExpr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __add__(self, other):
        if not isinstance(other, AffineExpr):
            other = AffineExpr.constant(other)
        cs = dict(self.coeffs)
        for v, a in other.coeffs.items():
            cs[v] = cs.get(v, Fraction(0)) + a
        return AffineExpr(cs, self.const + other.const)

    def __sub__(self, other):
        if not isinstance(other, AffineExpr):
            other = AffineExpr.constant(other)
        return self + (other * -1)

    def __mul__(self, scalar):
        s = Fraction(scalar)
        return AffineExpr({v: a * s for v, a in self.coeffs.items()}, self.const * s)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def coeff(self, v):
        return self.coeffs.get(v, Fraction(0))

    def drop(self, v):
        cs = dict(self.coeffs)
        cs.pop(v, None)
        return AffineExpr(cs, self.const)

    def substitute(self, mapping):
        """Replace variables by affine expressions (mapping: name -> AffineExpr)."""
        out = AffineExpr.constant(self.const)
        for v, a in self.coeffs.items():
            if v in mapping:
                out = out + mapping[v] * a
            else:
                out = out + AffineExpr({v: a})
        return out

    def rename(self, mapping):
        return AffineExpr({mapping.get(v, v): a for v, a in self.coeffs.items()}, self.const)

    def evaluate(self, binding):
        val = self.const
        for v, a in self.coeffs.items():
            val += a * binding[v]
        return val

    def variables(self):
        return set(self.coeffs)

    @property
    def is_constant(self):
        return not self.coeffs

    def scaled_integer(self):
        """Return (expr * k, k) with k > 0 minimal such that all entries are integers."""
        k = lcm(*(f.denominator for f in list(self.coeffs.values()) + [self.const])) if (self.coeffs or self.const) else 1
        return self * k, k

    def __str__(self):
        parts = []
        for v, a in sorted(self.coeffs.items()):
            if a == 1:
                t = v
            elif a == -1:
                t = "-" + v
            else:
                t = f"{a}*{v}"
            parts.append(t)
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


@dataclass(frozen=True)
class Constraint:
    """kind GE0: expr >= 0; EQ0: expr == 0; MODEQ: expr ≡ residue (mod modulus)."""

    kind: str
    expr: AffineExpr
    modulus: int = 0
    residue: int = 0

    def variables(self):
        return self.expr.variables()

    def rename(self, mapping):
        return Constraint(self.kind, self.expr.rename(mapping), self.modulus, self.residue)

    def substitute(self, mapping):
        return Constraint(self.kind, self.expr.substitute(mapping), self.modulus, self.residue)

    def satisfied(self, binding):
        val = self.expr.evaluate(binding)
        if self.kind == GE0:
            return val >= 0
        if self.kind == EQ0:
            return val == 0
        return val % self.modulus == self.residue % self.modulus

    def negations(self):
        """Integer complement as a list of alternative constraints (a disjunction)."""
        if self.kind == GE0:
            return [Constraint(GE0, -self.expr - AffineExpr.constant(1))]
        if self.kind == EQ0:
            return [Constraint(GE0, self.expr - AffineExpr.constant(1)),
                    Constraint(GE0, -self.expr - AffineExpr.constant(1))]
        raise ModBlockedError("cannot negate a mod constraint")

    def __str__(self):
        if self.kind == GE0:
            return f"{self.expr} >= 0"
        if self.kind == EQ0:
            return f"{self.expr} = 0"
        return f"({self.expr}) % {self.modulus} = {self.residue}"

    __repr__ = __str__


def affine_columns(expr, cols, binding, n):
    """Integer values of k*expr over n rows, and k (as in `scaled_integer`).

    Variables found in `cols` (name -> int64 column) vary per row; every
    other variable is read from `binding`.
    """
    scaled, k = expr.scaled_integer()
    vals = np.full(n, int(scaled.const), dtype=np.int64)
    for v, a in scaled.coeffs.items():
        vals += int(a) * (cols[v] if v in cols else int(binding[v]))
    return vals, k


def constraints_mask(constraints, cols, binding, n):
    """Rows of `cols` (see `affine_columns`) that satisfy every constraint."""
    mask = np.ones(n, dtype=bool)
    for c in constraints:
        vals, _ = affine_columns(c.expr, cols, binding, n)
        if c.kind == GE0:
            mask &= vals >= 0
        elif c.kind == EQ0:
            mask &= vals == 0
        else:
            mask &= vals % c.modulus == c.residue % c.modulus
    return mask


def ge(expr):
    return Constraint(GE0, expr)


def eq(expr):
    return Constraint(EQ0, expr)


def modeq(expr, modulus, residue):
    if modulus <= 0:
        raise PolyhedronError(f"mod constraint needs a positive modulus, got {modulus}")
    return Constraint(MODEQ, expr, int(modulus), int(residue) % int(modulus))


# A constant-false marker used when normalization detects infeasibility.
FALSE = Constraint(GE0, AffineExpr.constant(-1))


def normalize_constraint(c):
    """Canonical integer form; returns None for constant-true, FALSE for constant-false."""
    expr, _ = c.expr.scaled_integer()
    if c.kind == MODEQ:
        m = c.modulus
        # symmetric residues keep banded expressions like j - i recognizable
        coeffs = {v: (int(a) % m) - (m if int(a) % m > m // 2 else 0)
                  for v, a in expr.coeffs.items()}
        const = int(expr.const) % m
        e = AffineExpr(coeffs, const)
        r = c.residue % m
        if e.is_constant:
            return None if const % m == r else FALSE
        return Constraint(MODEQ, e, m, r)
    if expr.is_constant:
        v = expr.const
        ok = v >= 0 if c.kind == GE0 else v == 0
        return None if ok else FALSE
    g = gcd(*(abs(int(a)) for a in expr.coeffs.values()))
    if c.kind == EQ0:
        if int(expr.const) % g != 0:
            return FALSE  # equality has no integer solution
        expr = expr * Fraction(1, g)
        lead = expr.coeffs[min(expr.coeffs)]
        if lead < 0:
            expr = -expr
        return Constraint(EQ0, expr)
    # GE0: divide by the gcd of the variable coefficients, flooring the constant.
    expr = AffineExpr({v: a / g for v, a in expr.coeffs.items()}, Fraction(int(expr.const) // g))
    return Constraint(GE0, expr)


def _prune_parallel(cons):
    """Drop GE0 constraints dominated by a parallel one (same coefficient vector)."""
    best = {}
    out = []
    for c in cons:
        if c.kind != GE0:
            out.append(c)
            continue
        key = tuple(sorted(c.expr.coeffs.items()))
        prev = best.get(key)
        if prev is None or c.expr.const < prev.expr.const:
            best[key] = c
    eq_vecs = {}
    for c in cons:
        if c.kind == EQ0:
            # expr = V + k = 0 fixes the var part: value(V) = -k, value(-V) = k
            eq_vecs[tuple(sorted(c.expr.coeffs.items()))] = -c.expr.const
            eq_vecs[tuple(sorted((-c.expr).coeffs.items()))] = c.expr.const
    final = []
    for c in cons:
        if c.kind != GE0:
            final.append(c)
            continue
        key = tuple(sorted(c.expr.coeffs.items()))
        if key in eq_vecs:
            # vars are fixed by an equality: constraint is true or false outright
            if eq_vecs[key] + c.expr.const >= 0:
                continue
            return [FALSE]
        if best.get(key) is c:
            final.append(c)
    return final


def normalize_constraints(cons):
    seen = set()
    out = []
    for c in cons:
        n = normalize_constraint(c)
        if n is None:
            continue
        if n is FALSE:
            return (FALSE,)
        k = (n.kind, n.expr.key(), n.modulus, n.residue)
        if k not in seen:
            seen.add(k)
            out.append(n)
    out = _prune_parallel(out)
    if out == [FALSE]:
        return (FALSE,)
    return tuple(out)


@dataclass(frozen=True)
class Polyhedron:
    """Integer points over ordered dims, parameterized by symbols in params.

    The dim order is significant: it is the loop nesting order and defines
    the lexicographic order used by ranks and by `enumerate_points`.
    """

    dims: tuple
    params: tuple
    constraints: tuple
    exact: bool = field(default=True, compare=False)

    @staticmethod
    def build(dims, params, constraints, exact=True):
        return Polyhedron(tuple(dims), tuple(params), normalize_constraints(constraints), exact)

    @property
    def trivially_empty(self):
        return FALSE in self.constraints

    def conjoin(self, extra):
        return Polyhedron.build(self.dims, self.params, list(self.constraints) + list(extra), self.exact)

    def rename(self, mapping):
        return Polyhedron.build(
            tuple(mapping.get(d, d) for d in self.dims),
            tuple(mapping.get(p, p) for p in self.params),
            [c.rename(mapping) for c in self.constraints],
            self.exact,
        )

    def contains(self, point, binding=None):
        env = dict(binding or {})
        env.update(point)
        return all(c.satisfied(env) for c in self.constraints)

    def constraints_on(self, v):
        return [c for c in self.constraints if v in c.expr.coeffs]

    def __str__(self):
        cs = ", ".join(str(c) for c in self.constraints) or "true"
        return f"{{({', '.join(self.dims)}) : {cs}}}"


@dataclass(frozen=True)
class AccessMap:
    """Injective coordinate selection; `selected` keeps the source dim order."""

    selected: tuple

    @staticmethod
    def from_indices(space_dims, indices):
        idx = set(indices)
        if len(idx) != len(indices):
            raise PolyhedronError(f"repeated iterator in access {indices}")
        missing = idx - set(space_dims)
        if missing:
            raise PolyhedronError(f"access uses unknown iterators {sorted(missing)}")
        return AccessMap(tuple(d for d in space_dims if d in idx))


def iteration_space(summand):
    """Polyhedron over the summand's iterators in rule-appearance order."""
    dims = tuple(it.name for it in summand.iterators)
    params = tuple(summand.symbols())
    space = Polyhedron.build(dims, params, summand.constraints)
    if space.trivially_empty:
        return space
    for d in dims:
        _check_bounded(space, d)
    return space


def _check_bounded(space, d):
    has_lo = has_hi = False
    for c in space.constraints_on(d):
        if c.kind == EQ0:
            has_lo = has_hi = True
        elif c.kind == GE0:
            a = c.expr.coeff(d)
            if a > 0:
                has_lo = True
            elif a < 0:
                has_hi = True
    if not (has_lo and has_hi):
        raise UnboundedError(f"unbounded iterator {d}")


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination


def _substitute_equality(cons, v, rhs, divisor):
    """Replace v by rhs/divisor in every constraint; divisor divides rhs on the set.

    Constraints are scaled by |divisor| (positive, so GE0 direction is kept):
    a*v + e  ->  sign(divisor)*a*rhs + |divisor|*e.
    """
    d = abs(divisor)
    sign = 1 if divisor > 0 else -1
    out = []
    for c in cons:
        a = c.expr.coeff(v)
        if a == 0:
            out.append(c)
            continue
        new_expr = c.expr.drop(v) * d + rhs * (a * sign)
        if c.kind == MODEQ:
            # the congruence scales exactly alongside: m*|d|, r*|d|
            scaled, k = new_expr.scaled_integer()
            if k != 1:
                raise ModBlockedError("projection blocked by mod constraint")
            out.append(Constraint(MODEQ, new_expr, int(c.modulus * d), int(c.residue * d)))
        else:
            out.append(Constraint(c.kind, new_expr))
    return out


def _eliminate_one(cons, v):
    """Eliminate v from the system; returns (constraints, exact)."""
    exact = True
    with_v = [c for c in cons if c.expr.coeff(v) != 0]
    rest = [c for c in cons if c.expr.coeff(v) == 0]

    eqs = [c for c in with_v if c.kind == EQ0]
    if eqs:
        c0 = min(eqs, key=lambda c: abs(c.expr.coeff(v)))
        a = c0.expr.coeff(v)
        rhs = -(c0.expr.drop(v))  # a * v = rhs
        others = [c for c in with_v if c is not c0]
        out = rest + _substitute_equality(others, v, rhs, a)
        if abs(a) != 1:
            scaled, k = rhs.scaled_integer()
            if k == 1 and all(f.denominator == 1 for f in scaled.coeffs.values()):
                out.append(Constraint(MODEQ, scaled, int(abs(a)), 0))
            else:
                exact = False
        return out, exact

    if any(c.kind == MODEQ for c in with_v):
        raise ModBlockedError("projection blocked by mod constraint")

    lowers, uppers = [], []
    for c in with_v:
        a = c.expr.coeff(v)
        (lowers if a > 0 else uppers).append(c)
    if not (all(abs(c.expr.coeff(v)) == 1 for c in lowers)
            or all(abs(c.expr.coeff(v)) == 1 for c in uppers)):
        exact = False
    out = list(rest)
    for lo in lowers:
        a = lo.expr.coeff(v)
        e1 = lo.expr.drop(v)
        for hi in uppers:
            b = -hi.expr.coeff(v)
            e2 = hi.expr.drop(v)
            out.append(Constraint(GE0, e2 * a + e1 * b))
    return out, exact


def fm_eliminate(constraints, eliminate):
    """Eliminate the given variables (in order); returns (constraints, exact)."""
    cons = list(normalize_constraints(constraints))
    exact = True
    for v in eliminate:
        if FALSE in cons:
            return (FALSE,), exact
        cons, ok = _eliminate_one(cons, v)
        exact = exact and ok
        cons = list(normalize_constraints(cons))
    return tuple(cons), exact


def image(space, access_map):
    """Accessed domain: project the space onto the selected dims.

    Eliminated dims go innermost-first.  The result's `exact` flag is False
    when elimination could have introduced integer slack; the test suite
    confirms exactness by enumeration for every projection it relies on.
    """
    selected = access_map.selected
    drop = [d for d in reversed(space.dims) if d not in selected]
    cons, ok = fm_eliminate(space.constraints, drop)
    return Polyhedron.build(tuple(selected), space.params, cons, space.exact and ok)


def preceding_slices(accessed):
    """The k-th slice fixes the first k-1 coords and bounds the k-th strictly.

    Slices are polyhedra over fresh primed dims; the current (unprimed) dims
    join the parameter list.  Their disjoint union is the preceding-access set.
    """
    primed = {d: d + "'" for d in accessed.dims}
    base = [c.rename(primed) for c in accessed.constraints]
    slices = []
    for k, d in enumerate(accessed.dims):
        cons = list(base)
        for d_prev in accessed.dims[:k]:
            cons.append(eq(AffineExpr.var(primed[d_prev]) - AffineExpr.var(d_prev)))
        cons.append(ge(AffineExpr.var(d) - AffineExpr.var(primed[d]) - AffineExpr.constant(1)))
        slices.append(Polyhedron.build(
            tuple(primed[x] for x in accessed.dims),
            accessed.params + accessed.dims,
            cons,
        ))
    return slices


# ---------------------------------------------------------------------------
# Brute-force enumeration oracle


def _refine_box(poly, binding):
    """Per-dim integer intervals via interval constraint propagation."""
    lo = {d: None for d in poly.dims}
    hi = {d: None for d in poly.dims}
    rows = []
    for c in poly.constraints:
        if c.kind == MODEQ:
            continue
        rows.append(c)
        if c.kind == EQ0:
            rows.append(Constraint(GE0, -c.expr))
    rows = [Constraint(GE0, c.expr) for c in rows]
    for _ in range(4 * (len(poly.dims) + len(rows)) + 8):
        changed = False
        for c in rows:
            const = c.expr.const
            terms = []
            for v, a in c.expr.coeffs.items():
                if v in binding:
                    const += a * binding[v]
                else:
                    terms.append((v, a))
            for v, a in terms:
                # a*v >= -(const + sum of other terms); bound others from above
                rest_hi = Fraction(0)
                ok = True
                for u, b in terms:
                    if u == v:
                        continue
                    bound = hi[u] if b > 0 else lo[u]
                    if bound is None:
                        ok = False
                        break
                    rest_hi += b * bound
                if not ok:
                    continue
                limit = -(const + rest_hi) / a
                if a > 0:
                    new = -((-limit).__floor__())  # ceil
                    if lo[v] is None or new > lo[v]:
                        lo[v] = new
                        changed = True
                else:
                    new = limit.__floor__()
                    if hi[v] is None or new < hi[v]:
                        hi[v] = new
                        changed = True
        if not changed:
            break
    return lo, hi


def enumerate_points(poly, binding):
    """All integer points under the binding, in lexicographic dim order.

    Returns an int64 array of shape (count, len(dims)).  This is the oracle
    every symbolic result is tested against, so it stays deliberately naive:
    refine a bounding box, scan it, filter by every constraint.
    """
    missing = [p for p in poly.params if p not in binding]
    if missing:
        raise PolyhedronError(f"bindings missing parameters {missing}")
    binding = {k: int(v) for k, v in binding.items()}
    n = len(poly.dims)
    if poly.trivially_empty:
        return np.empty((0, n), dtype=np.int64)
    lo, hi = _refine_box(poly, binding)
    unbounded = [d for d in poly.dims if lo[d] is None or hi[d] is None]
    if unbounded:
        raise UnboundedError(f"unbounded under binding: {unbounded}")
    if any(hi[d] < lo[d] for d in poly.dims):
        return np.empty((0, n), dtype=np.int64)
    volume = 1
    for d in poly.dims:
        volume *= int(hi[d] - lo[d] + 1)
    if volume > MAX_BOX_POINTS:
        raise PolyhedronError(f"enumeration box too large ({volume} points)")
    axes = [np.arange(int(lo[d]), int(hi[d]) + 1, dtype=np.int64) for d in poly.dims]
    grids = np.meshgrid(*axes, indexing="ij") if axes else []
    pts = (np.stack([g.ravel() for g in grids], axis=1)
           if axes else np.zeros((1, 0), dtype=np.int64))
    mask = np.ones(len(pts), dtype=bool)
    for c in poly.constraints:
        expr, _ = c.expr.scaled_integer()
        val = np.full(len(pts), int(expr.const), dtype=np.int64)
        for v, a in expr.coeffs.items():
            if v in binding:
                val += int(a) * binding[v]
            else:
                val += int(a) * pts[:, poly.dims.index(v)]
        if c.kind == GE0:
            mask &= val >= 0
        elif c.kind == EQ0:
            mask &= val == 0
        else:
            mask &= (val % c.modulus) == (c.residue % c.modulus)
    return pts[mask]


# ---------------------------------------------------------------------------
# Emptiness and implication


_empty_cache = {}


def _rationally_infeasible(constraints):
    """Sound emptiness test: drop mod constraints, eliminate everything by FM."""
    normalized = normalize_constraints(constraints)
    if FALSE in normalized:
        return True
    cons = [c for c in normalized if c.kind != MODEQ]
    variables = sorted(set().union(*[c.expr.variables() for c in cons])) if cons else []
    try:
        out, _ = fm_eliminate(cons, variables)
    except ModBlockedError:
        return False
    return FALSE in out


def is_empty(poly):
    """Tri-state emptiness; "empty" is sound, "nonempty" is witnessed."""
    key = (poly.dims, poly.params, poly.constraints)
    hit = _empty_cache.get(key)
    if hit is not None:
        return hit
    result = _is_empty_uncached(poly)
    _empty_cache[key] = result
    return result


def _is_empty_uncached(poly):
    if poly.trivially_empty:
        return EMPTY
    if _rationally_infeasible(poly.constraints):
        return EMPTY
    probes = [{p: v for p in poly.params} for v in (1, 2, 3, 5, 8)]
    ordered = list(poly.params)
    probes.append({p: 2 + i for i, p in enumerate(ordered)})
    probes.append({p: 2 + len(ordered) - i for i, p in enumerate(ordered)})
    for binding in probes:
        try:
            pts = enumerate_points(poly, binding)
        except (UnboundedError, PolyhedronError):
            continue
        if len(pts):
            return NONEMPTY
    return UNKNOWN


def implies(constraints, c):
    """True when the system provably entails c (rational reasoning, sound)."""
    if c.kind == MODEQ:
        return False
    return all(_rationally_infeasible(list(constraints) + [n]) for n in c.negations())
