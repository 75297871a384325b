"""Integer affine forms and parametric integer polyhedra.

The objects here are the substrate for everything else in the package:
iteration spaces, accessed index sets, preceding-access slices and the
piece domains of counting results are all `Polyhedron` values, i.e.
finite conjunctions of affine constraints over an ordered list of
dimensions plus a list of symbolic size parameters.

No floating point or rational number is introduced anywhere.  Affine
expressions carry Python ints; normalizing a constraint gives it a
canonical integer row (gcd-reduced coefficients sorted by name, constant,
modulus and residue), and normalizing a normal constraint returns it
unchanged.  Dedupe, parallel pruning, projection and the emptiness test
all work on these rows: projection is Fourier-Motzkin elimination with
equality pre-substitution and gcd tightening, the real shadow of Pugh's
Omega test (it has no dark or grey shadows).  Because FM over the
rationals is not integer-exact in general, `image` records an exactness
flag and the test suite re-validates projections against the brute-force
enumerator below.

`is_empty` is the one emptiness proof, and it decides by proof alone: a
constraint system is empty when FM derives a contradiction, and anything
not proved empty is treated as possibly nonempty.  Implication, region
disjointness and summand infeasibility all ask it, and one registry build
proves each normal system once.  It never samples bindings;
`enumerate_points` is the oracle of the tests and of literal domains in
counting, not a compiler decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import index

import numpy as np

GE0 = "ge0"    # expr >= 0
EQ0 = "eq0"    # expr == 0
MODEQ = "mod"  # expr ≡ residue (mod modulus)

# Safety valve for the brute-force enumerator.
MAX_BOX_POINTS = 80_000_000


class PolyhedronError(ValueError):
    pass


class UnboundedError(PolyhedronError):
    pass


class ModBlockedError(PolyhedronError):
    """A mod constraint prevented an elimination or projection."""


class AffineExpr:
    """Linear form sum(coeff_v * v) + const with int entries; a number that
    is not an integer (a Fraction, a float) raises TypeError."""

    __slots__ = ("coeffs", "const", "_key")

    def __init__(self, coeffs=None, const=0):
        cs = {}
        if coeffs:
            for v, a in coeffs.items():
                a = index(a)
                if a:
                    cs[v] = a
        self.coeffs = cs
        self.const = index(const)
        self._key = None

    @staticmethod
    def var(name):
        return AffineExpr({name: 1})

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
            cs[v] = cs.get(v, 0) + a
        return AffineExpr(cs, self.const + other.const)

    def __sub__(self, other):
        if not isinstance(other, AffineExpr):
            other = AffineExpr.constant(other)
        return self + (other * -1)

    def __mul__(self, scalar):
        s = index(scalar)
        return AffineExpr({v: a * s for v, a in self.coeffs.items()}, self.const * s)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def coeff(self, v):
        return self.coeffs.get(v, 0)

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
    # canonical integer row, set only by normalization (see `_row`)
    row: tuple = field(default=None, compare=False, repr=False)

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
        if self.kind != MODEQ and self.row and self.row[1]:
            # the complement of a normal row is normal: no gcd to divide out
            _, vec, const = self.row[:3]
            rows = [(GE0, tuple((v, -a) for v, a in vec), -const - 1, 0, 0)]
            if self.kind == EQ0:
                rows.insert(0, (GE0, vec, const - 1, 0, 0))
            return [_constraint(r) for r in rows]
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


# Integer evaluation over numpy columns.  Expressions are lowered once to
# integer polys, ((coeff, ((name, exp), ...)), ...); evaluation reads a name
# from `cols` (name -> int64 column) when it is there, else from `env`
# (name -> int), and does no rational arithmetic.


def int_form(expr):
    """An affine expr as an integer poly."""
    terms = [(expr.const, ())] if expr.const else []
    return tuple(terms + [(a, ((v, 1),)) for v, a in sorted(expr.coeffs.items())])


def int_guard(c):
    """A constraint as (kind, poly of its expr, modulus, residue)."""
    residue = c.residue % c.modulus if c.kind == MODEQ else 0
    return c.kind, int_form(c.expr), c.modulus, residue


def poly_values(poly, cols, env):
    """Values over the rows of `cols`; a Python int when no column is read."""
    total = 0
    for c, mono in poly:
        for v, e in mono:
            x = cols[v] if v in cols else env[v]
            c = c * (x if e == 1 else x ** e)
        total = total + c
    return total


def guards_mask(guards, cols, env):
    """Rows of `cols` satisfying every lowered constraint; a bool when no
    column is read."""
    keep = True
    for kind, poly, modulus, residue in guards:
        v = poly_values(poly, cols, env)
        keep = keep & (v >= 0 if kind == GE0 else v == 0 if kind == EQ0
                       else v % modulus == residue)
    return keep


def ge(expr):
    return Constraint(GE0, expr)


def eq(expr):
    return Constraint(EQ0, expr)


def modeq(expr, modulus, residue):
    if modulus <= 0:
        raise PolyhedronError(f"mod constraint needs a positive modulus, got {modulus}")
    return Constraint(MODEQ, expr, int(modulus), int(residue) % int(modulus))


# Canonical integer rows.  Normalization gives every constraint its row,
# (kind, ((var, int), ...) sorted by var, const, modulus, residue): the
# gcd-reduced integer form that dedupe, pruning and Fourier-Motzkin work on.
_FALSE_ROW = (GE0, (), -1, 0, 0)

# A constant-false marker used when normalization detects infeasibility.
FALSE = Constraint(GE0, AffineExpr.constant(-1), row=_FALSE_ROW)


def _row(kind, coeffs, const, modulus=0, residue=0):
    """Normal row of kind(sum coeffs[v]*v + const) over integers; None when
    constant-true, _FALSE_ROW when constant-false."""
    if kind == MODEQ:
        m = modulus
        # symmetric residues keep banded expressions like j - i recognizable
        vec = []
        for v, a in sorted(coeffs.items()):
            a %= m
            if a:
                vec.append((v, a - m if a > m // 2 else a))
        const, residue = const % m, residue % m
        if not vec:
            return None if const == residue else _FALSE_ROW
        return MODEQ, tuple(vec), const, m, residue
    vec = [(v, a) for v, a in sorted(coeffs.items()) if a]
    if not vec:
        return None if (const >= 0 if kind == GE0 else const == 0) else _FALSE_ROW
    g = gcd(*(a for _, a in vec))
    if kind == EQ0:
        if const % g:
            return _FALSE_ROW  # equality has no integer solution
        if vec[0][1] < 0:
            g = -g
    # GE0 divides by the gcd of the variable coefficients, flooring the constant
    return kind, tuple((v, a // g) for v, a in vec), const // g, 0, 0


def _constraint(row):
    if row is _FALSE_ROW:
        return FALSE
    kind, vec, const, modulus, residue = row
    return Constraint(kind, AffineExpr(dict(vec), const), modulus, residue, row)


def normalize_constraint(c):
    """Canonical integer form; returns None for constant-true, FALSE for constant-false."""
    if c.row is not None:
        return c
    row = _row(c.kind, c.expr.coeffs, c.expr.const, c.modulus, c.residue)
    return None if row is None else _constraint(row)


def _prune_parallel(rows):
    """Drop GE0 rows dominated by a parallel one (same coefficient vector)
    or decided by an equality on it; None when one contradicts an equality."""
    best, fixed = {}, {}
    for r in rows:
        kind, vec, const = r[:3]
        if kind == GE0:
            if vec not in best or const < best[vec][2]:
                best[vec] = r
        elif kind == EQ0:
            # V + k = 0 fixes the var part: value(V) = -k, value(-V) = k
            fixed[vec] = -const
            fixed[tuple((v, -a) for v, a in vec)] = const
    out = []
    for r in rows:
        if r[0] == GE0:
            value = fixed.get(r[1])
            if value is not None:
                if value + r[2] < 0:
                    return None
                continue
            if best[r[1]] is not r:
                continue
        out.append(r)
    return out


def _normal_rows(rows):
    """Rows from `_row` (None: true) deduplicated and pruned, in first-seen
    order; [_FALSE_ROW] when infeasible."""
    seen = {}
    for r in rows:
        if r is _FALSE_ROW:
            return [_FALSE_ROW]
        if r is not None:
            seen[r] = None
    out = _prune_parallel(list(seen))
    return [_FALSE_ROW] if out is None else out


def normalize_constraints(cons):
    normal = {}
    for c in cons:
        n = normalize_constraint(c)
        if n is not None:
            normal.setdefault(n.row, n)
    # a row that pruning alone shows false has no constraint of its own
    return tuple(normal.get(r, FALSE) for r in _normal_rows(normal))


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

    def rename(self, mapping):
        return Polyhedron.build(
            tuple(mapping.get(d, d) for d in self.dims),
            tuple(mapping.get(p, p) for p in self.params),
            [c.rename(mapping) for c in self.constraints],
            self.exact,
        )

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


def _coeff(row, v):
    for u, a in row[1]:
        if u == v:
            return a
    return 0


def _combine(p, r, q, s, v):
    """Coefficients of p*r + q*s for rows r and s, without v."""
    cs = {u: p * a for u, a in r[1] if u != v}
    for u, b in s[1]:
        if u != v:
            cs[u] = cs.get(u, 0) + q * b
    return cs


def _eliminate_one(rows, v):
    """Eliminate v from normal rows; returns (normal rows, exact)."""
    out, on_v = [], []
    for r in rows:
        a = _coeff(r, v)
        if a:
            on_v.append((r, a))
        else:
            out.append(r)
    eqs = [(r, a) for r, a in on_v if r[0] == EQ0]
    if eqs:
        # substitute a0*v = -(r0 without v), scaling each row by d = |a0|:
        # a*v + e  ->  d*e - sign(a0)*a*(r0 without v)
        r0, a0 = min(eqs, key=lambda ra: abs(ra[1]))
        d, s = abs(a0), (1 if a0 > 0 else -1)
        for r, a in on_v:
            if r is not r0:
                out.append(_row(r[0], _combine(d, r, -s * a, r0, v),
                                d * r[2] - s * a * r0[2], r[3] * d, r[4] * d))
        if d != 1:   # v is integral: d divides -(r0 without v)
            out.append(_row(MODEQ, {u: -a for u, a in r0[1] if u != v}, -r0[2], d))
        return _normal_rows(out), True

    if any(r[0] == MODEQ for r, _ in on_v):
        raise ModBlockedError("projection blocked by mod constraint")
    lowers = [(r, a) for r, a in on_v if a > 0]
    uppers = [(r, -a) for r, a in on_v if a < 0]
    exact = all(a == 1 for _, a in lowers) or all(b == 1 for _, b in uppers)
    for lo, a in lowers:
        for hi, b in uppers:
            out.append(_row(GE0, _combine(a, hi, b, lo, v), a * hi[2] + b * lo[2]))
    return _normal_rows(out), exact


def _project(rows, eliminate):
    """Fourier-Motzkin with equality substitution and gcd tightening on
    normal rows, eliminating in order; returns (rows, exact), stopping at
    [_FALSE_ROW] once the system is infeasible."""
    exact = True
    for v in eliminate:
        if _FALSE_ROW in rows:
            break
        rows, ok = _eliminate_one(rows, v)
        exact = exact and ok
    return rows, exact


def fm_eliminate(constraints, eliminate):
    """Eliminate the given variables (in order); returns (constraints, exact)."""
    cons = normalize_constraints(constraints)
    given = {c.row: c for c in cons}
    rows, exact = _project([c.row for c in cons], eliminate)
    return tuple(given[r] if r in given else _constraint(r) for r in rows), exact


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
    # every expr here is >= 0: an equality gives two
    exprs = [e for c in poly.constraints if c.kind != MODEQ
             for e in ((c.expr, -c.expr) if c.kind == EQ0 else (c.expr,))]
    for _ in range(4 * (len(poly.dims) + len(exprs)) + 8):
        changed = False
        for e in exprs:
            const = e.const
            terms = []
            for v, a in e.coeffs.items():
                if v in binding:
                    const += a * binding[v]
                else:
                    terms.append((v, a))
            for v, a in terms:
                # a*v >= -(const + sum of other terms); bound others from above
                rest_hi = 0
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
                if a > 0:
                    new = -((const + rest_hi) // a)  # ceil(-(const + rest_hi) / a)
                    if lo[v] is None or new > lo[v]:
                        lo[v] = new
                        changed = True
                else:
                    new = (const + rest_hi) // -a
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
        volume *= hi[d] - lo[d] + 1
    if volume > MAX_BOX_POINTS:
        raise PolyhedronError(f"enumeration box too large ({volume} points)")
    axes = [np.arange(lo[d], hi[d] + 1, dtype=np.int64) for d in poly.dims]
    grids = np.meshgrid(*axes, indexing="ij") if axes else []
    pts = (np.stack([g.ravel() for g in grids], axis=1)
           if axes else np.zeros((1, 0), dtype=np.int64))
    mask = np.ones(len(pts), dtype=bool)
    for c in poly.constraints:
        val = np.full(len(pts), c.expr.const, dtype=np.int64)
        for v, a in c.expr.coeffs.items():
            if v in binding:
                val += a * binding[v]
            else:
                val += a * pts[:, poly.dims.index(v)]
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


def is_empty(constraints):
    """True when the system provably has no integer point for any binding.

    This is the package's one emptiness proof.  It is rational: mod
    constraints are dropped and Fourier-Motzkin eliminates every variable,
    in sorted order, down to a contradiction (a system that normalizes to
    FALSE is one already).  False means not proved empty, which callers
    treat as possibly nonempty.  Verdicts are cached by the system's normal
    rows in order, since FM's equality substitution reads that order;
    `indexing.build_registry` clears the cache when it starts, so it holds
    one registry build's systems at most.
    """
    rows = tuple(c.row for c in normalize_constraints(constraints) if c.kind != MODEQ)
    hit = _empty_cache.get(rows)
    if hit is None:
        try:
            hit = _FALSE_ROW in _project(rows, sorted({v for r in rows for v, _ in r[1]}))[0]
        except ModBlockedError:
            hit = False
        _empty_cache[rows] = hit
    return hit


def implies(constraints, c):
    """True when the system provably entails c: every branch of c's integer
    complement joined to the system is proved empty (sound, not complete)."""
    if c.kind == MODEQ:
        return False
    return all(is_empty([*constraints, n]) for n in c.negations())
