"""Analytic obstruction oracles: Nijenhuis tensors and the symplectic 3-form map.

The Nijenhuis tensor of an endomorphism field J on a coordinate superspace is
evaluated symbolically for polynomial vector fields:

  even J (J^2 = -id on a 2p|2q space):
      N(X,Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y]
  odd J or Pi (J^2 = -id, Pi^2 = +id on an n|n space):
      N(X,Y) = (-1)^{p(X)} [JX, JY] - J[JX, Y] - (-1)^{p(X)} J[X, JY] - [X, Y]

Both vanish identically for flat (constant) structures; the evaluator also
checks tensoriality, i.e. that the value at a point depends on the arguments
pointwise.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Sequence

from .linalg import kernel_basis, rank
from .polyvf import (
    Coords,
    Monomial,
    Polynomial,
    VectorField,
    add_product,
    coordinate_field,
    fields_of_degree,
    mono_parity,
)
from .scalars import ZERO, rational


class EndomorphismField:
    """A (1,1)-tensor field: columns[a] is the image J(d_a) as a vector field.

    Immutable: `columns` is a read-only view of a private copy and no
    attribute can be rebound.  That lets the structure-only work be done once
    per structure, on first use: the sign s with J^2 = s*id (`square`) and the
    odd frame components N(d_a, d_b).
    """

    def __init__(self, coords: Coords, columns: Dict[int, VectorField], parity: int):
        self.coords = coords
        self.columns = MappingProxyType(dict(columns))
        self.parity = parity
        self._odd_frames: Dict[tuple, VectorField] = {}

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"EndomorphismField.{name} is read-only")
        super().__setattr__(name, value)

    @classmethod
    def from_constant_matrix(cls, coords: Coords, entries: Dict[tuple, object], parity: int):
        cols: Dict[int, VectorField] = {}
        for (r, c), v in entries.items():
            f = VectorField(coords, {r: coords.one().scale(v)})
            cols[c] = cols.get(c, VectorField(coords)) + f
        return cls(coords, cols, parity)

    def apply(self, X: VectorField) -> VectorField:
        """J(X) for X = sum f_a d_a: function-linear, J(f_a d_a) = +-f_a J(d_a)."""
        out: Dict[int, Dict[Monomial, object]] = {}
        for a, f in X.coeffs.items():
            col = self.columns.get(a)
            if col is None:
                continue
            if self.parity:
                # odd tensor passing a coefficient costs the Koszul sign
                f = _koszul(f)
            for b, g in col.coeffs.items():
                add_product(out.setdefault(b, {}), f, g)
        return VectorField(self.coords, {b: Polynomial(self.coords, t) for b, t in out.items()})

    def square_is(self, sign: int) -> bool:
        """Whether J(J(d_a)) = sign * d_a for every coordinate direction."""
        for a in range(len(self.coords)):
            img = self.apply(self.apply(coordinate_field(self.coords, a)))
            expected = coordinate_field(self.coords, a).scale(rational(sign))
            if img != expected:
                return False
        return True

    @cached_property
    def square(self):
        """The sign s with J^2 = s*id, or None; computed on first use, once per structure."""
        for sign in (-1, 1):
            if self.square_is(sign):
                return sign
        return None


def _koszul(f: Polynomial) -> Polynomial:
    """f with its odd monomials negated: the sign of passing an odd operator past f."""
    coords = f.coords
    return Polynomial(coords, {m: (-c if mono_parity(m, coords) else c) for m, c in f.terms.items()})


def nijenhuis_tensor(J: EndomorphismField, X: VectorField, Y: VectorField, variant: str = "even") -> VectorField:
    """Evaluate the Nijenhuis tensor on two homogeneous polynomial fields.

    The even expression [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] is function-linear
    as it stands and is evaluated directly.  The odd expression (with the
    (-1)^{p(X)} factors) is not function-linear over a supercommutative
    coefficient ring, so the tensor is defined by its frame components
    N(d_a, d_b) and extended function-linearly; that extension is what makes
    the value at a point depend only on the pointwise values of X and Y.
    Each frame component is evaluated once per structure and kept on J.
    """
    if variant not in ("even", "odd"):
        raise ValueError("variant must be 'even' or 'odd'")
    if variant == "even" and J.square != -1:
        raise ValueError("even variant expects J^2 = -id")
    if variant == "odd" and J.square is None:
        raise ValueError("odd variant expects J^2 = -id or +id")
    if variant == "even":
        JX, JY = J.apply(X), J.apply(Y)
        return (
            JX.bracket(JY)
            - J.apply(JX.bracket(Y))
            - J.apply(X.bracket(JY))
            - X.bracket(Y)
        )
    coords = J.coords
    frames = J._odd_frames
    out: Dict[int, Dict[Monomial, object]] = {}
    for a, f in X.coeffs.items():
        for b, g in Y.coeffs.items():
            comp = frames.get((a, b))
            if comp is None:
                comp = frames[(a, b)] = _odd_frame_component(J, a, b)
            if not comp:
                continue
            # Koszul: the coefficient of Y passes the first tensor slot
            coef = f * (_koszul(g) if coords.parities[a] else g)
            for v, p in comp.coeffs.items():
                add_product(out.setdefault(v, {}), coef, p)
    return VectorField(coords, {v: Polynomial(coords, t) for v, t in out.items()})


def _odd_frame_component(J: EndomorphismField, a: int, b: int) -> VectorField:
    """N(d_a, d_b) by the displayed odd expression; frame brackets drop [X,Y]."""
    coords = J.coords
    da = coordinate_field(coords, a)
    db = coordinate_field(coords, b)
    Ja, Jb = J.apply(da), J.apply(db)
    pa = coords.parities[a]
    sign = rational(-1 if pa else 1)
    return (
        Ja.bracket(Jb).scale(sign)
        - J.apply(Ja.bracket(db))
        - J.apply(da.bracket(Jb)).scale(sign)
        - da.bracket(db)
    )


def tensoriality_defect(J: EndomorphismField, X: VectorField, Y: VectorField, f: Polynomial, variant: str = "even") -> VectorField:
    """N(fX, Y) - f N(X, Y); zero iff N is function-linear in its first slot."""
    fX = VectorField(J.coords, {a: f * g for a, g in X.coeffs.items()})
    n1 = nijenhuis_tensor(J, fX, Y, variant)
    n0 = nijenhuis_tensor(J, X, Y, variant)
    scaled = VectorField(J.coords, {a: f * g for a, g in n0.coeffs.items()})
    return n1 - scaled


def standard_even_structure(p: int, q: int) -> EndomorphismField:
    """Flat J on R^{2p|2q}: coordinates (x_1..x_p, ix_1..ix_p, th.., ith..)."""
    names = [f"x_{k+1}" for k in range(p)] + [f"ix_{k+1}" for k in range(p)]
    names += [f"θ_{k+1}" for k in range(q)] + [f"iθ_{k+1}" for k in range(q)]
    parities = [0] * (2 * p) + [1] * (2 * q)
    coords = Coords(names, parities)
    entries = {}
    for k in range(p):
        entries[(p + k, k)] = rational(1)
        entries[(k, p + k)] = rational(-1)
    for k in range(q):
        entries[(2 * p + q + k, 2 * p + k)] = rational(1)
        entries[(2 * p + k, 2 * p + q + k)] = rational(-1)
    return EndomorphismField.from_constant_matrix(coords, entries, parity=0)


def standard_odd_structure(n: int, square: int) -> EndomorphismField:
    """Flat odd J (square=-1) or Pi (square=+1) on R^{n|n}."""
    names = [f"x_{k+1}" for k in range(n)] + [f"θ_{k+1}" for k in range(n)]
    parities = [0] * n + [1] * n
    coords = Coords(names, parities)
    entries = {}
    for k in range(n):
        entries[(n + k, k)] = rational(1)
        entries[(k, n + k)] = rational(square)
    return EndomorphismField.from_constant_matrix(coords, entries, parity=1)


def monomial_fields_up_to(coords: Coords, degree: int) -> List[VectorField]:
    out = []
    for d in range(-1, degree + 1):
        out.extend(fields_of_degree(coords, d))
    return out


# -- symplectic obstruction -------------------------------------------------------


def symplectic_obstruction_map(c: Dict[tuple, object], B: Sequence[Sequence[object]]):
    """C(u,v,w) = B(c(u,v),w) + B(c(v,w),u) + B(c(w,u),v) as a 3-form.

    c maps ordered index pairs (i < j) to value vectors in V (lists); B is a
    nondegenerate antisymmetric matrix on the even space V.  Returns the
    totally antisymmetric 3-form as {(i<j<k): scalar}.
    """
    dim = len(B)
    if rank([{k: v for k, v in enumerate(row) if v} for row in B], dim) != dim:
        raise ValueError("B must be nondegenerate")
    for i in range(dim):
        for j in range(dim):
            if B[i][j] != -B[j][i]:
                raise ValueError("B must be antisymmetric")

    def cval(i, j):
        if i == j:
            return [ZERO] * dim
        if i < j:
            return c.get((i, j), [ZERO] * dim)
        return [-x for x in c.get((j, i), [ZERO] * dim)]

    def pair(vec, k):
        return sum((vec[m] * B[m][k] for m in range(dim)), ZERO)

    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                val = pair(cval(i, j), k) + pair(cval(j, k), i) + pair(cval(k, i), j)
                if val:
                    out[(i, j, k)] = val
    return out


def sp_matrices(B: Sequence[Sequence[object]]):
    """Basis of sp(V, B) = {S : B S + S^t B = 0} as dense matrices."""
    dim = len(B)
    slots = [(r, c) for r in range(dim) for c in range(dim)]
    rows = []
    for i in range(dim):
        for j in range(dim):
            row = {}
            for q, (r, c) in enumerate(slots):
                coef = ZERO
                # (B S)_{ij} = sum_k B[i][k] S[k][j]; (S^t B)_{ij} = sum_k S[k][i] B[k][j]
                if c == j:
                    coef = coef + B[i][r]
                if c == i:
                    coef = coef + B[r][j]
                if coef:
                    row[q] = coef
            if row:
                rows.append(row)
    mats = []
    for vec in kernel_basis(rows, len(slots)):
        m = [[ZERO] * dim for _ in range(dim)]
        for q, v in vec.items():
            r, cc = slots[q]
            m[r][cc] = v
        mats.append(m)
    return mats


def coboundary_2cochain(S: Sequence[Sequence[object]]):
    """c(u,v) = S(u)v - S(v)u for S in Hom(V, End V): here S[u] is a matrix list."""
    dim = len(S[0])
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            # S(e_i) e_j - S(e_j) e_i
            vec = [S[i][r][j] - S[j][r][i] for r in range(dim)]
            if any(vec):
                out[(i, j)] = vec
    return out
