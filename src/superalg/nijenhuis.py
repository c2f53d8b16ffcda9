"""Analytic obstruction oracles: Nijenhuis tensors of endomorphism fields.

The Nijenhuis tensor of an endomorphism field J on a coordinate superspace is
evaluated symbolically for polynomial vector fields:

  even J (J^2 = -id on a 2p|2q space):
      N(X,Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y]
  odd J or Pi (J^2 = -id, Pi^2 = +id on an n|n space):
      N(X,Y) = (-1)^{p(X)} [JX, JY] - J[JX, Y] - (-1)^{p(X)} J[X, JY] - [X, Y]

Both vanish identically for flat (constant) structures; the evaluator also
checks tensoriality, i.e. that the value at a point depends on the arguments
pointwise.

The even variant runs on integers.  J is cleared once per structure to d_J J
with integral columns (`EndomorphismField.cleared`), and X and Y once per field
to d_X X and d_Y Y (`clear_field`, kept on the field).  Each term of the even
expression is bilinear in X and Y and carries J twice (the last as
-[X,Y] = J^2 [X,Y]), so on the cleared inputs

    [JX,JY] - J([JX,Y] + [X,JY]) - d_J^2 [X,Y]  =  d_J^2 d_X d_Y N(X,Y)

is computed on integral values (int over QQ, Gaussian rationals with integral
parts over QQ(i)) with the same brackets, and one exact division by
d_J^2 d_X d_Y gives N(X,Y): the same values, of the same types, as evaluating
the expression on the rational fields.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from types import MappingProxyType
from typing import Dict, List

from .polyvf import (
    Coords,
    Monomial,
    Polynomial,
    VectorField,
    add_product,
    clear_field,
    coordinate_field,
    fields_of_degree,
    mono_parity,
)
from .scalars import rational


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

    @cached_property
    def cleared(self):
        """(d_J, d_J J): one common denominator of all columns and the structure with
        integral columns (int over QQ, integral Gaussian rationals over QQ(i))."""
        cols = {a: clear_field(col) for a, col in self.columns.items()}
        den = lcm(*(d for d, _ in cols.values()))
        coords = self.coords
        integral = {}
        for a, (d, terms) in cols.items():
            k = den // d
            integral[a] = VectorField(
                coords, {v: Polynomial(coords, {m: c * k for m, c in t.items()}) for v, t in terms.items()}
            )
        return den, EndomorphismField(coords, integral, self.parity)


def _koszul(f: Polynomial) -> Polynomial:
    """f with its odd monomials negated: the sign of passing an odd operator past f."""
    coords = f.coords
    return Polynomial(coords, {m: (-c if mono_parity(m, coords) else c) for m, c in f.terms.items()})


def nijenhuis_tensor(J: EndomorphismField, X: VectorField, Y: VectorField, variant: str = "even") -> VectorField:
    """Evaluate the Nijenhuis tensor on two homogeneous polynomial fields.

    The even expression [JX,JY] - J[JX,Y] - J[X,JY] - [X,Y] is function-linear
    as it stands and is evaluated directly, on the cleared integer forms of J,
    X and Y with one division at the end (see the module docstring).  The odd
    expression (with the (-1)^{p(X)} factors) is not function-linear over a
    supercommutative coefficient ring, so the tensor is defined by its frame
    components N(d_a, d_b) and extended function-linearly; that extension is
    what makes the value at a point depend only on the pointwise values of X
    and Y.
    Each frame component is evaluated once per structure and kept on J.
    """
    if variant not in ("even", "odd"):
        raise ValueError("variant must be 'even' or 'odd'")
    if variant == "even" and J.square != -1:
        raise ValueError("even variant expects J^2 = -id")
    if variant == "odd" and J.square is None:
        raise ValueError("odd variant expects J^2 = -id or +id")
    coords = J.coords
    if variant == "even":
        dj, Jc = J.cleared
        dx, x = clear_field(X)
        dy, y = clear_field(Y)
        Xc = VectorField.wrap(coords, x, X.parity())
        Yc = VectorField.wrap(coords, y, Y.parity())
        JX, JY = Jc.apply(Xc), Jc.apply(Yc)
        n = JX.bracket(JY) - Jc.apply(JX.bracket(Yc) + Xc.bracket(JY)) - Xc.bracket(Yc).scale(dj * dj)
        return n.scale(rational(1, dx * dy * dj * dj))
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

