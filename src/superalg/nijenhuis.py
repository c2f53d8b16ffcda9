"""Analytic obstruction oracles: Nijenhuis tensors of endomorphism fields.

The Nijenhuis tensor of an endomorphism field J on a coordinate superspace is
evaluated symbolically for polynomial vector fields:

  even J (J^2 = -id on a 2p|2q space):
      N(X,Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y]
  odd J or Pi (J^2 = -id, Pi^2 = +id on an n|n space):
      N(X,Y) = (-1)^{p(X)} [JX, JY] - J[JX, Y] - (-1)^{p(X)} J[X, JY] - [X, Y]

Both vanish identically for flat (constant) structures.  Both variants are
evaluated one way, by contracting frame components:

    N(sum_a f_a d_a, sum_b g_b d_b) = sum_{a,b} f_a (+-g_b) N(d_a, d_b),

where +-g_b is g_b with its odd monomials negated when d_a is odd, the Koszul
sign of g_b passing the first slot.  Each component N(d_a, d_b) is the
displayed expression on coordinate fields, whose bracket [d_a, d_b] is 0.
The even expression is function-linear as it stands, so the contraction gives
its values; the odd expression, with its (-1)^{p(X)} factors, is not
function-linear over a supercommutative coefficient ring, so the odd tensor is
defined by its frame components, extended function-linearly.  In a component
J(d_a) is J's stored column a (the Koszul sign of the constant 1 is +1), so
J is applied only to brackets.  [J(d_a), J(d_b)] is VectorField.bracket.  The
two brackets with a coordinate field, [d_a, J(d_b)] and [J(d_a), d_b], are
derivatives of J's stored columns: each is polyvf.bracket_terms with a unit
term dict {a: {ONE_MONO: c}}, whose scalar c = +-1 carries the term's sign,
so no coordinate field is built.  When every column is constant
(`EndomorphismField.constant`, computed once per structure on first use,
like J's square) both derivatives are 0 and are not computed, so a component
of a flat structure makes one bracket.  J is applied, the signed sum formed
and the components contracted on term dicts with polyvf.add_product, so no
Polynomial is built.  The components themselves are computed on every call.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Dict, List

from .constructors import check_ints
from .polyvf import (
    Coords,
    Monomial,
    ONE_MONO,
    VectorField,
    add_product,
    bracket_terms,
    coordinate_field,
    fields_of_degree,
    mono_parity,
)
from .scalars import rational


class EndomorphismField:
    """A (1,1)-tensor field: columns[a] is the image J(d_a) as a vector field.

    Each column is stored times the scalar one of coords.field, which gives
    it the value and the value types of J.apply(d_a) even when it was built
    on int scalars.  Any parity but 0 or 1 raises ValueError, and so does a
    column keyed or with a term on anything but an index in
    range(len(coords)), or one on other coords; a column that is not a
    VectorField raises TypeError.  Immutable: `columns` is a read-only view
    of a private copy and no attribute can be rebound.  That lets two
    properties of the structure be computed once, on first use: the sign s
    with J^2 = s*id (`square`) and whether every column is constant
    (`constant`).
    """

    def __init__(self, coords: Coords, columns: Dict[int, VectorField], parity: int):
        if parity not in (0, 1):
            raise ValueError(f"EndomorphismField: parity must be 0 or 1, got {parity!r}")
        for a, col in columns.items():
            _check_index(a, coords, "columns key")
            _check_field(col, coords, "EndomorphismField", f"columns[{a}]")
            for v in col.terms:
                _check_index(v, coords, f"columns[{a}] term key")
        self.coords = coords
        one = coords.field.one
        self.columns = MappingProxyType({a: col.scale(one) for a, col in columns.items()})
        self.parity = parity

    def __setattr__(self, name, value):
        if name in self.__dict__:
            raise AttributeError(f"EndomorphismField.{name} is read-only")
        super().__setattr__(name, value)

    @classmethod
    def from_constant_matrix(cls, coords: Coords, entries: Dict[tuple, object], parity: int):
        """J with J(d_c) = sum_r entries[(r, c)] d_r, of parity 0 or 1.

        A parity but 0 or 1, or an r or c that is not an index in
        range(len(coords)), raises ValueError.
        """
        cols: Dict[int, Dict[int, Dict[Monomial, object]]] = {}
        for (r, c), v in entries.items():
            _check_index(r, coords, "entries row")
            _check_index(c, coords, "entries column")
            if v:
                cols.setdefault(c, {})[r] = {ONE_MONO: v}
        return cls(coords, {c: VectorField.from_terms(coords, t) for c, t in cols.items()}, parity)

    def apply(self, X: VectorField) -> VectorField:
        """J(X) for X = sum f_a d_a: function-linear, J(f_a d_a) = +-f_a J(d_a), on term dicts.

        X must be a VectorField on J.coords (TypeError, ValueError otherwise).
        """
        _check_field(X, self.coords, "EndomorphismField.apply", "X")
        out = self._add_image({}, X.terms)
        return VectorField.from_terms(self.coords, {b: t for b, t in out.items() if t})

    def _add_image(self, out: Dict[int, Dict[Monomial, object]], x) -> Dict[int, Dict[Monomial, object]]:
        """out += J(X) for a term dict X; returns out, in which a coefficient may be left empty."""
        coords = self.coords
        for a, f in x.items():
            col = self.columns.get(a)
            if col is None:
                continue
            if self.parity:
                # odd tensor passing a coefficient costs the Koszul sign
                f = _koszul(f, coords)
            for b, g in col.terms.items():
                add_product(out.setdefault(b, {}), f, g, coords.parities)
        return out

    def square_is(self, sign: int) -> bool:
        """Whether J(J(d_a)) = sign * d_a for every coordinate direction; J(d_a) is column a."""
        zero = VectorField(self.coords)
        for a in range(len(self.coords)):
            expected = coordinate_field(self.coords, a).scale(rational(sign))
            if self.apply(self.columns.get(a, zero)) != expected:
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
    def constant(self) -> bool:
        """Whether every column has constant coefficients, so no column has a nonzero derivative.

        Computed on first use, once per structure.
        """
        return all(m == ONE_MONO for col in self.columns.values() for t in col.terms.values() for m in t)


def _check_index(k, coords: Coords, what: str):
    """ValueError naming `what` unless k is an index in range(len(coords))."""
    if not (isinstance(k, int) and not isinstance(k, bool) and 0 <= k < len(coords)):
        raise ValueError(f"EndomorphismField: {what} {k!r} is not a coordinate index of {coords!r}")


def _check_field(Z, coords: Coords, where: str, name: str):
    """TypeError unless Z is a VectorField, ValueError unless it is on coords (an `is` test)."""
    if not isinstance(Z, VectorField):
        raise TypeError(f"{where}: expected a VectorField for {name}, got {type(Z).__name__}")
    if Z.coords is not coords:
        raise ValueError(f"{where}: {name} is a field on {Z.coords!r}, structure on {coords!r}")


def _koszul(f: Dict[Monomial, object], coords: Coords) -> Dict[Monomial, object]:
    """The terms f with their odd monomials negated: the sign of passing an odd operator past f."""
    return {m: (-c if mono_parity(m, coords) else c) for m, c in f.items()}


def nijenhuis_tensor(J: EndomorphismField, X: VectorField, Y: VectorField, variant: str = "even") -> VectorField:
    """Evaluate the Nijenhuis tensor on two homogeneous polynomial fields.

    N(X, Y) = sum_{a,b} f_a (+-g_b) N(d_a, d_b) for X = sum f_a d_a and
    Y = sum g_b d_b, one route for both variants (see the module docstring).
    Each frame component is computed by `_frame_component` on every call,
    from J's columns; nothing is kept on X or Y, and on J only its `square`
    and `constant`, which the first call on a structure computes.  J must be an
    EndomorphismField (TypeError otherwise), X and Y VectorFields on
    J.coords (TypeError, ValueError otherwise).
    """
    if not isinstance(J, EndomorphismField):
        raise TypeError(f"nijenhuis_tensor: expected an EndomorphismField for J, got {type(J).__name__}")
    _check_field(X, J.coords, "nijenhuis_tensor", "X")
    _check_field(Y, J.coords, "nijenhuis_tensor", "Y")
    if variant not in ("even", "odd"):
        raise ValueError("variant must be 'even' or 'odd'")
    if variant == "even" and J.square != -1:
        raise ValueError("even variant expects J^2 = -id")
    if variant == "odd" and J.square is None:
        raise ValueError("odd variant expects J^2 = -id or +id")
    coords = J.coords
    parities = coords.parities
    out: Dict[int, Dict[Monomial, object]] = {}
    for a, f in X.terms.items():
        for b, g in Y.terms.items():
            comp = _frame_component(J, a, b, variant)
            if not comp:
                continue
            # Koszul: the coefficient of Y passes the first tensor slot
            coef = add_product({}, f, _koszul(g, coords) if parities[a] else g, parities)
            for v, p in comp.items():
                add_product(out.setdefault(v, {}), coef, p, parities)
    return VectorField.from_terms(coords, {v: t for v, t in out.items() if t})


def _frame_component(J: EndomorphismField, a: int, b: int, variant: str) -> Dict[int, Dict[Monomial, object]]:
    """N(d_a, d_b) as a new term dict, by the variant's expression; [d_a, d_b] = 0 drops its last term.

    J(d_a) and J(d_b) are read off J.columns (the zero field where J has no
    column).  [J(d_a), J(d_b)] is VectorField.bracket; the brackets with a
    coordinate field are bracket_terms with a unit term dict, which
    differentiates a column: -s[d_a, J(d_b)] with the unit coefficient -s and
    -[J(d_a), d_b] with -1, s being the sign the odd expression puts on its
    first two terms.  J is applied to them and the sum formed on term dicts.
    When J is constant both derivatives are 0, and the bracket is the whole
    component.
    """
    coords = J.coords
    parities = coords.parities
    Ja = J.columns.get(a) or VectorField(coords)
    Jb = J.columns.get(b) or VectorField(coords)
    # the two terms that carry (-1)^{p(X)} in the odd expression
    s = -1 if variant == "odd" and parities[a] else 1
    first = Ja.bracket(Jb).terms
    out = first if s > 0 else {v: {m: -c for m, c in t.items()} for v, t in first.items()}
    if J.constant:
        return out
    # -s[d_a, J(d_b)] and -[J(d_a), d_b]: a column differentiated by a signed
    # unit; an int unit keeps the value types of the column's scalars
    second = bracket_terms({a: {ONE_MONO: -s}}, parities[a], Jb.terms, Jb.parity(), parities)
    third = bracket_terms(Ja.terms, Ja.parity(), {b: {ONE_MONO: -1}}, parities[b], parities)
    J._add_image(J._add_image(out, second), third)
    return {v: t for v, t in out.items() if t}


def standard_even_structure(p: int, q: int) -> EndomorphismField:
    """Flat J on R^{2p|2q}: coordinates (x_1..x_p, ix_1..ix_p, th.., ith..)."""
    check_ints(p=p, q=q)
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
    """Flat odd J (square=-1) or Pi (square=+1) on R^{n|n}; any other square raises ValueError."""
    check_ints(n=n)
    if square not in (-1, 1):
        raise ValueError(f"standard_odd_structure: square must be -1 or +1, got {square!r}")
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

