"""Superpolynomials and polynomial super vector fields.

Coordinates are named, each with a parity and an optional positive integer
degree (used for graded prolongations, where a coordinate dual to a basis
vector of degree -d has degree d).  Odd coordinates anticommute and square to
zero; derivatives are left derivatives, so moving d/dθ past an odd factor
costs a sign.

A monomial is a tuple of (var_index, exponent) pairs sorted by index.  A
Polynomial holds its terms {monomial: scalar}.  A VectorField is stored only
as its term dict {var: {monomial: scalar}}, nonzeros only and no empty
coefficient: VectorField(coords, {var: Polynomial}) checks each var against
the coordinates (Coords.position, as coordinate_field and Coords.var do) and
shares the polynomials' term dicts, VectorField.from_terms takes a term dict
as it is, unchecked, and coeffs gives Polynomial views sharing those dicts.
No dict is changed after it is built.

One bracket kernel, bracket_terms, runs on term dicts with the parities passed
in.  VectorField.bracket runs on it, VectorField.apply and Polynomial.deriv
(the unit field d_var applied) on its half X(g), and so do the prolongation's
brackets; sums of both classes go through one helper, _add_terms, and
products through add_product.  A key takes its first term as it is instead of
adding it to a zero constant, so int input gives int output and rational or
Gaussian input keeps its value types.  clear_field scales a field to a term
dict of integers (Gaussian rationals with integral parts for the values with
an imaginary part, as scalars.cleared gives them) and returns the common
denominator, so a caller can bracket on integers and divide once; it is
computed on every call and nothing is kept on the field.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .scalars import FIELD_Q, as_field, cleared, common_denominator

Monomial = Tuple[Tuple[int, int], ...]

ONE_MONO: Monomial = ()


class Coords:
    """A coordinate system: names with parities, optional degrees and a field.

    The field is FIELD_Q or FIELD_QI, or one of their names, 'Q' or 'Q(i)'.
    """

    def __init__(self, names, parities, degrees=None, field=FIELD_Q):
        self.names = list(names)
        self.parities = list(parities)
        if len(self.names) != len(self.parities):
            raise ValueError("names and parities length mismatch")
        self.degrees = list(degrees) if degrees is not None else None
        if self.degrees is not None and len(self.degrees) != len(self.names):
            raise ValueError("degrees length mismatch")
        self.field = as_field(field)
        self.index = {n: k for k, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate coordinate names")

    def __len__(self):
        return len(self.names)

    def degree(self, k):
        return self.degrees[k] if self.degrees is not None else 1

    def position(self, var, what: str) -> int:
        """The index of var, a coordinate name or an index in range(len(self)).

        Any other var, a negative index or a bool included, raises ValueError
        naming what asked for it.
        """
        if isinstance(var, str):
            k = self.index.get(var)
        elif isinstance(var, int) and not isinstance(var, bool) and 0 <= var < len(self.names):
            k = var
        else:
            k = None
        if k is None:
            raise ValueError(f"{what}: no coordinate {var!r} in {self!r}")
        return k

    def var(self, name_or_index) -> "Polynomial":
        k = self.position(name_or_index, "Coords.var")
        return Polynomial(self, {((k, 1),): self.field.one})

    def one(self) -> "Polynomial":
        return Polynomial(self, {ONE_MONO: self.field.one})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def __repr__(self):
        return f"Coords({self.names!r})"


def mono_parity(mono: Monomial, coords: Coords) -> int:
    return sum(coords.parities[v] * e for v, e in mono) % 2


def mono_degree(mono: Monomial, coords: Coords) -> int:
    return sum(coords.degree(v) * e for v, e in mono)


def mono_str(mono: Monomial, coords: Coords) -> str:
    if not mono:
        return "1"
    parts = []
    for v, e in mono:
        n = coords.names[v]
        parts.append(n if e == 1 else f"{n}^{e}")
    return "*".join(parts)


def _mono_mul(m1: Monomial, m2: Monomial, parities):
    """Multiply canonical monomials; returns (monomial, sign) or None if zero.

    The sign counts the odd factors of m1 that each odd factor of m2 must
    pass, i.e. the pairs of odd indices a in m1, b in m2 with a > b.  One
    merge of the two sorted monomials finds them: an odd factor of m2 passes
    the odd factors of m1 still to the right of where it lands.
    """
    if not m2:
        return m1, 1
    if not m1:
        return m2, 1
    odd_right = 0
    for a, _ in m1:
        odd_right += parities[a]
    out = []
    negative = False
    i, n1 = 0, len(m1)
    for factor in m2:
        b = factor[0]
        while i < n1 and m1[i][0] < b:
            out.append(m1[i])
            odd_right -= parities[m1[i][0]]
            i += 1
        if i < n1 and m1[i][0] == b:
            if parities[b]:
                return None
            out.append((b, m1[i][1] + factor[1]))
            i += 1
        else:
            out.append(factor)
            if parities[b] and odd_right & 1:
                negative = not negative
    out.extend(m1[i:])
    return tuple(out), -1 if negative else 1


def _scaled(c, k: int):
    """c * k for a small integer k, without a multiplication when k is +-1."""
    if k == 1:
        return c
    if k == -1:
        return -c
    return c * k


def _add_terms(acc: Dict[Monomial, object], terms: Dict[Monomial, object], sign: int):
    """acc += sign * terms for sign +-1, where acc maps keys to nonzero scalars; returns acc.

    A key only terms has takes its value as it is (negated for sign -1), a
    shared key is added to or subtracted from, and one that cancels is removed.
    """
    for m, c in terms.items():
        old = acc.get(m)
        if old is None:
            acc[m] = c if sign > 0 else -c
            continue
        nv = old + c if sign > 0 else old - c
        if nv:
            acc[m] = nv
        else:
            del acc[m]
    return acc


def _mono_deriv(mono: Monomial, var: int, e: int, parities):
    """Left derivative of a monomial containing var^e: (monomial, integer factor).

    Moving d/dθ for an odd θ past the odd factors to its left costs a sign each.
    """
    if parities[var]:
        k = 1
        for v, _ in mono:
            if v >= var:
                break
            if parities[v]:
                k = -k
        return tuple(t for t in mono if t[0] != var), k
    if e == 1:
        return tuple(t for t in mono if t[0] != var), 1
    return tuple((v, ee if v != var else ee - 1) for v, ee in mono), e


class Polynomial:
    __slots__ = ("coords", "terms")

    def __init__(self, coords: Coords, terms: Optional[Dict[Monomial, object]] = None):
        self.coords = coords
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def _wrap(cls, coords: Coords, terms: Dict[Monomial, object]) -> "Polynomial":
        """A polynomial on a term dict that already holds only nonzeros, not copied."""
        p = cls.__new__(cls)
        p.coords = coords
        p.terms = terms
        return p

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coords is other.coords and self.terms == other.terms
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial._wrap(self.coords, _add_terms(dict(self.terms), other.terms, 1))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial._wrap(self.coords, _add_terms(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return Polynomial(self.coords, {m: -c for m, c in self.terms.items()})

    def scale(self, s):
        if not s:
            return Polynomial(self.coords, {})
        return Polynomial(self.coords, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        return Polynomial._wrap(self.coords, add_product({}, self.terms, other.terms, self.coords.parities))

    def deriv(self, var: int) -> "Polynomial":
        """Left partial derivative with respect to coordinate var: the unit field d_var applied."""
        unit = {var: {ONE_MONO: 1}}
        return Polynomial._wrap(self.coords, _add_applied({}, unit, self.terms, 1, self.coords.parities))

    def parity(self):
        """Parity if homogeneous, raises otherwise (None for the zero polynomial)."""
        ps = {mono_parity(m, self.coords) for m in self.terms}
        if not ps:
            return None
        if len(ps) > 1:
            raise ValueError(f"non-homogeneous polynomial: {self}")
        return ps.pop()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            parts.append(f"({self.terms[m]})*{mono_str(m, self.coords)}")
        return " + ".join(parts)

    __repr__ = __str__


def monomials_of_degree(coords: Coords, d: int):
    """All canonical monomials of graded degree d, lexicographic order."""
    out = []

    def rec(start, remaining, current):
        if remaining == 0:
            out.append(tuple(current))
            return
        for v in range(start, len(coords)):
            dv = coords.degree(v)
            if dv > remaining:
                continue
            if coords.parities[v]:
                current.append((v, 1))
                rec(v + 1, remaining - dv, current)
                current.pop()
            else:
                e = 1
                while e * dv <= remaining:
                    current.append((v, e))
                    rec(v + 1, remaining - e * dv, current)
                    current.pop()
                    e += 1

    if d == 0:
        return [ONE_MONO]
    if d < 0:
        return []
    rec(0, d, [])
    return sorted(out)


# VectorField._parity before parity() has been computed; None is the zero field's parity.
_UNSET = object()


class VectorField:
    """X = sum_a f_a d/dx_a, stored only as its term dict {a: {monomial: scalar}} of nonzeros."""

    __slots__ = ("coords", "terms", "_parity")

    def __init__(self, coords: Coords, coeffs: Optional[Dict[int, Polynomial]] = None):
        """The field sum_v coeffs[v] d_v; each key v as Coords.position takes it, each value a Polynomial on coords."""
        self.coords = coords
        self.terms = {}
        for v, p in (coeffs or {}).items():
            k = coords.position(v, "VectorField coeffs")
            if not isinstance(p, Polynomial):
                raise TypeError(f"VectorField coeffs: the coefficient of {v!r} is not a Polynomial: {p!r}")
            if p.coords is not coords:
                raise ValueError(f"VectorField coeffs: the coefficient of {v!r} is on {p.coords!r}, not {coords!r}")
            if k in self.terms:
                raise ValueError(f"VectorField coeffs: coordinate {coords.names[k]!r} is keyed twice")
            if p:
                self.terms[k] = p.terms
        self._parity = _UNSET

    @classmethod
    def from_terms(cls, coords: Coords, terms, parity=_UNSET) -> "VectorField":
        """The field of a term dict of nonzeros with no empty coefficient, sharing its dicts.

        Nothing is copied or checked: the caller vouches for the terms and for
        the parity, if it passes one, and must not change the dicts afterwards.
        """
        X = cls.__new__(cls)
        X.coords = coords
        X.terms = terms
        X._parity = parity if terms else None
        return X

    @property
    def coeffs(self) -> Dict[int, Polynomial]:
        """The coefficients as Polynomials, read-only views sharing the term dicts."""
        return {v: Polynomial._wrap(self.coords, t) for v, t in self.terms.items()}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.coords is other.coords and self.terms == other.terms

    def _combine(self, other, sign):
        """self + sign * other by _add_terms; only the coefficients other has are copied."""
        out = dict(self.terms)
        for v, t in other.terms.items():
            acc = _add_terms(dict(out.get(v, {})), t, sign)
            if acc:
                out[v] = acc
            else:
                out.pop(v, None)
        return VectorField.from_terms(self.coords, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        if not s:
            return VectorField(self.coords)
        terms = {v: {m: c * s for m, c in t.items()} for v, t in self.terms.items()}
        return VectorField.from_terms(self.coords, terms)

    def apply(self, poly: Polynomial) -> Polynomial:
        terms = _add_applied({}, self.terms, poly.terms, 1, self.coords.parities)
        return Polynomial._wrap(self.coords, terms)

    def parity(self):
        """Parity if homogeneous (None for the zero field), raises otherwise.

        Computed on first use and kept: a field is not changed after it is
        built.  A non-homogeneous field caches nothing and raises every time.
        """
        if self._parity is not _UNSET:
            return self._parity
        ps = set()
        for v, t in self.terms.items():
            for m in t:
                ps.add((mono_parity(m, self.coords) + self.coords.parities[v]) % 2)
        if len(ps) > 1:
            raise ValueError("non-homogeneous vector field")
        self._parity = ps.pop() if ps else None
        return self._parity

    def degree(self):
        ds = set()
        for v, t in self.terms.items():
            for m in t:
                ds.add(mono_degree(m, self.coords) - self.coords.degree(v))
        if not ds:
            return None
        if len(ds) > 1:
            raise ValueError(f"non-homogeneous vector field: {self}")
        return ds.pop()

    def bracket(self, other: "VectorField") -> "VectorField":
        """[X, Y] = X Y - (-1)^{p(X)p(Y)} Y X as superderivations, by bracket_terms."""
        px = self.parity()
        py = other.parity()
        if px is None or py is None:
            return VectorField(self.coords)
        terms = bracket_terms(self.terms, px, other.terms, py, self.coords.parities)
        return VectorField.from_terms(self.coords, terms, (px + py) % 2)

    def coordinates(self, monomial_index: Dict[Tuple[int, Monomial], int]) -> Dict[int, object]:
        """Sparse vector {position: coefficient} over an index (var, monomial) -> position."""
        return {monomial_index[(v, m)]: c for v, t in self.terms.items() for m, c in t.items()}

    def __str__(self):
        if not self.terms:
            return "0"
        coeffs = self.coeffs
        return " + ".join(f"({coeffs[v]})∂_{self.coords.names[v]}" for v in sorted(coeffs))

    __repr__ = __str__


def bracket_terms(x, px: int, y, py: int, parities):
    """[X, Y] of two term dicts {var: {monomial: scalar}} of parities px and py.

    Coefficientwise [X, Y]_v = X(g_v) - (-1)^{px py} Y(f_v), where f_v and g_v
    are the coefficients of X and Y.  Returns a new term dict of nonzeros with
    no empty coefficient; the inputs are not changed.
    """
    out = {}
    for v, g in y.items():
        acc = _add_applied({}, x, g, 1, parities)
        if acc:
            out[v] = acc
    s = 1 if (px and py) else -1
    for v, f in x.items():
        acc = out.get(v)
        acc = _add_applied({} if acc is None else acc, y, f, s, parities)
        if acc:
            out[v] = acc
        elif v in out:
            del out[v]
    return out


def _add_applied(acc: Dict[Monomial, object], x, g: Dict[Monomial, object], s: int, parities):
    """acc += s * X(g) for a term dict X and a polynomial's terms g; returns acc.

    acc maps monomials to nonzero scalars; a new key takes its first term as
    it is, so no value is ever added to a zero of another type.
    """
    for mono, c in g.items():
        for w, e in mono:
            f = x.get(w)
            if f is None:
                continue
            dmono, k = _mono_deriv(mono, w, e, parities)
            k *= s
            for m1, c1 in f.items():
                r = _mono_mul(m1, dmono, parities)
                if r is None:
                    continue
                mono_out, sign = r
                val = _scaled(c1 * c, k * sign)
                old = acc.get(mono_out)
                if old is None:
                    acc[mono_out] = val
                else:
                    val = old + val
                    if val:
                        acc[mono_out] = val
                    else:
                        del acc[mono_out]
    return acc


def clear_field(X: VectorField):
    """(den, terms): X times den as a new term dict, den the lcm of all its denominators.

    The denominators are those of the real and imaginary parts, and the
    values are those of scalars.cleared: ints, and GaussianRationals with
    integral parts for the values with a nonzero imaginary part.  Computed on
    every call; nothing is kept on X.
    """
    terms = X.terms
    den = common_denominator(c for t in terms.values() for c in t.values())
    return den, {v: {m: cleared(c, den) for m, c in t.items()} for v, t in terms.items()}


def add_product(acc: Dict[Monomial, object], f: Dict[Monomial, object], g: Dict[Monomial, object], parities):
    """acc += f * g for two term dicts, where acc maps monomials to nonzero scalars; returns acc.

    A new key takes its first term as it is, as in _add_applied, so integer
    input stays int.
    """
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            r = _mono_mul(m1, m2, parities)
            if r is None:
                continue
            mono, sign = r
            c = c1 * c2
            if sign < 0:
                c = -c
            old = acc.get(mono)
            if old is None:
                acc[mono] = c
                continue
            nv = old + c
            if nv:
                acc[mono] = nv
            else:
                del acc[mono]
    return acc


def coordinate_field(coords: Coords, var) -> VectorField:
    """The coordinate field d_k for var = k, an index in range(len(coords)), or a coordinate name.

    Built with its parity, the parity of coordinate k, already known.  Any
    other var, a negative index included, raises ValueError (Coords.position).
    """
    k = coords.position(var, "coordinate_field")
    return VectorField.from_terms(coords, {k: {ONE_MONO: coords.field.one}}, coords.parities[k])


def fields_of_degree(coords: Coords, d: int):
    """Canonical basis of degree-d fields m d_v, in the order of field_basis_index."""
    return [VectorField.from_terms(coords, {v: {m: coords.field.one}}) for v, m in field_basis_index(coords, d)[0]]


def field_basis_index(coords: Coords, d: int):
    """Index map (var, monomial) -> position matching fields_of_degree order."""
    index = {}
    pos = 0
    for v in range(len(coords)):
        target = d + coords.degree(v)
        for m in monomials_of_degree(coords, target):
            index[(v, m)] = pos
            pos += 1
    return index, pos
