"""Contact and pericontact vector fields from generating functions.

Both fields are one formula.  With E = sum_{v != top} x_v d_v the Euler field
off the top coordinate and sigma = (-1)^{p(f)},

    X_f = (2 - E)(f) d_top + sum_{(u, v, s, odd)} s sigma^odd (d_u f) d_v
          + e sigma^odd_e (d_top f) E,

and only the table differs, which the coordinates carry on coords.meta: the
index top, the pairs (u, v, s, odd) and euler = (e, odd_e).

- Contact, on (t, p, q, ξ, η [, θ]): K_f = (2 - E)(f) d_t - H_f + (d_t f) E.
  top is t, the pairs are (p_i -> q_i, -1, 0), (q_i -> p_i, +1, 0),
  (ξ_j -> η_j, +1, 1), (η_j -> ξ_j, +1, 1) and (θ -> θ, -1, 1), and euler
  is (+1, 0).  K_f preserves the distribution of the odd contact form alpha1
  up to the factor K_1(f).
- Pericontact, on (q, ξ, τ): M_f = (2 - E)(f) d_τ + Le_f - sigma (d_τ f) E.
  top is τ, the pairs are (q_i -> ξ_i, +1, 0) and (ξ_i -> q_i, +1, 1), and
  euler is (-1, 1).  M_f preserves the distribution of the even form alpha0.

The standard grading puts t and τ in degree 2 and every other coordinate in
degree 1, so X_f has degree wt(f) - 2.

Spans of contact fields assemble into truncated graded Lie superalgebras
through prolong.algebra_of_fields, on the record of realized fields that
prolong keeps: the fields, in ascending degree, are its gens, each is
bracketed with those of negative degree (K_1 and K_f, f linear) and solved
in the span of its degree, and the rest of the table is derived by
super-Jacobi.  The closure is checked exactly on every build, not assumed: a
span that fails to close raises prolong.ProlongError.
"""

from __future__ import annotations

from typing import Optional

from .algebra import LieSuperAlgebra
from .constructors import check_ints
from .polyvf import Coords, Polynomial, VectorField, monomials_of_degree
from .prolong import algebra_of_fields
from .scalars import FIELD_Q, rational


def contact_coords(n: int, m: int, field=FIELD_Q) -> Coords:
    """Coordinates t, p_i, q_i, xi_j, eta_j and theta for odd m, graded (2,1,..,1).

    meta holds n, m and the table of K_f: top, pairs and euler.
    """
    check_ints(n=n, m=m)
    names = ["t"]
    parities = [0]
    for i in range(n):
        names.append(f"p_{i + 1}")
        parities.append(0)
    for i in range(n):
        names.append(f"q_{i + 1}")
        parities.append(0)
    k = m // 2
    for j in range(k):
        names.append(f"ξ_{j + 1}")
        parities.append(1)
    for j in range(k):
        names.append(f"η_{j + 1}")
        parities.append(1)
    if m % 2:
        names.append("θ")
        parities.append(1)
    degrees = [2] + [1] * (len(names) - 1)
    c = Coords(names, parities, degrees, field=field)
    p, q, xi, eta = 1, 1 + n, 1 + 2 * n, 1 + 2 * n + k
    pairs = [(p + i, q + i, -1, 0) for i in range(n)] + [(q + i, p + i, 1, 0) for i in range(n)]
    pairs += [(xi + j, eta + j, 1, 1) for j in range(k)] + [(eta + j, xi + j, 1, 1) for j in range(k)]
    if m % 2:
        # θ takes the parity sign of the ξ-η block, with a minus; pinned by
        # the L_{K_f} alpha1 = K_1(f) alpha1 identity
        pairs.append((xi + 2 * k, xi + 2 * k, -1, 1))
    c.meta = {"kind": "contact", "n": n, "m": m, "top": 0, "pairs": pairs, "euler": (1, 0)}
    return c


def pericontact_coords(n: int, field=FIELD_Q) -> Coords:
    """Coordinates q_i, xi_i and the odd tau of degree 2.

    meta holds n and the table of M_f: top, pairs and euler.
    """
    check_ints(n=n)
    names = [f"q_{i + 1}" for i in range(n)] + [f"ξ_{i + 1}" for i in range(n)] + ["τ"]
    parities = [0] * n + [1] * n + [1]
    degrees = [1] * (2 * n) + [2]
    c = Coords(names, parities, degrees, field=field)
    # with left derivatives Le_f = sum (d_q f d_ξ + sigma d_ξ f d_q) enters
    # with a plus; pinned by the L_{M_f} alpha0 identity on a monomial batch
    pairs = [(i, n + i, 1, 0) for i in range(n)] + [(n + i, i, 1, 1) for i in range(n)]
    c.meta = {"kind": "pericontact", "n": n, "top": 2 * n, "pairs": pairs, "euler": (-1, 1)}
    return c


def _generated_field(f: Polynomial, coords: Optional[Coords], kind: str, needs: str) -> VectorField:
    """X_f on the table of coords.meta, for coordinates of the given kind; see the module docstring."""
    if not isinstance(f, Polynomial):
        raise TypeError(f"{kind}_field: f is not a Polynomial: {f!r}")
    if coords is None:
        coords = f.coords
    meta = getattr(coords, "meta", None)
    if not meta or meta.get("kind") != kind:
        raise ValueError(f"{kind}_field needs {needs}")
    if f.coords is not coords:
        raise ValueError(f"{kind}_field: f is on {f.coords!r}, not on {coords!r}")
    pf = f.parity()
    if pf is None:
        return VectorField(coords)
    sigma = -1 if pf else 1
    top = meta["top"]
    others = [v for v in range(len(coords)) if v != top]
    two_minus_E = f.scale(rational(2))
    for v in others:
        d = f.deriv(v)
        if d:
            two_minus_E = two_minus_E - coords.var(v) * d
    coeffs = {top: two_minus_E}
    for u, v, s, odd in meta["pairs"]:
        coeffs[v] = f.deriv(u).scale(s * sigma if odd else s)
    ftop = f.deriv(top)
    if ftop:
        e, odd = meta["euler"]
        ftop = ftop.scale(e * sigma if odd else e)
        # every coordinate but top is the target of a pair
        for v in others:
            coeffs[v] += ftop * coords.var(v)
    return VectorField(coords, coeffs)


def contact_field(f: Polynomial, coords: Optional[Coords] = None) -> VectorField:
    """K_f = (2 - E)(f) d_t - H_f + (df/dt) E."""
    return _generated_field(f, coords, "contact", "contact coordinates (t, p, q, ξ, η[, θ])")


def pericontact_field(f: Polynomial, coords: Optional[Coords] = None) -> VectorField:
    """M_f = (2 - E)(f) d_tau - Le_f - (-1)^{p(f)} (df/dtau) E."""
    return _generated_field(f, coords, "pericontact", "coordinates (q, ξ, τ)")


# -- truncated graded algebras from generating-function spans ---------------------


def _monomial_label(m, coords: Coords) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        nm = coords.names[v]
        parts.append(nm if e == 1 else f"{nm}^{e}")
    return "".join(parts)


def span_algebra(
    coords: Coords,
    builder,
    prefix: str,
    max_degree: int,
    *,
    name: str = "",
    cartan=None,
    raising=None,
    lowering=None,
) -> LieSuperAlgebra:
    """Graded algebra spanned by builder(monomial) over weights 0..max_degree+2.

    builder maps a generating monomial to a vector field; basis ids are
    prefix_{label}.  prolong.algebra_of_fields derives the brackets and
    raises ProlongError when the span does not close.
    """
    gens = []
    for w in range(0, max_degree + 3):
        for m in monomials_of_degree(coords, w):
            X = builder(Polynomial(coords, {m: coords.field.one}))
            if X:
                gens.append((f"{prefix}_{{{_monomial_label(m, coords)}}}", X.parity(), w - 2, X))
    return algebra_of_fields(
        coords, gens, max_degree, name=name, cartan=cartan, raising=raising, lowering=lowering
    )


def contact_algebra(n: int, m: int, max_degree: int, field=FIELD_Q) -> LieSuperAlgebra:
    """k(2n+1|m) spanned by K_f, truncated at max_degree, with o(m) torus data."""
    check_ints(n=n, m=m, max_degree=max_degree)
    coords = contact_coords(n, m, field=field)
    k = m // 2
    cartan = [f"K_{{ξ_{j + 1}η_{j + 1}}}" for j in range(k)]
    raising = []
    lowering = []
    for i in range(k):
        for j in range(k):
            if i < j:
                raising.append(f"K_{{ξ_{i + 1}η_{j + 1}}}")
                raising.append(f"K_{{ξ_{i + 1}ξ_{j + 1}}}")
                lowering.append(f"K_{{ξ_{j + 1}η_{i + 1}}}")
                lowering.append(f"K_{{η_{i + 1}η_{j + 1}}}")
    if m % 2:
        for i in range(k):
            raising.append(f"K_{{ξ_{i + 1}θ}}")
            lowering.append(f"K_{{η_{i + 1}θ}}")
    return span_algebra(
        coords,
        lambda f: contact_field(f, coords),
        "K",
        max_degree,
        name=f"k({2 * n + 1}|{m})",
        cartan=cartan,
        raising=raising,
        lowering=lowering,
    )


def pericontact_algebra(n: int, max_degree: int, field=FIELD_Q) -> LieSuperAlgebra:
    """m(n) spanned by M_f, truncated at max_degree."""
    check_ints(n=n, max_degree=max_degree)
    coords = pericontact_coords(n, field=field)
    cartan = [f"M_{{q_{i + 1}ξ_{i + 1}}}" for i in range(n)]
    return span_algebra(
        coords,
        lambda f: pericontact_field(f, coords),
        "M",
        max_degree,
        name=f"m({n})",
        cartan=cartan,
    )
