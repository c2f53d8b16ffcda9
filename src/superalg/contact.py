"""Contact and pericontact vector fields from generating functions.

K_f lives on coordinates (t, p, q, xi, eta [, theta]) and preserves the
distribution of the odd contact form alpha1 up to the factor K_1(f); M_f lives
on (q, xi, tau) and preserves the even form alpha0.  The standard grading puts
t and tau in degree 2 and every other coordinate in degree 1, so K_f has
degree wt(f) - 2.

Spans of contact fields assemble into truncated graded Lie superalgebras
through prolong.algebra_of_fields; the bracket closure [K_f, K_g] = K_{f,g}
is recomputed and verified on every build, not assumed.  A span that fails to
close raises prolong.ProlongError (it used to raise ValueError).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .algebra import LieSuperAlgebra
from .constructors import check_ints
from .polyvf import Coords, OneForm, Polynomial, VectorField, coordinate_field, monomials_of_degree
from .prolong import algebra_of_fields
from .scalars import FIELD_Q, rational


def contact_coords(n: int, m: int, field=FIELD_Q) -> Coords:
    """Coordinates t, p_i, q_i, xi_j, eta_j and theta for odd m, graded (2,1,..,1)."""
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
    c.meta = {"kind": "contact", "n": n, "m": m}
    return c


def pericontact_coords(n: int, field=FIELD_Q) -> Coords:
    """Coordinates q_i, xi_i and the odd tau of degree 2."""
    names = [f"q_{i + 1}" for i in range(n)] + [f"ξ_{i + 1}" for i in range(n)] + ["τ"]
    parities = [0] * n + [1] * n + [1]
    degrees = [1] * (2 * n) + [2]
    c = Coords(names, parities, degrees, field=field)
    c.meta = {"kind": "pericontact", "n": n}
    return c


def _euler(coords: Coords, skip: str) -> List[int]:
    out = []
    for v, name in enumerate(coords.names):
        if name == skip:
            continue
        out.append(v)
    return out


def hamiltonian_field(f: Polynomial, coords: Coords) -> VectorField:
    """H_f on the non-t coordinates, with the sign rule on the odd pairs."""
    meta = coords.meta
    n, m = meta["n"], meta["m"]
    k = m // 2
    pf = f.parity()
    if pf is None:
        return VectorField(coords)
    sgn = -1 if pf else 1
    out = VectorField(coords)
    for i in range(n):
        pi = coords.index[f"p_{i + 1}"]
        qi = coords.index[f"q_{i + 1}"]
        out = out + VectorField(coords, {qi: f.deriv(pi)}) - VectorField(coords, {pi: f.deriv(qi)})
    for j in range(k):
        xj = coords.index[f"ξ_{j + 1}"]
        ej = coords.index[f"η_{j + 1}"]
        out = out - VectorField(coords, {ej: f.deriv(xj).scale(sgn), xj: f.deriv(ej).scale(sgn)})
    if m % 2:
        # the theta term carries the same parity sign as the xi-eta block;
        # pinned by the L_{K_f} alpha1 = K_1(f) alpha1 identity
        th = coords.index["θ"]
        out = out + VectorField(coords, {th: f.deriv(th).scale(sgn)})
    return out


def contact_field(f: Polynomial, coords: Optional[Coords] = None) -> VectorField:
    """K_f = (2 - E)(f) d_t - H_f + (df/dt) E."""
    if coords is None:
        coords = f.coords
    meta = getattr(coords, "meta", None)
    if not meta or meta.get("kind") != "contact":
        raise ValueError("contact_field needs contact coordinates (t, p, q, ξ, η[, θ])")
    t = coords.index["t"]
    others = _euler(coords, "t")
    two_minus_E = f.scale(rational(2))
    for v in others:
        xv = coords.var(v)
        d = f.deriv(v)
        if d:
            two_minus_E = two_minus_E - xv * d
    out = VectorField(coords, {t: two_minus_E})
    out = out - hamiltonian_field(f, coords)
    ft = f.deriv(t)
    if ft:
        for v in others:
            out = out + VectorField(coords, {v: ft * coords.var(v)})
    return out


def periplectic_field(f: Polynomial, coords: Coords) -> VectorField:
    """Le_f = sum (df/dq_i d_xi_i + (-1)^{p(f)} df/dxi_i d_q_i)."""
    n = coords.meta["n"]
    pf = f.parity()
    if pf is None:
        return VectorField(coords)
    sgn = -1 if pf else 1
    out = VectorField(coords)
    for i in range(n):
        qi = coords.index[f"q_{i + 1}"]
        xi = coords.index[f"ξ_{i + 1}"]
        out = out + VectorField(coords, {xi: f.deriv(qi), qi: f.deriv(xi).scale(sgn)})
    return out


def pericontact_field(f: Polynomial, coords: Optional[Coords] = None) -> VectorField:
    """M_f = (2 - E)(f) d_tau - Le_f - (-1)^{p(f)} (df/dtau) E."""
    if coords is None:
        coords = f.coords
    meta = getattr(coords, "meta", None)
    if not meta or meta.get("kind") != "pericontact":
        raise ValueError("pericontact_field needs coordinates (q, ξ, τ)")
    tau = coords.index["τ"]
    others = _euler(coords, "τ")
    two_minus_E = f.scale(rational(2))
    for v in others:
        d = f.deriv(v)
        if d:
            two_minus_E = two_minus_E - coords.var(v) * d
    out = VectorField(coords, {tau: two_minus_E})
    # with left derivatives the periplectic term enters with a plus; pinned by
    # the L_{M_f} alpha0 identity on a monomial batch
    out = out + periplectic_field(f, coords)
    ftau = f.deriv(tau)
    if ftau:
        pf = f.parity()
        sgn = -1 if pf else 1
        for v in others:
            out = out - VectorField(coords, {v: ftau * coords.var(v)}).scale(sgn)
    return out


def contact_form(coords: Coords) -> OneForm:
    """alpha1 = dt - sum(p dq - q dp) - sum(ξ dη + η dξ) [+ θ dθ]."""
    meta = coords.meta
    n, m = meta["n"], meta["m"]
    k = m // 2
    coeffs: Dict[int, Polynomial] = {coords.index["t"]: coords.one()}
    for i in range(n):
        coeffs[coords.index[f"q_{i + 1}"]] = -coords.var(f"p_{i + 1}")
        coeffs[coords.index[f"p_{i + 1}"]] = coords.var(f"q_{i + 1}")
    for j in range(k):
        coeffs[coords.index[f"η_{j + 1}"]] = -coords.var(f"ξ_{j + 1}")
        coeffs[coords.index[f"ξ_{j + 1}"]] = -coords.var(f"η_{j + 1}")
    if m % 2:
        coeffs[coords.index["θ"]] = coords.var("θ")
    return OneForm(coords, coeffs)


def pericontact_form(coords: Coords) -> OneForm:
    """alpha0 = dtau + sum(ξ dq + q dξ)."""
    n = coords.meta["n"]
    coeffs: Dict[int, Polynomial] = {coords.index["τ"]: coords.one()}
    for i in range(n):
        coeffs[coords.index[f"q_{i + 1}"]] = coords.var(f"ξ_{i + 1}")
        coeffs[coords.index[f"ξ_{i + 1}"]] = coords.var(f"q_{i + 1}")
    return OneForm(coords, coeffs)


def _lie_identity_holds(X: VectorField, alpha: OneForm, factor: Polynomial, coords: Coords) -> bool:
    """Compare L_X(alpha) with factor*alpha through pairings with every d_b."""
    px = X.parity()
    if px is None:
        return True
    scaled = OneForm(coords, {v: factor * c for v, c in alpha.coeffs.items()})
    for b in range(len(coords)):
        db = coordinate_field(coords, b)
        s = px * (coords.parities[b] + 1)
        sign = -1 if s % 2 else 1
        lhs = (X.apply(alpha.pair(db)) - alpha.pair(X.bracket(db))).scale(sign)
        if lhs != scaled.pair(db):
            return False
    return True


def check_contact_invariance(f: Polynomial, coords: Coords) -> bool:
    """L_{K_f}(alpha1) must equal K_1(f) alpha1 (the distribution is preserved)."""
    alpha = contact_form(coords)
    K = contact_field(f, coords)
    factor = f.deriv(coords.index["t"]).scale(rational(2))
    return _lie_identity_holds(K, alpha, factor, coords)


def check_pericontact_invariance(f: Polynomial, coords: Coords) -> bool:
    """L_{M_f}(alpha0) = -(-1)^{p(f)} M_1(f) alpha0, with M_1(f) = 2 df/dtau."""
    alpha = pericontact_form(coords)
    M = pericontact_field(f, coords)
    pf = f.parity()
    sgn = -1 if pf else 1
    factor = f.deriv(coords.index["τ"]).scale(rational(-2) * sgn)
    return _lie_identity_holds(M, alpha, factor, coords)


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
    prefix_{label}.  The brackets are expanded by prolong.algebra_of_fields,
    which raises ProlongError when the span does not close.
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
