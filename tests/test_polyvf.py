import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superalg.polyvf import (
    Coords,
    Polynomial,
    VectorField,
    _mono_mul,
    bracket_terms,
    clear_field,
    coordinate_field,
    fields_of_degree,
    mono_parity,
    monomials_of_degree,
)
from superalg.scalars import FIELD_Q, FIELD_QI, GaussianRational, gaussian, rational

from oracles import monomial_derivative, monomial_product


def xy_theta():
    return Coords(["x", "y", "θ1", "θ2"], [0, 0, 1, 1])


def random_poly(coords, rng, max_terms=4, field=FIELD_Q):
    monos = []
    for d in range(4):
        monos += monomials_of_degree(coords, d)
    terms = {}
    for _ in range(max_terms):
        terms[rng.choice(monos)] = field.random(rng)
    return Polynomial(coords, terms)


def random_field(coords, rng, parity=None):
    # homogeneous parity fields only, as required by the bracket
    while True:
        v = rng.randrange(len(coords))
        monos = [m for d in range(4) for m in monomials_of_degree(coords, d)]
        from superalg.polyvf import mono_parity

        if parity is not None:
            monos = [m for m in monos if (mono_parity(m, coords) + coords.parities[v]) % 2 == parity]
            if not monos:
                continue
        m = rng.choice(monos)
        c = FIELD_Q.random(rng)
        if not c:
            continue
        return VectorField(coords, {v: Polynomial(coords, {m: c})})


def test_odd_variables_anticommute():
    c = xy_theta()
    t1, t2 = c.var("θ1"), c.var("θ2")
    assert t1 * t2 == -(t2 * t1)
    assert not (t1 * t1)


def test_grassmann_inverse_expansion():
    c = xy_theta()
    one = c.one()
    t1 = c.var("θ1")
    assert (one + t1) * (one - t1) == one


def test_poly_multiplication_associative():
    rng = random.Random(13)
    c = xy_theta()
    for _ in range(20):
        p, q, r = (random_poly(c, rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_left_derivative_signs():
    c = xy_theta()
    t1, t2 = c.var("θ1"), c.var("θ2")
    p = t1 * t2
    # d/dθ2 must move past θ1: sign -1
    assert p.deriv(c.index["θ2"]) == -t1
    assert p.deriv(c.index["θ1"]) == t2
    x = c.var("x")
    assert (x * x * t1).deriv(c.index["x"]) == (x * t1).scale(2)


def test_derivative_leibniz():
    rng = random.Random(31)
    c = xy_theta()
    from superalg.polyvf import mono_parity

    for _ in range(25):
        p = random_poly(c, rng)
        q = random_poly(c, rng)
        for v in range(len(c)):
            if c.parities[v]:
                # split p into parity-homogeneous parts for the graded rule
                p_ev = Polynomial(c, {m: x for m, x in p.terms.items() if mono_parity(m, c) == 0})
                p_od = p - p_ev
                lhs = (p * q).deriv(v)
                rhs = p.deriv(v) * q + p_ev * q.deriv(v) - p_od * q.deriv(v)
            else:
                lhs = (p * q).deriv(v)
                rhs = p.deriv(v) * q + p * q.deriv(v)
            assert lhs == rhs


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(47)
    c = xy_theta()
    for _ in range(25):
        X = random_field(c, rng)
        Y = random_field(c, rng)
        Z = random_field(c, rng)
        px, py, pz = X.parity(), Y.parity(), Z.parity()
        sxy = -1 if (px and py) else 1
        assert X.bracket(Y) == Y.bracket(X).scale(-sxy)
        # graded Jacobi: (-1)^{px pz}[X,[Y,Z]] + cyclic = 0
        sxz = -1 if (px and pz) else 1
        syx = -1 if (py and px) else 1
        szy = -1 if (pz and py) else 1
        total = (
            X.bracket(Y.bracket(Z)).scale(sxz)
            + Y.bracket(Z.bracket(X)).scale(syx)
            + Z.bracket(X.bracket(Y)).scale(szy)
        )
        assert not total


def test_bracket_is_commutator_on_functions():
    rng = random.Random(53)
    c = xy_theta()
    for _ in range(15):
        X = random_field(c, rng)
        Y = random_field(c, rng)
        f = random_poly(c, rng)
        sign = -1 if (X.parity() and Y.parity()) else 1
        lhs = X.bracket(Y).apply(f)
        rhs = X.apply(Y.apply(f)) - Y.apply(X.apply(f)).scale(sign)
        assert lhs == rhs


def test_fields_of_degree_enumeration():
    c = Coords(["x", "θ"], [0, 1])
    # degree 1 fields on 1|1: coefficients of degree 2 over x, θ
    basis = fields_of_degree(c, 1)
    assert len(basis) == 4  # {x^2, xθ} per derivative
    degs = {f.degree() for f in basis}
    assert degs == {1}


def test_graded_coords_degrees():
    c = Coords(["t", "ξ"], [0, 1], degrees=[2, 1])
    monos = monomials_of_degree(c, 3)
    # weight 3 monomials in t (deg 2), ξ (deg 1): t*ξ only
    assert len(monos) == 1
    f = coordinate_field(c, "t")
    assert f.degree() == -2


def test_gaussian_coefficients_work():
    c = Coords(["x"], [0], field=FIELD_QI)
    rng = random.Random(3)
    p = Polynomial(c, {((0, 2),): FIELD_QI.random(rng)})
    X = VectorField(c, {0: p})
    Y = coordinate_field(c, "x")
    b = X.bracket(Y)
    assert b.degree() == 0


def random_homogeneous_field(coords, rng, parity, field=FIELD_Q, max_terms=5):
    """A sum of several monomial fields, all of the given parity."""
    from superalg.polyvf import mono_parity

    monos = [m for d in range(4) for m in monomials_of_degree(coords, d)]
    slots = [(v, m) for v in range(len(coords)) for m in monos
             if (mono_parity(m, coords) + coords.parities[v]) % 2 == parity]
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        v, m = rng.choice(slots)
        terms = coeffs.setdefault(v, {})
        terms[m] = terms.get(m, field.zero) + field.random(rng)
    return VectorField(coords, {v: Polynomial(coords, t) for v, t in coeffs.items()})


def reference_apply(Z, h):
    """Z(h) = sum_w z_w * dh/dw through Polynomial products and derivatives."""
    out = Z.coords.zero()
    for w, z in Z.coeffs.items():
        out = out + z * h.deriv(w)
    return out


def reference_bracket(X, Y):
    """[X, Y]_v = X(g_v) - (-1)^{p(X)p(Y)} Y(f_v)."""
    coords = X.coords
    px, py = X.parity(), Y.parity()
    if px is None or py is None:
        return VectorField(coords)
    sign = -1 if (px and py) else 1
    out = {}
    for v, g in Y.coeffs.items():
        out[v] = out.get(v, coords.zero()) + reference_apply(X, g)
    for v, f in X.coeffs.items():
        out[v] = out.get(v, coords.zero()) - reference_apply(Y, f).scale(sign)
    return VectorField(coords, out)


def test_bracket_matches_the_apply_formula_on_random_homogeneous_fields():
    rng = random.Random(97)
    odd_odd = 0
    for trial in range(150):
        field = FIELD_QI if trial % 5 == 0 else FIELD_Q
        c = Coords(["x", "y", "θ1", "θ2", "θ3"], [0, 0, 1, 1, 1], field=field)
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        X = random_homogeneous_field(c, rng, px, field)
        Y = random_homogeneous_field(c, rng, py, field)
        br = X.bracket(Y)
        assert br == reference_bracket(X, Y)
        odd_odd += bool(px and py and br)
        g = random_poly(c, rng, field=field)
        assert X.apply(g) == reference_apply(X, g)
    assert odd_odd > 10


def test_coordinates_are_a_sparse_dict():
    c = xy_theta()
    X = VectorField(c, {0: c.var("θ1") * c.var("θ2"), 2: c.var("x").scale(rational(3))})
    index = {(0, ((2, 1), (3, 1))): 4, (2, ((0, 1),)): 0, (1, ((0, 1),)): 1}
    assert X.coordinates(index) == {4: rational(1), 0: rational(3)}
    assert VectorField(c).coordinates(index) == {}


def test_coords_accept_field_names_and_reject_unknown_fields():
    assert Coords(["x"], [0], field="Q(i)").field is FIELD_QI
    assert Coords(["x"], [0], field="Q").field is FIELD_Q
    for bad in ("Q(j)", 2, None):
        with pytest.raises(ValueError, match=f"^unknown field {re.escape(repr(bad))}$"):
            Coords(["x"], [0], field=bad)


def test_parity_is_cached_including_the_zero_fields_none():
    c = xy_theta()
    t1 = c.var("θ1")
    odd = VectorField(c, {0: t1})  # θ1 ∂_x is odd
    assert odd.parity() == 1
    assert odd._parity == 1  # kept after the first call
    assert odd.parity() == 1 and odd.bracket(coordinate_field(c, "θ1")).parity() == 0
    zero = VectorField(c)
    assert zero.parity() is None
    assert zero._parity is None  # None is a cached value, not "not yet computed"
    assert zero.parity() is None
    assert not zero.bracket(odd) and not odd.bracket(zero)


def test_non_homogeneous_field_raises_on_every_call():
    c = xy_theta()
    mixed = VectorField(c, {0: c.one() + c.var("θ1")})  # ∂_x + θ1 ∂_x
    for _ in range(2):
        with pytest.raises(ValueError, match="non-homogeneous"):
            mixed.parity()
    with pytest.raises(ValueError, match="non-homogeneous"):
        mixed.bracket(coordinate_field(c, "x"))


# -- the term-dict kernel ------------------------------------------------------

# x, t even and θ1, θ2, θ3 odd; t and θ3 have degree 2, the others degree 1
GRADED = Coords(["x", "t", "θ1", "θ2", "θ3"], [0, 0, 1, 1, 1], degrees=[1, 2, 1, 1, 2])
RATIONAL = type(rational(1))
NONZERO_RATIONALS = st.builds(rational, st.integers(-9, 9).filter(bool), st.integers(1, 12))


def slots(parity, degree):
    """The (var, monomial) pairs of the monomial fields of one parity and degree."""
    return [
        (v, m)
        for v in range(len(GRADED))
        for m in monomials_of_degree(GRADED, degree + GRADED.degree(v))
        if (mono_parity(m, GRADED) + GRADED.parities[v]) % 2 == parity
    ]


@st.composite
def homogeneous_fields(draw):
    """(X, parity): a field of one parity and one degree with rational coefficients."""
    parity = draw(st.integers(0, 1))
    choices = slots(parity, draw(st.integers(-2, 2)))
    picked = draw(st.lists(st.sampled_from(choices), max_size=5, unique=True)) if choices else []
    terms = {}
    for v, m in picked:
        terms.setdefault(v, {})[m] = draw(NONZERO_RATIONALS)
    return VectorField(GRADED, {v: Polynomial(GRADED, t) for v, t in terms.items()}), parity


def from_terms(terms, scale):
    """The field of a term dict on GRADED, every value times scale."""
    coeffs = {v: Polynomial(GRADED, {m: c * scale for m, c in t.items()}) for v, t in terms.items()}
    return VectorField(GRADED, coeffs)


@settings(max_examples=150, deadline=None)
@given(homogeneous_fields(), homogeneous_fields())
def test_kernel_on_cleared_fields_is_the_field_bracket(xp, yp):
    (X, px), (Y, py) = xp, yp
    (dx, cx), (dy, cy) = clear_field(X), clear_field(Y)
    for den, cleared, field in ((dx, cx, X), (dy, cy, Y)):
        assert all(type(c) is int for t in cleared.values() for c in t.values())
        assert from_terms(cleared, rational(1, den)) == field
    br = X.bracket(Y)
    assert from_terms(bracket_terms(cx, px, cy, py, GRADED.parities), rational(1, dx * dy)) == br
    # Fraction input gives only rational values, never an int or a GaussianRational
    assert all(type(c) is RATIONAL for p in br.coeffs.values() for c in p.terms.values())
    # [X, Y](f) = X(Y(f)) - (-1)^{p(X)p(Y)} Y(X(f)) on every monomial f of degree <= 2
    sign = -1 if (px and py) else 1
    for d in range(3):
        for m in monomials_of_degree(GRADED, d):
            f = Polynomial(GRADED, {m: rational(1)})
            assert br.apply(f) == X.apply(Y.apply(f)) - Y.apply(X.apply(f)).scale(sign), m


def test_clear_field_over_gaussian_rationals():
    c = Coords(["x", "θ"], [0, 1], field=FIELD_QI)
    X = VectorField(c, {0: Polynomial(c, {((0, 1),): gaussian(rational(1, 6), rational(3, 4))}),
                        1: Polynomial(c, {((0, 1), (1, 1)): gaussian(rational(-2, 9), 0)})})
    den, terms = clear_field(X)
    assert den == 36
    assert terms == {0: {((0, 1),): gaussian(6, 27)}, 1: {((0, 1), (1, 1)): -8}}
    # scalars.cleared: an int for a real value, a Gaussian integer only with an imaginary part
    assert type(terms[1][((0, 1), (1, 1))]) is int
    v = terms[0][((0, 1),)]
    assert isinstance(v, GaussianRational) and v.re.denominator == v.im.denominator == 1
    Y = coordinate_field(c, "x")
    dy, ty = clear_field(Y)
    br = bracket_terms(terms, 0, ty, 0, c.parities)
    assert VectorField(c, {v: Polynomial(c, {m: x * rational(1, den * dy) for m, x in t.items()})
                           for v, t in br.items()}) == X.bracket(Y)


def test_integer_polynomials_stay_integer_in_sums_and_products():
    c = Coords(["x", "θ"], [0, 1])
    x, t = ((0, 1),), ((1, 1),)
    f = Polynomial(c, {(): 2, x: 3})
    g = Polynomial(c, {x: -3, t: 5})
    for p in (f + g, f * g, f - g):
        assert p.terms and all(type(v) is int for v in p.terms.values())
    assert (f + g).terms == {(): 2, t: 5}


def test_clear_field_gives_integers_and_their_denominator():
    c = Coords(["x", "y"], [0, 0])
    X = VectorField(c, {0: Polynomial(c, {((1, 1),): rational(2, 3)})})
    assert clear_field(X) == (3, {0: {((1, 1),): 2}})


# -- subtraction and coordinate fields -----------------------------------------

# a small monomial pool, so that the keys of two drawn fields often collide
SUB_MONOS = [m for d in range(3) for m in monomials_of_degree(GRADED, d)][:8]
SUB_RATIONALS = st.builds(rational, st.integers(-9, 9), st.integers(1, 12))
SUB_SCALARS = (
    st.integers(-9, 9),
    SUB_RATIONALS,
    st.builds(gaussian, SUB_RATIONALS, SUB_RATIONALS),
)


def field_of(terms):
    """The field on GRADED of {(var, monomial): scalar}; zero values are dropped by the constructors."""
    coeffs = {}
    for (v, m), c in terms.items():
        coeffs.setdefault(v, {})[m] = c
    return VectorField(GRADED, {v: Polynomial(GRADED, t) for v, t in coeffs.items()})


@st.composite
def field_pairs(draw):
    """(X, Y, s) with values of one scalar type, int, Fraction or GaussianRational, and s of that type.

    Y repeats some of X's terms, so that subtraction cancels whole terms and
    whole coefficients as well as inserting and changing them; s may be zero.
    """
    scalar = draw(st.sampled_from(SUB_SCALARS))
    keys = st.tuples(st.integers(0, len(GRADED) - 1), st.sampled_from(SUB_MONOS))
    x = draw(st.dictionaries(keys, scalar, max_size=6))
    y = draw(st.dictionaries(keys, scalar, max_size=6))
    for k in draw(st.lists(st.sampled_from(sorted(x)), unique=True)) if x else []:
        y[k] = x[k]
    return field_of(x), field_of(y), draw(scalar)


def value_types(X):
    return {(v, m): type(c) for v, p in X.coeffs.items() for m, c in p.terms.items()}


def only_nonzeros(X):
    return all(t and all(t.values()) for t in X.terms.values())


@settings(max_examples=200, deadline=None)
@given(field_pairs())
def test_subtraction_is_addition_of_the_negative(pair):
    X, Y, s = pair
    before = [{v: dict(t) for v, t in Z.terms.items()} for Z in (X, Y)]
    D, expected = X - Y, X + (-Y)
    assert D == expected and value_types(D) == value_types(expected)
    # every result of +, -, unary - and scale holds only nonzeros of the
    # operands' scalar type, and its coeffs are views of its term dicts
    kind = type(s)
    for R in (D, X + Y, -X, X.scale(s), X - X):
        assert only_nonzeros(R)
        assert all(type(c) is kind for t in R.terms.values() for c in t.values())
        assert all(R.coeffs[v].terms is t for v, t in R.terms.items())
    for v in range(len(GRADED)):
        f, g = X.coeffs.get(v, GRADED.zero()), Y.coeffs.get(v, GRADED.zero())
        d, e = f - g, f + (-g)
        assert d == e and {m: type(c) for m, c in d.terms.items()} == {m: type(c) for m, c in e.terms.items()}
        for r in (d, f + g, -f, f.scale(s)):
            assert all(r.terms.values()) and all(type(c) is kind for c in r.terms.values())
        assert not (f - f) and (f - f).terms == {}
    assert not (X - X) and (X - X).terms == {}
    assert [{v: dict(t) for v, t in Z.terms.items()} for Z in (X, Y)] == before  # the operands are not changed


def test_coordinate_field_has_its_parity_and_the_value_of_the_filtered_construction():
    for coords in (xy_theta(), GRADED, Coords(["x", "θ"], [0, 1], field=FIELD_QI)):
        for k in range(len(coords)):
            for var in (k, coords.names[k]):
                d = coordinate_field(coords, var)
                built = VectorField(coords, {k: coords.one()})
                assert d._parity == coords.parities[k] == built.parity()
                assert d == built and value_types(d) == value_types(built)
                assert d.terms == {k: {(): coords.field.one}}


@pytest.mark.parametrize("bad", (-1, -4, 4, 99, "z", True, 1.0, None))
def test_coordinate_field_rejects_bad_indices_and_names(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        coordinate_field(xy_theta(), bad)


@pytest.mark.parametrize("bad", (-1, -4, 4, 7, "z", True, 1.0, None))
def test_var_and_vector_field_keys_reject_bad_indices_and_names(bad):
    # -1 used to be read as the last coordinate and True as y; var(4) built a
    # polynomial that failed later, and VectorField(c, {7: p}) was built
    c = xy_theta()
    with pytest.raises(ValueError, match=r"^Coords\.var: no coordinate " + re.escape(repr(bad))):
        c.var(bad)
    with pytest.raises(ValueError, match=r"^VectorField coeffs: no coordinate " + re.escape(repr(bad))):
        VectorField(c, {bad: c.var("x")})


def test_vector_field_rejects_a_coefficient_that_is_not_a_polynomial():
    c = xy_theta()
    # a scalar used to raise AttributeError
    for bad in (3, rational(1, 2), coordinate_field(c, "x"), {(): 1}):
        with pytest.raises(TypeError, match=r"coefficient of 0 is not a Polynomial"):
            VectorField(c, {0: bad})


def test_vector_field_rejects_a_coefficient_on_other_coordinates():
    # it used to be built, and its str raised IndexError
    c, other = xy_theta(), Coords(["u", "v", "w", "s", "t"], [0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match=r"coefficient of 0 is on Coords\(\['u'"):
        VectorField(c, {0: other.var("t")})
    # equal names are not the same coordinates
    with pytest.raises(ValueError, match="coefficient of 1 is on"):
        VectorField(c, {1: xy_theta().var("x")})


def test_vector_field_keys_name_or_index_a_coordinate_once():
    c = xy_theta()
    x, t1 = c.var("x"), c.var("θ1")
    by_name = VectorField(c, {"y": x, "θ2": t1, "x": c.zero()})
    assert by_name == VectorField(c, {1: x, 3: t1}) and list(by_name.terms) == [1, 3]
    with pytest.raises(ValueError, match="coordinate 'y' is keyed twice"):
        VectorField(c, {1: x, "y": t1})


def test_from_terms_stays_unchecked():
    # its contract: the caller vouches for the terms
    c = xy_theta()
    assert VectorField.from_terms(c, {7: {(): 1}}).terms == {7: {(): 1}}


# -- the merging monomial product against the factor-list oracle -----------------

MONO_PARITIES = [0, 1, 0, 1, 1, 0, 1]


@st.composite
def canonical_monomials(draw):
    """A canonical monomial over MONO_PARITIES: sorted variables, odd ones to the first power."""
    variables = sorted(draw(st.sets(st.integers(0, len(MONO_PARITIES) - 1), max_size=5)))
    return tuple((v, 1 if MONO_PARITIES[v] else draw(st.integers(1, 3))) for v in variables)


@settings(max_examples=400, deadline=None)
@given(canonical_monomials(), canonical_monomials())
@example((), ())
@example(((1, 1),), ((1, 1),))  # an odd square is zero
@example(((0, 2), (3, 1)), ((0, 1), (1, 1)))  # a repeated even variable, one odd pass
@example(((3, 1), (4, 1), (6, 1)), ((1, 1), (5, 2)))  # three odd factors of m1 to the right
@example(((1, 1), (2, 1)), ((2, 3), (4, 1), (6, 1)))
def test_monomial_product_agrees_with_the_factor_list_oracle(m1, m2):
    assert _mono_mul(m1, m2, MONO_PARITIES) == monomial_product(m1, m2, MONO_PARITIES)


# -- the derivative, on the bracket kernel, against the factor-list oracle -------

MONO_COORDS = Coords([f"x{k}" for k in range(len(MONO_PARITIES))], MONO_PARITIES)


@st.composite
def polynomials_and_variables(draw):
    """(terms, var): a term dict of one scalar type, int, Fraction or GaussianRational, and a variable."""
    scalar = draw(st.sampled_from(SUB_SCALARS))
    terms = draw(st.dictionaries(canonical_monomials(), scalar, max_size=5))
    return terms, draw(st.integers(0, len(MONO_PARITIES) - 1))


@settings(max_examples=300, deadline=None)
@given(polynomials_and_variables())
@example(({((1, 1), (3, 1)): 2}, 3))  # an odd variable behind an odd factor: one sign
@example(({((0, 3), (1, 1)): rational(1, 2)}, 0))  # an even cube: the factor 3
@example(({((1, 1), (2, 2), (4, 1)): gaussian(1, 2), ((2, 1),): gaussian(0, 1)}, 4))
def test_deriv_agrees_with_the_factor_list_oracle(drawn):
    terms, var = drawn
    p = Polynomial(MONO_COORDS, terms)
    expected = {}
    for m, c in p.terms.items():
        r = monomial_derivative(m, var, MONO_PARITIES)
        if r is not None:
            expected[r[0]] = c * r[1]
    d = p.deriv(var)
    assert d.terms == expected
    # the value type of the input is kept: an int stays an int
    assert {type(c) for c in d.terms.values()} <= {type(c) for c in p.terms.values()}


def test_coordinates_and_inhomogeneous_values_raise_named_errors():
    for names, parities, degrees, message in (
        (["x"], [0, 1], None, "names and parities length mismatch"),
        (["x"], [0], [1, 2], "degrees length mismatch"),
        (["x", "x"], [0, 0], None, "duplicate coordinate names"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Coords(names, parities, degrees)
    c = Coords(["x", "θ"], [0, 1])
    x, theta = c.var("x"), c.var("θ")
    with pytest.raises(ValueError, match=r"^non-homogeneous polynomial: \(1\)\*x \+ \(1\)\*θ$"):
        (x + theta).parity()
    with pytest.raises(ValueError, match=r"^non-homogeneous vector field: \(\(1\)\*1 \+ \(1\)\*x\)∂_x$"):
        VectorField(c, {0: c.one() + x}).degree()
