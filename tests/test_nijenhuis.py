import random
from functools import partial

import pytest

from superalg import nijenhuis, polyvf
from superalg.nijenhuis import (
    EndomorphismField,
    _frame_component,
    monomial_fields_up_to,
    nijenhuis_tensor,
    standard_even_structure,
    standard_odd_structure,
)
from superalg.polyvf import Coords, Polynomial, VectorField, coordinate_field, mono_parity, monomials_of_degree
from superalg.scalars import FIELD_Q, FIELD_QI, ZERO, GaussianRational, gaussian, rational

from oracles import canonical_sha256, even_nijenhuis, odd_nijenhuis, tensoriality_defect


def test_flat_even_structure_squares():
    J = standard_even_structure(1, 0)
    assert J.square_is(-1)
    J2 = standard_even_structure(1, 1)
    assert J2.square_is(-1)


def test_flat_even_J_vanishes_on_R20():
    J = standard_even_structure(1, 0)
    fields = monomial_fields_up_to(J.coords, 2)
    for X in fields:
        for Y in fields:
            assert not nijenhuis_tensor(J, X, Y, "even")


def test_flat_even_J_vanishes_on_R22():
    J = standard_even_structure(1, 1)
    fields = monomial_fields_up_to(J.coords, 2)
    for X in fields:
        for Y in fields:
            assert not nijenhuis_tensor(J, X, Y, "even")


def test_flat_odd_structures_vanish_on_R11():
    for square in (-1, 1):
        J = standard_odd_structure(1, square)
        assert J.square_is(square)
        fields = monomial_fields_up_to(J.coords, 2)
        for X in fields:
            for Y in fields:
                assert not nijenhuis_tensor(J, X, Y, "odd")


def test_even_variant_rejects_non_complex_structure():
    coords = Coords(["x", "y"], [0, 0])
    J = EndomorphismField.from_constant_matrix(
        coords, {(0, 0): rational(1), (1, 1): rational(1)}, parity=0
    )
    with pytest.raises(ValueError, match=r"^even variant expects J\^2 = -id$"):
        nijenhuis_tensor(J, monomial_fields_up_to(coords, 0)[0], monomial_fields_up_to(coords, 0)[1], "even")


def test_nonflat_J_has_nonzero_tensor():
    # J d3 = d4 + x2 d1, J d4 = -d3 - x2 d2 squares to -1 but is curved
    from superalg.polyvf import VectorField, coordinate_field

    coords = Coords(["x_1", "x_2", "x_3", "x_4"], [0, 0, 0, 0])
    one = coords.one()
    x2 = coords.var("x_2")
    cols = {
        0: VectorField(coords, {1: one}),
        1: VectorField(coords, {0: -one}),
        2: VectorField(coords, {3: one, 0: x2}),
        3: VectorField(coords, {2: -one, 1: -x2}),
    }
    J = EndomorphismField(coords, cols, parity=0)
    assert J.square_is(-1)
    n = nijenhuis_tensor(J, coordinate_field(coords, 1), coordinate_field(coords, 2), "even")
    assert n, "a curved structure must have nonzero Nijenhuis tensor"


def test_tensoriality():
    """The four-term even expression, evaluated whole by the oracle, is
    function-linear for even f: the frame route of the even variant rests on it."""
    rng = random.Random(3)
    structures = ((standard_even_structure(1, 1), 12), (curved_even_structure(), 50), (curved_even_structure_r22(), 200))
    for J, draws in structures:
        coords = J.coords
        fields = monomial_fields_up_to(coords, 1)
        monos = [m for d in range(3) for m in monomials_of_degree(coords, d)]
        even_monos = [m for m in monos if mono_parity(m, coords) == 0]
        for _ in range(draws):
            X = rng.choice(fields)
            Y = rng.choice(fields)
            f = Polynomial(coords, {rng.choice(even_monos): FIELD_Q.random(rng)})
            assert not tensoriality_defect(partial(even_nijenhuis, J), X, Y, f)


def curved_odd_structure(s):
    """Odd J = A J0 A^-1 on R^{2|2} with J^2 = s; its frame components are not all 0.

    J d_x1 = d_θ1 + x_2 d_θ2, J d_x2 = d_θ2, J d_θ1 = s d_x1 - s x_2 d_x2, J d_θ2 = s d_x2.
    """
    coords = Coords(["x_1", "x_2", "θ_1", "θ_2"], [0, 0, 1, 1])
    one, x2 = coords.one(), coords.var("x_2")
    cols = {
        0: VectorField(coords, {2: one, 3: x2}),
        1: VectorField(coords, {3: one}),
        2: VectorField(coords, {0: one.scale(s), 1: x2.scale(-s)}),
        3: VectorField(coords, {1: one.scale(s)}),
    }
    return EndomorphismField(coords, cols, parity=1)


def curved_test_fields(coords):
    x1, x2, t1, t2 = (coords.var(k) for k in range(4))
    return [
        VectorField(coords, {0: x2 * t1, 2: x1 * x1 + t1 * t2}),
        VectorField(coords, {1: x1 + x2, 3: x1 * t2}),
        VectorField(coords, {0: coords.one(), 1: x1, 2: t2, 3: x2 * x2}),
    ]


# the (a, b) with N(d_a, d_b) != 0 for either sign of the curved odd J
CURVED_FRAME_PAIRS = {(0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 0), (2, 1), (2, 3), (3, 0), (3, 2)}

# N(X_i, X_j) for the curved odd J and curved_test_fields, keyed by (s, (i, j))
CURVED_VALUES = {
    (-1, (0, 1)): "((-1)*x_1*x_2*θ_1 + (1)*x_1^3*θ_2 + (-1)*x_2^2*θ_1)∂_x_2 + ((1)*x_1*x_2*θ_1*θ_2"
    " + (1)*x_1*θ_1*θ_2 + (1)*x_1^2*x_2 + (1)*x_1^3 + (1)*x_2*θ_1*θ_2)∂_θ_2",
    (-1, (1, 2)): "((1)*x_1 + (1)*x_2)∂_x_2 + ((-1)*x_2*θ_2)∂_θ_2",
    (-1, (2, 1)): "((-1)*x_1 + (-1)*x_2)∂_x_2 + ((2)*x_1*θ_2 + (1)*x_2*θ_2)∂_θ_2",
    (-1, (2, 2)): "((-2)*x_2^2*θ_2)∂_x_2 + ((-2)*x_2*θ_2 + (2)*x_2^2)∂_θ_2",
    (1, (0, 1)): "((1)*x_1*x_2*θ_1 + (1)*x_1^3*θ_2 + (1)*x_2^2*θ_1)∂_x_2 + ((-1)*x_1*x_2*θ_1*θ_2"
    " + (-1)*x_1*θ_1*θ_2 + (-1)*x_1^2*x_2 + (-1)*x_1^3 + (-1)*x_2*θ_1*θ_2)∂_θ_2",
    (1, (1, 2)): "((-1)*x_1 + (-1)*x_2)∂_x_2 + ((1)*x_2*θ_2)∂_θ_2",
    (1, (2, 1)): "((1)*x_1 + (1)*x_2)∂_x_2 + ((-2)*x_1*θ_2 + (-1)*x_2*θ_2)∂_θ_2",
    (1, (2, 2)): "((-2)*x_2^2*θ_2)∂_x_2 + ((2)*x_2*θ_2 + (-2)*x_2^2)∂_θ_2",
}


@pytest.mark.parametrize("s", (-1, 1))
def test_curved_odd_frame_components(s):
    J = curved_odd_structure(s)
    assert J.square == s
    d = [coordinate_field(J.coords, a) for a in range(4)]
    nonzero = {(a, b) for a in range(4) for b in range(4) if nijenhuis_tensor(J, d[a], d[b], "odd")}
    assert nonzero == CURVED_FRAME_PAIRS


@pytest.mark.parametrize("s", (-1, 1))
def test_curved_odd_values_match_pinned_strings(s):
    J = curved_odd_structure(s)
    fields = curved_test_fields(J.coords)
    values = {(i, j): nijenhuis_tensor(J, fields[i], fields[j], "odd") for i in range(3) for j in range(3)}
    assert not values[(0, 0)] and not values[(1, 1)]
    for (sign, ij), text in CURVED_VALUES.items():
        if sign == s:
            assert str(values[ij]) == text


def test_square_is_evaluated_once_per_structure(monkeypatch):
    squares = []
    square_is = EndomorphismField.square_is

    def counted_square(self, sign):
        squares.append(sign)
        return square_is(self, sign)

    monkeypatch.setattr(EndomorphismField, "square_is", counted_square)
    for J, variant in (
        (standard_even_structure(1, 0), "even"),
        (standard_odd_structure(1, 1), "odd"),
        (curved_odd_structure(1), "odd"),
    ):
        squares.clear()
        fields = monomial_fields_up_to(J.coords, 1)
        for X in fields:
            for Y in fields:
                nijenhuis_tensor(J, X, Y, variant)
        assert 1 <= len(squares) <= 2


def test_bad_square_and_bad_variant_raise_on_every_call():
    coords = Coords(["x", "θ"], [0, 1])
    J = EndomorphismField.from_constant_matrix(coords, {(1, 0): rational(1), (0, 1): rational(2)}, parity=1)
    assert J.square is None
    X = coordinate_field(coords, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^odd variant expects J\^2 = -id or \+id$"):
            nijenhuis_tensor(J, X, X, "odd")
        with pytest.raises(ValueError, match=r"^even variant expects J\^2 = -id$"):
            nijenhuis_tensor(J, X, X, "even")
    # an X on Pi's own coordinates, so that the variant is the only bad argument
    Pi = standard_odd_structure(1, 1)
    Y = coordinate_field(Pi.coords, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="^variant must be 'even' or 'odd'$"):
            nijenhuis_tensor(Pi, Y, Y, "both")


def test_endomorphism_field_is_immutable():
    coords = Coords(["x", "θ"], [0, 1])
    cols = {0: coordinate_field(coords, 1), 1: coordinate_field(coords, 0)}
    J = EndomorphismField(coords, cols, parity=1)
    with pytest.raises(TypeError, match="does not support item assignment"):
        J.columns[0] = cols[1]
    with pytest.raises(AttributeError, match=r"^EndomorphismField\.parity is read-only$"):
        J.parity = 0
    cols[0] = cols[1]  # the caller's dict is not the structure's
    assert J.columns[0] == coordinate_field(coords, 1)
    assert J.square == 1


@pytest.mark.parametrize("square", (-1, 1))
def test_odd_tensoriality(square):
    rng = random.Random(5)
    for J in (standard_odd_structure(1, square), curved_odd_structure(square)):
        coords = J.coords
        fields = monomial_fields_up_to(coords, 1)
        monos = [m for d in range(3) for m in monomials_of_degree(coords, d)]
        even_monos = [m for m in monos if mono_parity(m, coords) == 0]
        for _ in range(20):
            X = rng.choice(fields)
            Y = rng.choice(fields)
            f = Polynomial(coords, {rng.choice(even_monos): FIELD_Q.random(rng)})
            assert not tensoriality_defect(partial(nijenhuis_tensor, J, variant="odd"), X, Y, f)


def curved_even_structure(entry=rational(3, 5), field=FIELD_Q):
    """J on even x_1..x_4 with J d_3 = d_4 + a x_2 d_1, J d_4 = -d_3 - a x_2 d_2, a = entry.

    J^2 = -id and its tensor is nonzero on many pairs.
    """
    coords = Coords(["x_1", "x_2", "x_3", "x_4"], [0, 0, 0, 0], field=field)
    one = coords.one()
    x2 = coords.var("x_2").scale(entry)
    cols = {
        0: VectorField(coords, {1: one}),
        1: VectorField(coords, {0: -one}),
        2: VectorField(coords, {3: one, 0: x2}),
        3: VectorField(coords, {2: -one, 1: -x2}),
    }
    return EndomorphismField(coords, cols, parity=0)


def test_curved_even_values_match_the_four_term_formula():
    J = curved_even_structure()
    assert J.square == -1
    fields = monomial_fields_up_to(J.coords, 1)
    assert len(fields) ** 2 == 3600
    values = []
    for X in fields:
        for Y in fields:
            N = nijenhuis_tensor(J, X, Y, "even")
            assert N == even_nijenhuis(J, X, Y)
            values.append(N)
    assert sum(1 for N in values if N) == 2250
    assert all(type(c) is type(ZERO) for N in values for p in N.coeffs.values() for c in p.terms.values())
    doc = [
        [[v, sorted((str(m), str(c)) for m, c in p.terms.items())] for v, p in sorted(N.coeffs.items())]
        for N in values
    ]
    assert canonical_sha256(doc) == "09198415ea44c14b80d04340285cb4e55dd792b7f45f137a2ea8718b912b486f"


def test_curved_even_values_over_gaussian_rationals_match_the_four_term_formula():
    J = curved_even_structure(gaussian(rational(3, 5), rational(1, 2)), FIELD_QI)
    assert J.square == -1
    fields = monomial_fields_up_to(J.coords, 0)
    fields += [X.scale(gaussian(rational(1, 3), rational(2, 7))) for X in fields]
    nonzero = 0
    for X in fields:
        for Y in fields:
            N = nijenhuis_tensor(J, X, Y, "even")
            assert N == even_nijenhuis(J, X, Y)
            assert all(type(c) is GaussianRational for p in N.coeffs.values() for c in p.terms.values())
            nonzero += bool(N)
    assert nonzero > 0


def curved_even_structure_r22():
    """Even J on R^{2|2} (x_1, x_2, θ_1, θ_2) that mixes the odd directions with the even ones:

    J d_1 = d_2, J d_2 = -d_1,
    J d_θ1 = d_θ2 + θ_1 θ_2 d_θ1 + θ_1 d_1, J d_θ2 = -d_θ1 - θ_1 θ_2 d_θ2 - θ_1 d_2.
    """
    coords = Coords(["x_1", "x_2", "θ_1", "θ_2"], [0, 0, 1, 1])
    one, t1, t2 = coords.one(), coords.var("θ_1"), coords.var("θ_2")
    cols = {
        0: VectorField(coords, {1: one}),
        1: VectorField(coords, {0: -one}),
        2: VectorField(coords, {3: one, 2: t1 * t2, 0: t1}),
        3: VectorField(coords, {2: -one, 3: -(t1 * t2), 1: -t1}),
    }
    return EndomorphismField(coords, cols, parity=0)


def test_curved_even_values_with_odd_directions_match_the_four_term_formula():
    """The even frame route passes Y's coefficients past odd d_a with the Koszul sign."""
    J = curved_even_structure_r22()
    assert J.square == -1
    fields = monomial_fields_up_to(J.coords, 1)
    assert len(fields) ** 2 == 2704
    nonzero = 0
    for X in fields:
        for Y in fields:
            N = nijenhuis_tensor(J, X, Y, "even")
            assert N == even_nijenhuis(J, X, Y)
            nonzero += bool(N)
    assert nonzero == 552


def int_column_structure():
    """The flat even J on R^2 with its columns built on int scalars."""
    coords = Coords(["x", "y"], [0, 0])
    one, minus_one = Polynomial(coords, {(): 1}), Polynomial(coords, {(): -1})
    cols = {0: VectorField(coords, {1: one}), 1: VectorField(coords, {0: minus_one})}
    return EndomorphismField(coords, cols, parity=0)


def every_structure():
    """Each structure of this file and the four flat structures of the benchmark."""
    coords = Coords(["x", "θ"], [0, 1])
    return [
        standard_even_structure(1, 0),
        standard_even_structure(1, 1),
        standard_odd_structure(1, -1),
        standard_odd_structure(1, 1),
        standard_odd_structure(2, -1),
        curved_odd_structure(-1),
        curved_odd_structure(1),
        curved_even_structure(),
        curved_even_structure(rational(1)),
        curved_even_structure(gaussian(rational(3, 5), rational(1, 2)), FIELD_QI),
        curved_even_structure_r22(),
        EndomorphismField.from_constant_matrix(
            Coords(["x", "y"], [0, 0]), {(0, 0): rational(1), (1, 1): rational(1)}, parity=0
        ),
        EndomorphismField.from_constant_matrix(coords, {(1, 0): rational(1), (0, 1): rational(2)}, parity=1),
        EndomorphismField.from_constant_matrix(  # rational, Gaussian and zero entries over QQ(i)
            Coords(["x", "y"], [0, 0], field=FIELD_QI),
            {(1, 0): rational(1), (0, 1): gaussian(rational(-1, 2), rational(3)), (1, 1): rational(0)},
            parity=0,
        ),
        EndomorphismField(coords, {0: coordinate_field(coords, 1), 1: coordinate_field(coords, 0)}, parity=1),
        EndomorphismField(coords, {0: coordinate_field(coords, 1)}, parity=1),  # no column 1: J(d_θ) = 0
        int_column_structure(),
    ]


def value_types(X):
    return {(v, m): type(c) for v, p in X.coeffs.items() for m, c in p.terms.items()}


def test_columns_are_the_images_of_the_coordinate_fields():
    """The frame components read J(d_a) off the columns: same value, same value types."""
    for J in every_structure():
        coords = J.coords
        for a in range(len(coords)):
            col = J.columns.get(a, VectorField(coords))
            image = J.apply(coordinate_field(coords, a))
            assert col == image
            assert value_types(col) == value_types(image)


def test_fields_on_other_coordinates_are_rejected():
    J = standard_even_structure(1, 0)
    X = coordinate_field(J.coords, 0)
    other = coordinate_field(standard_even_structure(1, 1).coords, 0)
    twin = coordinate_field(Coords(list(J.coords.names), list(J.coords.parities)), 0)  # equal names, other object
    for Y in (other, twin):
        for args in ((X, Y), (Y, X)):
            with pytest.raises(ValueError, match="structure on"):
                nijenhuis_tensor(J, *args)


def test_non_fields_are_rejected():
    J = standard_even_structure(1, 0)
    X = coordinate_field(J.coords, 0)
    for bad in (1, None, "x_1", J.coords.one()):
        for args in ((bad, X), (X, bad)):
            with pytest.raises(TypeError, match="expected a VectorField"):
                nijenhuis_tensor(J, *args, "even")


@pytest.mark.parametrize("square", (0, 2, -2, None))
def test_standard_odd_structure_rejects_a_bad_square(square):
    with pytest.raises(ValueError, match="square"):
        standard_odd_structure(1, square)


@pytest.mark.parametrize("parity", (2, -1, None))
def test_structures_reject_a_bad_parity(parity):
    coords = Coords(["x", "θ"], [0, 1])
    with pytest.raises(ValueError, match="parity"):
        EndomorphismField(coords, {0: coordinate_field(coords, 1)}, parity=parity)
    with pytest.raises(ValueError, match="parity"):
        EndomorphismField.from_constant_matrix(coords, {(1, 0): rational(1)}, parity=parity)


def curved_structures():
    """(J, variant) for every curved structure of this file."""
    return [
        (curved_even_structure(), "even"),
        (curved_even_structure(gaussian(rational(3, 5), rational(1, 2)), FIELD_QI), "even"),
        (curved_even_structure_r22(), "even"),
        (curved_odd_structure(-1), "odd"),
        (curved_odd_structure(1), "odd"),
    ]


def test_frame_components_match_the_expression_on_coordinate_fields():
    """_frame_component differentiates J's columns by unit term dicts; its value is the
    whole expression of the variant evaluated on coordinate fields with VectorField.bracket."""
    oracle = {"even": even_nijenhuis, "odd": odd_nijenhuis}
    for J, variant in curved_structures():
        coords = J.coords
        d = [coordinate_field(coords, a) for a in range(len(coords))]
        nonzero = 0
        for a in range(len(coords)):
            for b in range(len(coords)):
                comp = VectorField.from_terms(coords, _frame_component(J, a, b, variant))
                expected = oracle[variant](J, d[a], d[b])
                assert comp == expected
                assert value_types(comp) == value_types(expected)
                nonzero += bool(comp)
        assert nonzero > 0


def test_odd_frame_components_are_pinned():
    doc = {}
    for s in (-1, 1):
        J = curved_odd_structure(s)
        for a in range(4):
            for b in range(4):
                terms = sorted(_frame_component(J, a, b, "odd").items())
                doc[f"{s}/{a}/{b}"] = [[v, sorted((str(m), str(c)) for m, c in t.items())] for v, t in terms]
    assert canonical_sha256(doc) == "42eefc26b07df5c84467c7ee78adc6349a6a073dea18d47ffdd1f35c62ccd785"


def test_the_tensor_builds_no_coordinate_field_once_the_square_is_known(monkeypatch):
    built = []
    make = polyvf.coordinate_field

    def counted(coords, var):
        built.append(var)
        return make(coords, var)

    monkeypatch.setattr(polyvf, "coordinate_field", counted)
    monkeypatch.setattr(nijenhuis, "coordinate_field", counted)
    for J, variant in curved_structures():
        assert J.square in (-1, 1)
        built.clear()
        fields = monomial_fields_up_to(J.coords, 1)[:12]
        for X in fields:
            for Y in fields:
                nijenhuis_tensor(J, X, Y, variant)
        assert built == []


def flat_structures():
    """(J, variant) for the four flat structures of the benchmark."""
    return [
        (standard_even_structure(1, 0), "even"),
        (standard_even_structure(1, 1), "even"),
        (standard_odd_structure(1, -1), "odd"),
        (standard_odd_structure(1, 1), "odd"),
    ]


def test_constant_is_whether_every_column_is_constant():
    for J, _ in flat_structures():
        assert J.constant is True
    for J, _ in curved_structures():
        assert J.constant is False
    for J in every_structure():
        coords = J.coords
        d = [coordinate_field(coords, a) for a in range(len(coords))]
        derivatives = [d[a].bracket(col) for a in range(len(coords)) for col in J.columns.values()]
        assert J.constant == (not any(derivatives))


def test_only_a_curved_structure_differentiates_its_columns(monkeypatch):
    """No bracket_terms call for a constant J; two per (a, b) term pair, as before, for a curved one."""
    calls = []
    bracket_terms = nijenhuis.bracket_terms

    def counted(*args):
        calls.append(args)
        return bracket_terms(*args)

    monkeypatch.setattr(nijenhuis, "bracket_terms", counted)
    for structures, per_pair in ((flat_structures(), 0), (curved_structures(), 2)):
        for J, variant in structures:
            fields = monomial_fields_up_to(J.coords, 1)[:10]
            for X in fields:
                for Y in fields:
                    calls.clear()
                    nijenhuis_tensor(J, X, Y, variant)
                    assert len(calls) == per_pair * len(X.terms) * len(Y.terms)


def test_each_frame_component_makes_one_bracket(monkeypatch):
    """One VectorField.bracket per (a, b) term pair: the count the traced pass reports."""
    calls = []
    bracket = VectorField.bracket

    def counted(self, other):
        calls.append(1)
        return bracket(self, other)

    monkeypatch.setattr(VectorField, "bracket", counted)
    for J, variant in curved_structures() + flat_structures():
        fields = monomial_fields_up_to(J.coords, 1)[:10]
        for X in fields:
            for Y in fields:
                calls.clear()
                nijenhuis_tensor(J, X, Y, variant)
                assert len(calls) == len(X.terms) * len(Y.terms)


def test_a_warm_structure_gives_the_tensors_of_a_fresh_one():
    for J, variant in curved_structures() + flat_structures():
        fields = monomial_fields_up_to(J.coords, 1)[:10]
        if not J.constant:
            fields += curved_test_fields(J.coords)
        for X in fields:
            for Y in fields:
                warm = nijenhuis_tensor(J, X, Y, variant)
                fresh = nijenhuis_tensor(EndomorphismField(J.coords, dict(J.columns), J.parity), X, Y, variant)
                assert warm == fresh
                assert value_types(warm) == value_types(fresh)


def test_mutating_a_returned_component_leaves_the_next_call_alone():
    for J, variant in curved_structures():
        n = len(J.coords)
        d = [coordinate_field(J.coords, a) for a in range(n)]
        for a in range(n):
            for b in range(n):
                before = _frame_component(J, a, b, variant)
                kept = {v: dict(t) for v, t in before.items()}
                for t in before.values():
                    for m in t:
                        t[m] = 0
                before[b] = {(): 5}
                assert _frame_component(J, a, b, variant) == kept
                N = nijenhuis_tensor(J, d[a], d[b], variant)
                N.terms.clear()
                assert nijenhuis_tensor(J, d[a], d[b], variant).terms == kept


def test_columns_keyed_off_the_coordinates_are_rejected():
    J = standard_even_structure(1, 0)
    coords, cols = J.coords, dict(J.columns)
    for key in (5, -1, 2, "x_1", None):
        with pytest.raises(ValueError, match="columns key"):
            EndomorphismField(coords, {**cols, key: coordinate_field(coords, 0)}, parity=0)
    off = VectorField.from_terms(coords, {5: {(): rational(1)}})
    with pytest.raises(ValueError, match=r"columns\[1\] term key 5"):
        EndomorphismField(coords, {0: cols[0], 1: off}, parity=0)


def test_columns_on_other_coordinates_are_rejected():
    J = standard_even_structure(1, 0)
    twin = Coords(list(J.coords.names), list(J.coords.parities))  # equal names, other object
    cols = {0: coordinate_field(twin, 1), 1: coordinate_field(twin, 0).scale(rational(-1))}
    with pytest.raises(ValueError, match=r"columns\[0\] is a field on"):
        EndomorphismField(J.coords, cols, parity=0)


def test_constant_matrix_entries_off_the_coordinates_are_rejected():
    coords = standard_even_structure(1, 0).coords
    with pytest.raises(ValueError, match="entries row 7"):
        EndomorphismField.from_constant_matrix(coords, {(1, 0): rational(1), (7, 0): rational(1)}, parity=0)
    with pytest.raises(ValueError, match="entries column -1"):
        EndomorphismField.from_constant_matrix(coords, {(1, 0): rational(1), (0, -1): rational(1)}, parity=0)


def test_columns_that_are_not_fields_are_rejected():
    coords = standard_even_structure(1, 0).coords
    for bad in (3, {0: 3}, coords.one()):
        with pytest.raises(TypeError, match=r"expected a VectorField for columns\[0\]"):
            EndomorphismField(coords, {0: bad}, parity=0)


def test_apply_rejects_a_field_on_other_coordinates_and_a_non_field():
    J = standard_even_structure(1, 0)
    other = coordinate_field(standard_even_structure(1, 1).coords, 0)
    with pytest.raises(ValueError, match="X is a field on"):
        J.apply(other)
    for bad in (3, None, J.coords.one()):
        with pytest.raises(TypeError, match="expected a VectorField for X"):
            J.apply(bad)


def test_the_tensor_rejects_a_structure_that_is_not_one():
    J = standard_even_structure(1, 0)
    X = coordinate_field(J.coords, 0)
    for bad in (None, 3, J.columns):
        with pytest.raises(TypeError, match="EndomorphismField for J"):
            nijenhuis_tensor(bad, X, X, "even")
