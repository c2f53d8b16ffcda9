import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg import grassmann
from superalg.grassmann import (
    CanonicalIso,
    GrassmannElement,
    NormalizationError,
    all_subsets,
    composed_iso_is_algebra_map,
    make_real_structure,
    normalize_generators,
    random_real_structure,
    real_form_basis,
    rho_bar,
    rho_tr,
    structural_subspaces,
)
from superalg.linalg import row_space_basis
from superalg.scalars import ZERO, GaussianRational, I, as_gaussian, format_scalar, gaussian, parse_scalar, rational

from oracles import canonical_sha256, grassmann_product


def th(n, *jk):
    out = GrassmannElement.one(n)
    for j in jk:
        out = out * GrassmannElement.generator(n, j)
    return out


def test_multiplication_signs():
    assert th(3, 0) * th(3, 1) == th(3, 0, 1)
    assert th(3, 1) * th(3, 0) == -th(3, 0, 1)
    assert not th(3, 1) * th(3, 1)


def test_unit_inverse_expansion():
    one = GrassmannElement.one(2)
    t1 = th(2, 0)
    assert (one + t1) * (one - t1) == one


def test_associativity_random():
    rng = random.Random(5)
    n = 3
    subsets = all_subsets(n)

    def rnd():
        return GrassmannElement(
            n, {rng.choice(subsets): gaussian(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)}
        )

    for _ in range(25):
        a, b, c = rnd(), rnd(), rnd()
        assert (a * b) * c == a * (b * c)


def parse_element(n: int, text: str) -> GrassmannElement:
    """Inverse of str(): sums of (scalar)*th_i^th_j monomials."""
    out = GrassmannElement(n)
    for chunk in text.replace("- ", "+ -").split(" + "):
        chunk = chunk.strip()
        if not chunk or chunk == "0":
            continue
        if ")*" in chunk:
            coef_s, mono = chunk.split(")*", 1)
            coef = parse_scalar(coef_s.lstrip("("))
        else:
            coef, mono = gaussian(1), chunk
        if mono == "1":
            subset = ()
        else:
            subset = tuple(sorted(int(p[2:]) - 1 for p in mono.split("^")))
        out = out + GrassmannElement(n, {subset: as_gaussian(coef)})
    return out


def test_serialization_roundtrip():
    n = 3
    a = GrassmannElement(n, {(0, 2): gaussian(rational(3, 5), rational(4, 5)), (): gaussian(2)})
    s = str(a)
    assert "th1^th3" in s
    assert parse_element(n, s) == a


def test_rho_bar_canonical():
    rho = rho_bar(1)
    basis = real_form_basis(rho)
    assert len(basis) == 2
    # the canonical form is spanned by 1 and theta
    iso = CanonicalIso(rho)
    assert iso.check()
    ts = normalize_generators(rho)
    assert ts[0] == th(1, 0)


def test_rho_bar_rejects_non_unit_phase():
    with pytest.raises(ValueError):
        rho_bar(1, [gaussian(2)])


def test_rho_bar_needs_one_phase_per_generator():
    for phases in ([1], [1, 1, 5], [1, 1, 1]):
        with pytest.raises(ValueError, match="need 2 phases"):
            rho_bar(2, phases)
    assert rho_bar(2, [1, I]).validate() == []


def test_elements_on_different_generator_counts_do_not_mix():
    a, b = GrassmannElement.generator(2, 0), GrassmannElement.generator(3, 2)
    for op in (lambda: a * b, lambda: b * a, lambda: a + b, lambda: b - a):
        with pytest.raises(ValueError, match="generators in an operation on"):
            op()
    with pytest.raises(ValueError, match="on 3 generators in an operation on 2"):
        grassmann._combination(2, [(gaussian(1), a), (gaussian(1), b)])
    # scalars still scale, and equal sizes still combine
    assert a * 2 == 2 * a == a + a
    assert grassmann._combination(2, [(gaussian(2), a), (I, th(2, 1))]) == a * 2 + th(2, 1) * I


def test_rho_bar_pythagorean_phase():
    lam = gaussian(rational(3, 5), rational(4, 5))
    rho = rho_bar(1, [lam])
    assert rho.validate() == []
    basis = real_form_basis(rho)
    assert len(basis) == 2
    # the fixed line inside G_1 is spanned by (1 + conj(lambda)) theta
    fixed_line = [a for a in basis if a.in_nilpotent_ideal()]
    assert len(fixed_line) == 1
    v = fixed_line[0]
    assert rho.apply(v) == v
    ts = normalize_generators(rho)
    assert rho.apply(ts[0]) == ts[0]
    assert not ts[0] * ts[0]


def test_rho_tr_valid_and_normalizes():
    rho = rho_tr(2)
    assert rho.validate() == []
    # rho^2(xi) = rho(i eta) = -i rho(eta) = -i i xi = xi
    xi = GrassmannElement.generator(2, 0)
    assert rho.apply(rho.apply(xi)) == xi
    ts = normalize_generators(rho)
    assert len(ts) == 2
    for a in ts:
        for b in ts:
            assert not a * b + b * a
    iso = CanonicalIso(rho)
    assert iso.check()


def test_invalid_structure_reports_generator():
    # rho(theta) = 2 theta is not involutive
    imgs = [GrassmannElement(1, {(0,): gaussian(2)})]
    with pytest.raises(ValueError) as exc:
        make_real_structure(imgs)
    assert "generator 1" in str(exc.value)


def test_fixed_space_dimension_random():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        rho, _ = random_real_structure(n, rng)
        basis = real_form_basis(rho)
        assert len(basis) == 2 ** n
        # RE is closed under multiplication
        for a in basis[:4]:
            for b in basis[:4]:
                prod = a * b
                assert rho.apply(prod) == prod


def test_structural_subspaces():
    sub2 = structural_subspaces(2)
    assert set(sub2["center"]) == {(), (0, 1)}
    sub3 = structural_subspaces(3)
    assert set(sub3["center"]) == {(), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    assert set(sub3["odd_minus"]) == {(0,), (1,), (2,)}


def test_structural_subspaces_n1_keeps_the_generator_in_odd_minus():
    # for n = 1 the central top monomial is theta itself; dropping it from
    # odd_minus left every fixed generator with a non-central tail
    sub1 = structural_subspaces(1)
    assert set(sub1["odd_minus"]) == {(0,)}
    assert set(sub1["center"]) == {(), (0,)}
    assert sub1["center_cap_G2"] == []
    rng = random.Random(31)
    for _ in range(5):
        rho, _ = random_real_structure(1, rng)
        ts = normalize_generators(rho)
        assert CanonicalIso(rho, ts).check()


def test_rho_preserves_nilpotent_ideal():
    rng = random.Random(13)
    for n in (2, 3):
        rho, _ = random_real_structure(n, rng)
        for j in range(n):
            img = rho.apply(GrassmannElement.generator(n, j))
            assert img.in_nilpotent_ideal()


def test_realification_splits():
    # RE + i RE = everything, RE ∩ i RE = 0
    rng = random.Random(17)
    rho, _ = random_real_structure(2, rng)
    basis = real_form_basis(rho)
    subsets = all_subsets(2)
    pos = {s: k for k, s in enumerate(subsets)}
    vecs = [rho.element_to_vec(a, pos) for a in basis]
    vecs += [rho.element_to_vec(a.scale(I), pos) for a in basis]
    assert len(row_space_basis(vecs, 2 * len(subsets))) == 2 * len(subsets)


def test_normalization_random_campaign_small():
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(5):
            rho, _ = random_real_structure(n, rng)
            ts = normalize_generators(rho)
            iso = CanonicalIso(rho, ts)
            assert iso.check()


def test_check_rejects_generators_that_are_not_an_isomorphism():
    # shifted generators span the real form but square to nonzero, so
    # multiplicativity fails; repeated ones do not span it, so the rank fails
    rng = random.Random(37)
    for n in (2, 3):
        rho, _ = random_real_structure(n, rng)
        ts = normalize_generators(rho)
        assert CanonicalIso(rho, ts).check()
        shifted = CanonicalIso(rho, [ts[0], ts[1] + GrassmannElement.one(n)] + ts[2:])
        assert shifted._solver.rank == 2 ** n
        assert not shifted.check()
        repeated = CanonicalIso(rho, [ts[0], ts[0]] + ts[2:])
        assert repeated._solver.rank < 2 ** n
        assert not repeated.check()


def test_pairwise_isomorphism():
    rng = random.Random(29)
    rho1, _ = random_real_structure(2, rng)
    rho2, _ = random_real_structure(2, rng)
    assert composed_iso_is_algebra_map(rho1, rho2)


def test_no_canonical_form_witness():
    # two valid structures with distinct fixed subspaces
    rho1 = rho_bar(1)
    rho2 = rho_bar(1, [gaussian(rational(3, 5), rational(4, 5))])
    b1 = real_form_basis(rho1)
    b2 = real_form_basis(rho2)
    subsets = all_subsets(1)
    pos = {s: k for k, s in enumerate(subsets)}
    v1 = [rho1.element_to_vec(a, pos) for a in b1]
    joint = v1 + [rho2.element_to_vec(a, pos) for a in b2]
    assert len(row_space_basis(joint, 2 * len(subsets))) > len(row_space_basis(v1, 2 * len(subsets)))


GAUSSIAN_RATIONALS = st.builds(
    lambda a, b, c, d: gaussian(rational(a, b), rational(c, d)),
    st.integers(-12, 12),
    st.integers(1, 12),
    st.integers(-12, 12),
    st.integers(1, 12),
)


@st.composite
def element_triples(draw):
    """Three elements of Lambda_C(n), n <= 4, with up to 6 terms each."""
    n = draw(st.integers(1, 4))
    subsets = st.sampled_from(all_subsets(n))
    return tuple(
        GrassmannElement(n, draw(st.dictionaries(subsets, GAUSSIAN_RATIONALS, max_size=6))) for _ in range(3)
    )


def assert_gaussian_values(a):
    for c in a.terms.values():
        assert type(c) is GaussianRational and c
        assert type(c.re) is type(ZERO) and type(c.im) is type(ZERO)


@settings(max_examples=200, deadline=None)
@given(element_triples())
def test_product_is_the_term_by_term_product_and_associative(abc):
    a, b, c = abc
    ab = a * b
    assert ab == grassmann_product(a, b)
    abc_left, abc_right = ab * c, a * (b * c)
    assert abc_left == abc_right
    for x in (ab, abc_left, abc_right):
        assert_gaussian_values(x)


def test_product_that_cancels_has_no_terms():
    a = GrassmannElement(2, {(0,): gaussian(rational(1, 3)), (1,): gaussian(0, rational(1, 2))})
    assert (a * a).terms == {}
    b = GrassmannElement(2, {(): gaussian(rational(1, 6), 1), (0, 1): gaussian(rational(5, 4))})
    prod = a * b + b * a
    assert set(prod.terms) == {(0,), (1,)}
    assert_gaussian_values(prod)


def test_normalized_generators_are_pinned():
    def dump(a):
        return [[list(s), format_scalar(c)] for s, c in sorted(a.terms.items())]

    doc = {}
    for n in range(1, 5):
        for seed in range(1, 6):
            rho = random_real_structure(n, random.Random(1000 * n + seed))[0]
            ts = normalize_generators(rho)
            doc[f"{n}/{seed}"] = {"ts": [dump(t) for t in ts], "images": [dump(x) for x in rho.images]}
    assert canonical_sha256(doc) == "0feec6a2a69594789a24ef813805b6b86f80d608762c888552f37a122654f5d3"
