"""Complex Grassmann algebras, real structures, and normalized real forms.

A real structure is an antilinear involutive algebra automorphism rho of
Lambda_C(n); its fixed subspace RE_rho is a real form.  All real forms are
isomorphic: normalize_generators produces n anticommuting fixed generators by
projecting a fixed basis to the degree-1 quotient, splitting off the central
high-degree tail and averaging with rho; CanonicalIso then sends them to the
standard generators.

Scalars are Gaussian rationals, so unit phases are Pythagorean units like
(3+4i)/5 rather than exp(i phi); the algebraic phenomena are identical.

Products run on Gaussian integers: each factor is cleared to integer (re, im)
pairs over one common denominator, the pairs are multiplied and summed as
ints, and each output coefficient is built once by dividing by the product of
the two denominators.  The division is exact and the rationals are reduced, so
every coefficient is the same GaussianRational that term-by-term arithmetic
gives, and a product that cancels to zero has no key, as before.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import SpanSolver, kernel_basis, rank, row_space_basis
from .scalars import (
    FIELD_QI,
    GaussianRational,
    I,
    ONE,
    ZERO,
    as_gaussian,
    common_denominator,
    format_scalar,
    gaussian,
    rational,
)

Subset = Tuple[int, ...]


class GrassmannElement:
    """An element of Lambda_C(n): maps index subsets to Gaussian rationals."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Dict[Subset, object]] = None):
        self.n = n
        self.terms = {}
        for s, c in (terms or {}).items():
            c = as_gaussian(c)
            if c:
                self.terms[tuple(s)] = c

    @classmethod
    def generator(cls, n: int, j: int):
        return cls(n, {(j,): gaussian(1)})

    @classmethod
    def one(cls, n: int):
        return cls(n, {(): gaussian(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, GrassmannElement) and self.n == other.n and self.terms == other.terms

    def __add__(self, other):
        _check_size(self.n, other)
        out = dict(self.terms)
        for s, c in other.terms.items():
            old = out.get(s)
            if old is None:
                out[s] = c
                continue
            nv = old + c
            if nv:
                out[s] = nv
            else:
                del out[s]
        return GrassmannElement(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GrassmannElement(self.n, {s: -c for s, c in self.terms.items()})

    def scale(self, z):
        z = as_gaussian(z)
        return GrassmannElement(self.n, {s: c * z for s, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            return self.scale(other)
        _check_size(self.n, other)
        den_a, a = _cleared(self)
        den_b, b = _cleared(other)
        acc: Dict[Subset, List[int]] = {}
        for s1, (r1, i1) in a:
            for s2, (r2, i2) in b:
                merged = _merge(s1, s2)
                if merged is None:
                    continue
                s, sign = merged
                re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
                if sign < 0:
                    re, im = -re, -im
                old = acc.get(s)
                if old is None:
                    acc[s] = [re, im]
                else:
                    old[0] += re
                    old[1] += im
        den = den_a * den_b
        # the constructor drops the coefficients that cancelled to zero
        return GrassmannElement(
            self.n, {s: GaussianRational(rational(re, den), rational(im, den)) for s, (re, im) in acc.items()}
        )

    __rmul__ = scale

    def conjugate(self):
        return GrassmannElement(self.n, {s: c.conjugate() for s, c in self.terms.items()})

    def is_odd(self):
        return bool(self.terms) and all(len(s) % 2 == 1 for s in self.terms)

    def in_nilpotent_ideal(self):
        return () not in self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for s in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[s]
            mono = "^".join(f"th{j + 1}" for j in s) if s else "1"
            parts.append(f"({format_scalar(c)})*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


def _check_size(n: int, element: GrassmannElement):
    if element.n != n:
        raise ValueError(f"Grassmann element on {element.n} generators in an operation on {n}")


def _cleared(a: GrassmannElement):
    """(den, [(subset, (re, im))]): a times den as Gaussian integer pairs, one den for all terms."""
    den = common_denominator(a.terms.values())
    return den, [
        (s, (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator)))
        for s, c in a.terms.items()
    ]


def _combination(n: int, pairs) -> GrassmannElement:
    """sum c * element over (c, element) pairs, accumulated in one dict."""
    out: Dict[Subset, object] = {}
    for c, element in pairs:
        _check_size(n, element)
        for s, v in element.terms.items():
            old = out.get(s)
            out[s] = c * v if old is None else old + c * v
    # the constructor drops the coefficients that cancelled to zero
    return GrassmannElement(n, out)


def _merge(s1: Subset, s2: Subset):
    if set(s1) & set(s2):
        return None
    sign = 1
    for a in s1:
        for b in s2:
            if a > b:
                sign = -sign
    return tuple(sorted(s1 + s2)), sign


def all_subsets(n: int) -> List[Subset]:
    out = [()]
    for k in range(1, n + 1):
        out.extend(combinations(range(n), k))
    return out


# -- real structures ---------------------------------------------------------


class RealStructure:
    """rho determined by generator images; antilinear and multiplicative."""

    def __init__(self, n: int, images: Sequence[GrassmannElement]):
        if len(images) != n:
            raise ValueError(f"need {n} generator images")
        self.n = n
        self.images = list(images)
        self._monomial_cache: Dict[Subset, GrassmannElement] = {(): GrassmannElement.one(n)}

    def _image_of_monomial(self, s: Subset) -> GrassmannElement:
        cached = self._monomial_cache.get(s)
        if cached is not None:
            return cached
        out = GrassmannElement.one(self.n)
        for j in s:
            out = out * self.images[j]
        self._monomial_cache[s] = out
        return out

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        return _combination(self.n, ((c.conjugate(), self._image_of_monomial(s)) for s, c in a.terms.items()))

    def validate(self):
        """[] when rho is a real structure; list of (generator, reason) otherwise."""
        bad = []
        for j, img in enumerate(self.images):
            if not img.is_odd():
                bad.append((j, "image is not odd"))
                continue
            if not img.in_nilpotent_ideal():
                bad.append((j, "image has a constant term"))
                continue
            twice = self.apply(self.apply(GrassmannElement.generator(self.n, j)))
            if twice != GrassmannElement.generator(self.n, j):
                bad.append((j, "rho^2 is not the identity"))
        return bad

    # realified coordinates: (subset index, re/im)
    def _coords(self):
        subsets = all_subsets(self.n)
        pos = {s: k for k, s in enumerate(subsets)}
        return subsets, pos

    @staticmethod
    def element_to_vec(a: GrassmannElement, pos):
        vec = {}
        for s, c in a.terms.items():
            if c.re:
                vec[2 * pos[s]] = c.re
            if c.im:
                vec[2 * pos[s] + 1] = c.im
        return vec

    def vec_to_element(self, vec, subsets):
        terms = {}
        for k, s in enumerate(subsets):
            re, im = vec.get(2 * k, ZERO), vec.get(2 * k + 1, ZERO)
            if re or im:
                terms[s] = GaussianRational(re, im)
        return GrassmannElement(self.n, terms)

    def realified_matrix(self):
        """rho on the 2*2^n dimensional real carrier, as {(row, col): scalar}."""
        subsets, pos = self._coords()
        entries = {}
        for k, s in enumerate(subsets):
            img = self._image_of_monomial(s)
            for t, c in img.terms.items():
                # rho(theta_S) contributes to columns of the re-part
                if c.re:
                    entries[(2 * pos[t], 2 * k)] = c.re
                if c.im:
                    entries[(2 * pos[t] + 1, 2 * k)] = c.im
                # rho(i theta_S) = -i rho(theta_S)
                if c.im:
                    entries[(2 * pos[t], 2 * k + 1)] = c.im
                if c.re:
                    entries[(2 * pos[t] + 1, 2 * k + 1)] = -c.re
        return entries, subsets, pos


def make_real_structure(images: Sequence[GrassmannElement]) -> RealStructure:
    n = len(images)
    rho = RealStructure(n, images)
    bad = rho.validate()
    if bad:
        j, reason = bad[0]
        raise ValueError(f"invalid real structure at generator {j + 1}: {reason}")
    return rho


def rho_bar(n: int, phases: Optional[Sequence[object]] = None) -> RealStructure:
    """Componentwise conjugation twisted by unit phases (lambda conj(lambda)=1), one per generator."""
    if phases is not None and len(phases) != n:
        raise ValueError(f"need {n} phases, got {len(phases)}")
    images = []
    for j in range(n):
        lam = as_gaussian(phases[j]) if phases is not None else gaussian(1)
        if lam * lam.conjugate() != gaussian(1):
            raise ValueError(f"phase {lam} is not a unit")
        images.append(GrassmannElement(n, {(j,): lam}))
    return make_real_structure(images)


def rho_tr(n: int) -> RealStructure:
    """xi_j -> i eta_j, eta_j -> i xi_j on n = 2k generators."""
    if n % 2:
        raise ValueError("rho_tr needs an even number of generators")
    k = n // 2
    images = []
    for j in range(k):
        images.append(GrassmannElement(n, {(k + j,): I}))
    for j in range(k):
        images.append(GrassmannElement(n, {(j,): I}))
    return make_real_structure(images)


def random_real_structure(n: int, rng: random.Random):
    """g . conj . g^{-1} for a random polynomial automorphism g; always valid.

    Returns (rho, discarded) where discarded counts candidates rejected for a
    singular linear part.
    """
    discarded = 0
    while True:
        M = [[FIELD_QI.random(rng, 2) for _ in range(n)] for _ in range(n)]
        if rank([{c: as_gaussian(x) for c, x in enumerate(row) if x} for row in M], n) != n:
            discarded += 1
            continue
        break
    cubics = list(combinations(range(n), 3))
    g_images = []
    for j in range(n):
        terms: Dict[Subset, object] = {}
        for k in range(n):
            if M[j][k]:
                terms[(k,)] = M[j][k]
        for _ in range(2):
            if cubics:
                s = rng.choice(cubics)
                c = FIELD_QI.random(rng, 2)
                if c:
                    terms[s] = terms.get(s, gaussian(0)) + c
        g_images.append(GrassmannElement(n, terms))
    g = _Automorphism(n, g_images)
    images = [g.apply(g.inverse_image(GrassmannElement.generator(n, j)).conjugate()) for j in range(n)]
    return make_real_structure(images), discarded


class _Automorphism:
    """A polynomial algebra automorphism given on generators (linear part invertible)."""

    def __init__(self, n: int, images: Sequence[GrassmannElement]):
        self.n = n
        self.images = list(images)
        self._cache: Dict[Subset, GrassmannElement] = {(): GrassmannElement.one(n)}
        subsets = all_subsets(n)
        pos = {s: k for k, s in enumerate(subsets)}
        cols = [{pos[t]: c for t, c in self.monomial_image(s).terms.items()} for s in subsets]
        self._solver = SpanSolver(cols, len(subsets))
        self._subsets = subsets
        self._pos = pos

    def monomial_image(self, s: Subset) -> GrassmannElement:
        cached = self._cache.get(s)
        if cached is not None:
            return cached
        out = GrassmannElement.one(self.n)
        for j in s:
            out = out * self.images[j]
        self._cache[s] = out
        return out

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        return _combination(self.n, ((c, self.monomial_image(s)) for s, c in a.terms.items()))

    def inverse_image(self, a: GrassmannElement) -> GrassmannElement:
        sol = self._solver.solve({self._pos[s]: c for s, c in a.terms.items()})
        if sol is None:
            raise ValueError("not an automorphism")
        return GrassmannElement(self.n, {self._subsets[k]: c for k, c in sorted(sol.items())})


# -- fixed spaces and structural subspaces ------------------------------------


def real_form_basis(rho: RealStructure) -> List[GrassmannElement]:
    """Real basis of RE_rho = {a : rho(a) = a}; dimension is exactly 2^n."""
    entries, subsets, pos = rho.realified_matrix()
    dim = 2 * len(subsets)
    rows = [{} for _ in range(dim)]
    for (r, c), v in entries.items():
        rows[r][c] = v
    for k, row in enumerate(rows):
        v = row.get(k, ZERO) - ONE
        if v:
            row[k] = v
        else:
            row.pop(k, None)
    kern = kernel_basis(rows, dim)
    return [rho.vec_to_element(v, subsets) for v in kern]


def structural_subspaces(n: int) -> dict:
    """G_k filtration, even/odd parts, the center and its G_2 cut."""
    subsets = all_subsets(n)
    out = {
        "G": {k: [s for s in subsets if len(s) >= k] for k in range(n + 1)},
        "even": [s for s in subsets if len(s) % 2 == 0],
        "odd": [s for s in subsets if len(s) % 2 == 1],
    }
    if n % 2 == 0:
        center = list(out["even"])
        odd_minus = list(out["odd"])
    else:
        # the top monomial is central; for n = 1 it is also the generator
        # itself, which odd_minus must keep so a fixed generator has no tail
        center = out["even"] + [s for s in subsets if len(s) == n]
        odd_minus = [s for s in subsets if len(s) % 2 == 1 and (len(s) < n or len(s) == 1)]
    out["center"] = center
    out["odd_minus"] = odd_minus
    out["center_cap_G2"] = [s for s in center if len(s) >= 2]
    return out


# -- the normalization algorithm -----------------------------------------------


class NormalizationError(Exception):
    pass


def normalize_generators(rho: RealStructure) -> List[GrassmannElement]:
    """n anticommuting fixed generators of RE_rho, by the averaging construction.

    Steps: take the fixed vectors inside the nilpotent ideal, select n of them
    with independent degree-1 projections (lowest-index pivoting), split each
    into its odd-part y and central tail, and correct t = (y + rho(y))/2.
    Every claimed property is asserted exactly.
    """
    n = rho.n
    sub = structural_subspaces(n)
    fixed = real_form_basis(rho)
    b1 = [a for a in fixed if a.in_nilpotent_ideal()]
    # deterministic selection: greedily keep vectors with new degree-1 pivots
    chosen: List[GrassmannElement] = []
    proj_rows: List[dict] = []
    for a in b1:
        row = {}
        for j in range(n):
            c = a.terms.get((j,))
            if c is not None:
                if c.re:
                    row[2 * j] = c.re
                if c.im:
                    row[2 * j + 1] = c.im
        cand = row_space_basis(proj_rows + [row], 2 * n)
        if len(cand) > len(proj_rows):
            chosen.append(a)
            proj_rows = cand
            if len(chosen) == n:
                break
    if len(chosen) != n:
        raise NormalizationError("projection of the fixed ideal is too small")
    odd_minus = set(sub["odd_minus"] if n % 2 else sub["odd"])
    center_g2 = set(sub["center_cap_G2"])
    ts = []
    zprimes = []
    ys = []
    for x in chosen:
        y = GrassmannElement(n, {s: c for s, c in x.terms.items() if s in odd_minus})
        z = x - y
        if any(s not in center_g2 for s in z.terms):
            raise NormalizationError("tail of a selected vector is not central")
        rho_y = rho.apply(y)
        zp = rho_y - y
        if any(s not in center_g2 for s in zp.terms):
            raise NormalizationError("rho(y) - y left the central tail space")
        ys.append(y)
        zprimes.append(zp)
        ts.append(y + zp.scale(rational(1, 2)))
    # the identities behind anticommutation of the corrected generators
    for k in range(n):
        for l in range(n):
            if ys[k] * zprimes[l] + zprimes[k] * ys[l]:
                raise NormalizationError("y z' + z' y = 0 failed")
            if zprimes[k] * zprimes[l]:
                raise NormalizationError("z' z' = 0 failed")
    for k in range(n):
        if rho.apply(ts[k]) != ts[k]:
            raise NormalizationError("corrected generator is not fixed")
        for l in range(k, n):
            if ts[k] * ts[l] + ts[l] * ts[k]:
                raise NormalizationError("corrected generators do not anticommute")
    # the monomials in t span 2^n real dimensions
    subsets = all_subsets(n)
    pos = {s: k for k, s in enumerate(subsets)}
    rows = []
    for s in subsets:
        m = GrassmannElement.one(n)
        for j in s:
            m = m * ts[j]
        rows.append(rho.element_to_vec(m, pos))
    if len(row_space_basis(rows, 2 * len(subsets))) != 2 ** n:
        raise NormalizationError("monomials in the generators do not span the real form")
    return ts


class CanonicalIso:
    """The isomorphism RE_rho -> Lambda_R(n) sending t_k to theta_k."""

    def __init__(self, rho: RealStructure, generators: Optional[List[GrassmannElement]] = None):
        self.rho = rho
        self.n = rho.n
        self.ts = generators if generators is not None else normalize_generators(rho)
        subsets = all_subsets(self.n)
        pos = {s: k for k, s in enumerate(subsets)}
        self.subsets = subsets
        self._pos = pos
        cols = []
        self.monomials = []
        for s in subsets:
            m = GrassmannElement.one(self.n)
            for j in s:
                m = m * self.ts[j]
            self.monomials.append(m)
            cols.append(rho.element_to_vec(m, pos))
        self._solver = SpanSolver(cols, 2 * len(subsets))

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        """Image in Lambda_R(n) (coefficients must come out real)."""
        vec = self.rho.element_to_vec(a, self._pos)
        sol = self._solver.solve(vec)
        if sol is None:
            raise ValueError("element is not in the real form")
        return GrassmannElement(self.n, {self.subsets[k]: GaussianRational(c) for k, c in sorted(sol.items())})

    def check(self) -> bool:
        """Bijectivity and multiplicativity on all monomial basis pairs."""
        if self._solver.rank != 2 ** self.n:
            return False
        images = [self.apply(m) for m in self.monomials]
        for a, image_a in zip(self.monomials, images):
            for b, image_b in zip(self.monomials, images):
                if self.apply(a * b) != image_a * image_b:
                    return False
        return True


def composed_iso_is_algebra_map(rho1: RealStructure, rho2: RealStructure) -> bool:
    """CanonicalIso(rho2)^{-1} . CanonicalIso(rho1): RE_1 -> RE_2 multiplicative."""
    iso1 = CanonicalIso(rho1)
    iso2 = CanonicalIso(rho2)
    # psi sends the k-th normalized monomial of rho1 to that of rho2
    for sa in iso1.subsets:
        for sb in iso1.subsets:
            a = iso1.monomials[iso1._pos[sa]]
            b = iso1.monomials[iso1._pos[sb]]
            prod = iso1.apply(a * b)
            # push through the rho2 monomials
            img = _combination(rho2.n, ((c, iso2.monomials[iso2._pos[s]]) for s, c in prod.terms.items()))
            direct = iso2.monomials[iso2._pos[sa]] * iso2.monomials[iso2._pos[sb]]
            if img != direct:
                return False
    return True
