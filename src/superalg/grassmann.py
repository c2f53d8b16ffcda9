"""Complex Grassmann algebras, real structures, and normalized real forms.

A real structure is an antilinear involutive algebra automorphism rho of
Lambda_C(n); its fixed subspace RE_rho is a real form.  All real forms are
isomorphic: normalize_generators produces n anticommuting fixed generators by
projecting a fixed basis to the degree-1 quotient, splitting off the central
high-degree tail and averaging with rho; CanonicalIso then sends them to the
standard generators.

Scalars are Gaussian rationals, so unit phases are Pythagorean units like
(3+4i)/5 rather than exp(i phi); the algebraic phenomena are identical.

An element is stored cleared: one positive int den and Gaussian integer pairs
nums = {subset: (re, im)}, the element being sum (re + im*i)/den theta_subset.
Zero pairs are dropped and gcd(den, every part) = 1, so the representation is
canonical: equal elements have equal den and nums, and a product that cancels
has no key.  Arithmetic runs on these ints over one denominator; terms builds
the GaussianRational coefficients only when it is read.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import SpanSolver, kernel_basis, rank, row_space_basis
from .scalars import (
    FIELD_QI,
    GaussianRational,
    I,
    ONE,
    ZERO,
    as_gaussian,
    format_scalar,
    gaussian,
    rational,
    real_imag,
)

Subset = Tuple[int, ...]


class GrassmannElement:
    """An element of Lambda_C(n), sum over index subsets of Gaussian rationals.

    It is stored as den, a positive int, and nums, {subset: (re, im)} of ints,
    the coefficient of theta_subset being (re + im*i) / den; the pair is kept
    canonical (no zero pair, gcd(den, every part) = 1).  terms is the read-only
    view {subset: GaussianRational}, a new dict on each read.  The constructor
    takes such a dict of scalars; each key must be a strictly increasing tuple
    of ints in range(n), else it raises ValueError naming the key.
    """

    __slots__ = ("n", "den", "nums")

    def __init__(self, n: int, terms: Optional[Dict[Subset, object]] = None):
        parts = {}
        for s, c in (terms or {}).items():
            if not _is_subset(n, s):
                raise ValueError(f"subset key {s!r} is not a strictly increasing tuple of ints in range({n})")
            parts[s] = real_imag(c)
        self.n = n
        self.den, self.nums = _reduced(*_cleared(parts))

    @classmethod
    def generator(cls, n: int, j: int):
        return cls(n, {(j,): 1})

    @staticmethod
    def one(n: int):
        return _element(n, 1, {(): (1, 0)})

    @property
    def terms(self) -> Dict[Subset, GaussianRational]:
        den = self.den
        return {s: GaussianRational(rational(re, den), rational(im, den)) for s, (re, im) in self.nums.items()}

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            return False
        return (self.n, self.den, self.nums) == (other.n, other.den, other.nums)

    def __add__(self, other):
        _check_size(self.n, other)
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        out = {s: (re * ma, im * ma) for s, (re, im) in self.nums.items()}
        for s, (re, im) in other.nums.items():
            old = out.get(s)
            out[s] = (re * mb, im * mb) if old is None else (old[0] + re * mb, old[1] + im * mb)
        return _element(self.n, *_reduced(den, out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _element(self.n, self.den, {s: (-re, -im) for s, (re, im) in self.nums.items()})

    def scale(self, z):
        den, cleared = _cleared({(): real_imag(z)})
        a, b = cleared[()]
        nums = {s: (re * a - im * b, re * b + im * a) for s, (re, im) in self.nums.items()}
        return _element(self.n, *_reduced(self.den * den, nums))

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            return self.scale(other)
        _check_size(self.n, other)
        acc: Dict[Subset, Tuple[int, int]] = {}
        b = other.nums.items()
        for s1, (r1, i1) in self.nums.items():
            for s2, (r2, i2) in b:
                merged = _merge(s1, s2)
                if merged is None:
                    continue
                s, sign = merged
                re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
                if sign < 0:
                    re, im = -re, -im
                old = acc.get(s)
                acc[s] = (re, im) if old is None else (old[0] + re, old[1] + im)
        return _element(self.n, *_reduced(self.den * other.den, acc))

    __rmul__ = scale

    def conjugate(self):
        return _element(self.n, self.den, {s: (re, -im) for s, (re, im) in self.nums.items()})

    def is_odd(self):
        return bool(self.nums) and all(len(s) % 2 == 1 for s in self.nums)

    def in_nilpotent_ideal(self):
        return () not in self.nums

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for s in sorted(terms, key=lambda t: (len(t), t)):
            c = terms[s]
            mono = "^".join(f"th{j + 1}" for j in s) if s else "1"
            parts.append(f"({format_scalar(c)})*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


def _check_size(n: int, element: GrassmannElement):
    if element.n != n:
        raise ValueError(f"Grassmann element on {element.n} generators in an operation on {n}")


def _is_subset(n: int, s) -> bool:
    """Whether s is a strictly increasing tuple of ints in range(n): a canonical key."""
    if type(s) is not tuple or any(type(j) is not int for j in s):
        return False
    return all(a < b for a, b in zip((-1,) + s, s + (n,)))


def _cleared(parts):
    """(den, nums) for {key: (re, im)} of rationals: den is the lcm of their denominators."""
    den = lcm(1, *[x.denominator for pair in parts.values() for x in pair])
    return den, {
        s: (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
        for s, (re, im) in parts.items()
    }


def _reduced(den: int, nums):
    """The canonical (den, nums) of nums / den: zero pairs dropped, the common gcd divided out."""
    nums = {s: v for s, v in nums.items() if v[0] or v[1]}
    if den != 1:
        g = gcd(den, *[x for v in nums.values() for x in v])
        if g != 1:
            den //= g
            nums = {s: (re // g, im // g) for s, (re, im) in nums.items()}
    return den, nums


def _element(n: int, den: int, nums) -> GrassmannElement:
    """The GrassmannElement with this canonical den and nums, taken as they are."""
    out = GrassmannElement.__new__(GrassmannElement)
    out.n, out.den, out.nums = n, den, nums
    return out


def _combination(n: int, den: int, pairs) -> GrassmannElement:
    """sum (re + im*i) / den * element over ((re, im), element) pairs of ints and elements."""
    pairs = list(pairs)
    common = lcm(1, *[element.den for _, element in pairs])
    out: Dict[Subset, Tuple[int, int]] = {}
    for (cr, ci), element in pairs:
        _check_size(n, element)
        m = common // element.den
        cr, ci = cr * m, ci * m
        for s, (re, im) in element.nums.items():
            pr, pi = cr * re - ci * im, cr * im + ci * re
            old = out.get(s)
            out[s] = (pr, pi) if old is None else (old[0] + pr, old[1] + pi)
    return _element(n, *_reduced(den * common, out))


def _realified(a: GrassmannElement, pos):
    """den * a on the realified carrier: {2 pos[s]: re, 2 pos[s] + 1: im} of nonzero ints."""
    vec = {}
    for s, (re, im) in a.nums.items():
        if re:
            vec[2 * pos[s]] = re
        if im:
            vec[2 * pos[s] + 1] = im
    return vec


@lru_cache(maxsize=1 << 14)
def _merge(s1: Subset, s2: Subset):
    """(s, sign) with theta_s1 theta_s2 = sign theta_s, or None when s1 and s2 meet.
    Memoized: products meet the same few pairs of keys over and over."""
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


class _GeneratorMap:
    """A multiplicative map given by generator images; each monomial's image is built once."""

    def __init__(self, n: int, images: Sequence[GrassmannElement]):
        self.n = n
        self.images = list(images)
        self._cache: Dict[Subset, GrassmannElement] = {(): GrassmannElement.one(n)}

    def monomial_image(self, s: Subset) -> GrassmannElement:
        cached = self._cache.get(s)
        if cached is not None:
            return cached
        out = GrassmannElement.one(self.n)
        for j in s:
            out = out * self.images[j]
        self._cache[s] = out
        return out


class RealStructure(_GeneratorMap):
    """rho determined by generator images; antilinear and multiplicative."""

    def __init__(self, n: int, images: Sequence[GrassmannElement]):
        if len(images) != n:
            raise ValueError(f"need {n} generator images")
        super().__init__(n, images)

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        images = (((re, -im), self.monomial_image(s)) for s, (re, im) in a.nums.items())
        return _combination(self.n, a.den, images)

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
        """a on the realified carrier: {2 pos[s]: re, 2 pos[s] + 1: im} of nonzero rationals."""
        return {k: rational(v, a.den) for k, v in _realified(a, pos).items()}

    def vec_to_element(self, vec, subsets):
        parts = {}
        for k, s in enumerate(subsets):
            re, im = vec.get(2 * k, ZERO), vec.get(2 * k + 1, ZERO)
            if re or im:
                parts[s] = (re, im)
        return _element(self.n, *_reduced(*_cleared(parts)))

    def realified_matrix(self):
        """rho on the 2*2^n dimensional real carrier, as {(row, col): scalar}."""
        subsets, pos = self._coords()
        entries = {}
        for k, s in enumerate(subsets):
            img = self.monomial_image(s)
            for t, (re, im) in img.nums.items():
                re, im = rational(re, img.den), rational(im, img.den)
                # rho(theta_S) contributes to columns of the re-part
                if re:
                    entries[(2 * pos[t], 2 * k)] = re
                if im:
                    entries[(2 * pos[t] + 1, 2 * k)] = im
                # rho(i theta_S) = -i rho(theta_S)
                if im:
                    entries[(2 * pos[t], 2 * k + 1)] = im
                if re:
                    entries[(2 * pos[t] + 1, 2 * k + 1)] = -re
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


class _Automorphism(_GeneratorMap):
    """A polynomial algebra automorphism given on generators (linear part invertible)."""

    def __init__(self, n: int, images: Sequence[GrassmannElement]):
        super().__init__(n, images)
        subsets = all_subsets(n)
        pos = {s: k for k, s in enumerate(subsets)}
        cols = [{pos[t]: c for t, c in self.monomial_image(s).terms.items()} for s in subsets]
        self._solver = SpanSolver(cols, len(subsets))
        self._subsets = subsets
        self._pos = pos

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        return _combination(self.n, a.den, ((v, self.monomial_image(s)) for s, v in a.nums.items()))

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
    subsets = all_subsets(n)
    pos = {s: k for k, s in enumerate(subsets)}
    fixed = real_form_basis(rho)
    b1 = [a for a in fixed if a.in_nilpotent_ideal()]
    # deterministic selection: greedily keep vectors with new degree-1 pivots
    chosen: List[GrassmannElement] = []
    proj_rows: List[dict] = []
    for a in b1:
        # den * the degree-1 part (theta_j sits at pos 1 + j), which spans the
        # same row space as the projection itself
        row = {k - 2: v for k, v in _realified(a, pos).items() if 2 <= k < 2 * n + 2}
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
        y = _element(n, *_reduced(x.den, {s: v for s, v in x.nums.items() if s in odd_minus}))
        z = x - y
        if any(s not in center_g2 for s in z.nums):
            raise NormalizationError("tail of a selected vector is not central")
        rho_y = rho.apply(y)
        zp = rho_y - y
        if any(s not in center_g2 for s in zp.nums):
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
    rows = []
    for s in subsets:
        m = GrassmannElement.one(n)
        for j in s:
            m = m * ts[j]
        rows.append(_realified(m, pos))
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
        # the span is real, so the cleared query reduces to an int combination
        den, residual, combo = self._solver.reduce(_realified(a, self._pos), want_combo=True)
        if residual:
            raise ValueError("element is not in the real form")
        nums = {self.subsets[k]: (v, 0) for k, v in sorted(combo.items())}
        return _element(self.n, *_reduced(den * a.den, nums))

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
            img = _combination(rho2.n, prod.den, ((v, iso2.monomials[iso2._pos[s]]) for s, v in prod.nums.items()))
            direct = iso2.monomials[iso2._pos[sa]] * iso2.monomials[iso2._pos[sb]]
            if img != direct:
                return False
    return True
