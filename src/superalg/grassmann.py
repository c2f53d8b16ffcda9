"""Complex Grassmann algebras, real structures, and normalized real forms.

A real structure is an antilinear involutive algebra automorphism rho of
Lambda_C(n); its fixed subspace RE_rho is a real form.  All real forms are
isomorphic, although singled out by different anti-involutions.

Every map here is an algebra map given on generators, a _GeneratorMap: its
image of sum c_S theta_S is sum c_S phi(theta_S), with phi(theta_S) the
ordered product of the generator images.  rho is the image of the conjugate,
rho(a) = phi(conj(a)); the random automorphism g that random_real_structure
conjugates by is one too; and so is theta_k -> t_k, whose inverse on the
real span of the monomials in the t's is CanonicalIso.

g is inverted from its linear part L, the degree-1 terms of its images: L^{-1}
is a generator map solved from n x n linear equations, and g^{-1}(a) is the
exact correction u <- u + L^{-1}(a - g(u)) from u = L^{-1}(a).  It ends, in at
most n rounds, because g - L raises degree (by 2, for images that are linear
plus cubic), so each round moves the error up in degree until it is zero.

normalize_generators finds the t's.  Of the fixed vectors inside the
nilpotent ideal it keeps the first n pivot columns of the matrix of their
degree-1 projections (one RREF), splits each into its odd part and its
central high-degree tail, and averages the odd part with rho.

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

from .constructors import check_ints
from .linalg import SpanSolver, kernel_basis, rank, row_space_basis, rref_rows
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
    of ints in range(n), else it raises ValueError naming the key.  n must be
    an int >= 0 (TypeError, ValueError otherwise).
    """

    __slots__ = ("n", "den", "nums")

    def __init__(self, n: int, terms: Optional[Dict[Subset, object]] = None):
        check_ints(n=n)
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
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        _check_size(self.n, other)
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        out = {s: (re * ma, im * ma) for s, (re, im) in self.nums.items()}
        for s, (re, im) in other.nums.items():
            old = out.get(s)
            out[s] = (re * mb, im * mb) if old is None else (old[0] + re * mb, old[1] + im * mb)
        return _element(self.n, *_reduced(den, out))

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
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


def _layout(n: int):
    """(all_subsets(n), {subset: its index there}): the monomial basis and its positions."""
    subsets = all_subsets(n)
    return subsets, {s: k for k, s in enumerate(subsets)}


# -- real structures ---------------------------------------------------------


class _GeneratorMap:
    """The algebra map given by generator images: C-linear and multiplicative.

    Each monomial's image, the product of its generators' images in order, is
    built once, from the image of the monomial without its last generator.
    """

    def __init__(self, n: int, images: Sequence[GrassmannElement]):
        self.n = n
        self.images = list(images)
        self._cache: Dict[Subset, GrassmannElement] = {(): GrassmannElement.one(n)}

    def monomial_image(self, s: Subset) -> GrassmannElement:
        cached = self._cache.get(s)
        if cached is None:
            cached = self._cache[s] = self.monomial_image(s[:-1]) * self.images[s[-1]]
        return cached

    def image(self, a: GrassmannElement) -> GrassmannElement:
        """sum c_S monomial_image(S) for a = sum c_S theta_S."""
        _check_size(self.n, a)
        return _combination(self.n, a.den, ((v, self.monomial_image(s)) for s, v in a.nums.items()))


class RealStructure(_GeneratorMap):
    """rho determined by generator images; antilinear and multiplicative."""

    def __init__(self, n: int, images: Sequence[GrassmannElement]):
        if len(images) != n:
            raise ValueError(f"need {n} generator images")
        super().__init__(n, images)

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        return self.image(a.conjugate())

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
    check_ints(n=n)
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
    check_ints(n=n)
    if n % 2:
        raise ValueError("rho_tr needs an even number of generators")
    k = n // 2
    images = []
    for j in range(k):
        images.append(GrassmannElement(n, {(k + j,): I}))
    for j in range(k):
        images.append(GrassmannElement(n, {(j,): I}))
    return make_real_structure(images)


# draws of a linear part before random_real_structure gives up: a draw is
# singular with probability 1/25 for n = 1 (both parts zero) and less for n > 1
_MAX_DRAWS = 100


def random_real_structure(n: int, rng: random.Random):
    """g . conj . g^{-1} for a random polynomial automorphism g; always valid.

    Returns (rho, discarded) where discarded counts candidates rejected for a
    singular linear part.  After _MAX_DRAWS singular draws it raises
    RuntimeError.  n must be an int >= 0 (TypeError, ValueError otherwise).
    """
    check_ints(n=n)
    g, discarded = _random_automorphism(n, rng)
    images = [g.image(g.inverse_image(GrassmannElement.generator(n, j)).conjugate()) for j in range(n)]
    return make_real_structure(images), discarded


def _random_automorphism(n: int, rng: random.Random):
    """(g, discarded): g has an invertible random linear part plus two random cubic terms per image."""
    for discarded in range(_MAX_DRAWS):
        M = [[FIELD_QI.random(rng, 2) for _ in range(n)] for _ in range(n)]
        if rank([{c: as_gaussian(x) for c, x in enumerate(row) if x} for row in M], n) == n:
            break
    else:
        raise RuntimeError(f"no invertible linear part on {n} generators in {_MAX_DRAWS} draws")
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
    return _Automorphism(n, g_images), discarded


class AutomorphismError(ValueError):
    """A generator map whose inverse correction does not end: it is not an automorphism."""


class _Automorphism(_GeneratorMap):
    """A polynomial algebra automorphism g given on generators, inverted from its linear part L.

    L, the degree-1 terms of the images, must be invertible, else ValueError;
    L^{-1} is a generator map solved by n queries to one n x n SpanSolver.
    inverse_image corrects u <- u + L^{-1}(a - g(u)) from u = L^{-1}(a).  Each
    round multiplies the error g^{-1}(a) - u by -L^{-1}(g - L), which raises
    degree when no image has a constant term, so the residual is zero after
    at most n corrections; past that bound it raises AutomorphismError.
    """

    def __init__(self, n: int, images: Sequence[GrassmannElement]):
        super().__init__(n, images)
        linear = [{s[0]: c for s, c in image.terms.items() if len(s) == 1} for image in self.images]
        solver = SpanSolver(linear, n)
        if solver.rank != n:
            raise ValueError(f"the linear part of the automorphism has rank {solver.rank} < {n}")
        # L(sum_j x_j theta_j) = theta_k gives L^{-1}(theta_k)
        solved = [solver.solve({k: ONE}) for k in range(n)]
        inverse_images = [GrassmannElement(n, {(j,): c for j, c in x.items()}) for x in solved]
        self._linear_inverse = _GeneratorMap(n, inverse_images)

    def inverse_image(self, a: GrassmannElement) -> GrassmannElement:
        u = self._linear_inverse.image(a)
        for _ in range(self.n + 1):
            residual = a - self.image(u)
            if not residual:
                return u
            u = u + self._linear_inverse.image(residual)
        raise AutomorphismError(f"the inverse correction left a residual after {self.n} rounds")


# -- fixed spaces and structural subspaces ------------------------------------


def real_form_basis(rho: RealStructure) -> List[GrassmannElement]:
    """Real basis of RE_rho = {a : rho(a) = a}; dimension is exactly 2^n.

    It is the kernel of rho - 1 on the realified carrier, whose column 2k is
    rho(theta_S) and column 2k + 1 is rho(i theta_S) = -i rho(theta_S), for S
    the k-th subset.
    """
    subsets, pos = _layout(rho.n)
    dim = 2 * len(subsets)
    rows = [{} for _ in range(dim)]
    for k, s in enumerate(subsets):
        img = rho.monomial_image(s)
        for c, col in ((2 * k, img), (2 * k + 1, img.scale(-I))):
            for r, v in rho.element_to_vec(col, pos).items():
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

    Steps: take the fixed vectors inside the nilpotent ideal, select the first
    n of them whose degree-1 projections are independent of those before, split
    each into its odd-part y and central tail, and correct t = (y + rho(y))/2.
    Every claimed property is asserted exactly.
    """
    n = rho.n
    sub = structural_subspaces(n)
    subsets, pos = _layout(n)
    fixed = real_form_basis(rho)
    b1 = [a for a in fixed if a.in_nilpotent_ideal()]
    # column j holds den * the degree-1 part of b1[j] (theta_j sits at pos
    # 1 + j); the selected vectors are its first n pivot columns
    proj = [{} for _ in range(2 * n)]
    for j, a in enumerate(b1):
        for k, v in _realified(a, pos).items():
            if 2 <= k < 2 * n + 2:
                proj[k - 2][j] = v
    pivots, _ = rref_rows(proj, len(b1))
    if len(pivots) < n:
        raise NormalizationError("projection of the fixed ideal is too small")
    odd_minus = set(sub["odd_minus"] if n % 2 else sub["odd"])
    center_g2 = set(sub["center_cap_G2"])
    ts = []
    zprimes = []
    ys = []
    for x in (b1[j] for j in pivots[:n]):
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
    t_map = _GeneratorMap(n, ts)
    rows = [_realified(t_map.monomial_image(s), pos) for s in subsets]
    if len(row_space_basis(rows, 2 * len(subsets))) != 2 ** n:
        raise NormalizationError("monomials in the generators do not span the real form")
    return ts


class CanonicalIso(_GeneratorMap):
    """The isomorphism RE_rho -> Lambda_R(n) sending t_k to theta_k.

    It is the generator map theta_k -> t_k (image) inverted on the real span
    of its monomial images: monomials[k] is the image of the k-th subset.
    Given generators must number rho.n, else ValueError.
    """

    def __init__(self, rho: RealStructure, generators: Optional[List[GrassmannElement]] = None):
        if generators is None:
            generators = normalize_generators(rho)
        elif len(generators) != rho.n:
            raise ValueError(f"CanonicalIso needs {rho.n} generators, got {len(generators)}")
        super().__init__(rho.n, generators)
        self.subsets, self._pos = _layout(self.n)
        self.monomials = [self.monomial_image(s) for s in self.subsets]
        cols = [rho.element_to_vec(m, self._pos) for m in self.monomials]
        self._solver = SpanSolver(cols, 2 * len(self.subsets))

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        """Image in Lambda_R(n) (coefficients must come out real)."""
        _check_size(self.n, a)
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
