"""Z2- and Z-graded vector spaces with named bases and Koszul sign bookkeeping.

Conventions used throughout the package:
  * parity is 0 (even) or 1 (odd);
  * the "exterior" convention on a super space is antisymmetric on even
    generators and symmetric on odd ones, the "symmetric" convention is the
    parity flip of that;
  * multi-index bases are ordered lexicographically on sorted index words,
    which keeps every downstream matrix and golden file deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional, Sequence, Tuple

EVEN = 0
ODD = 1


@dataclass(frozen=True)
class BasisVector:
    id: str
    parity: int
    degree: Optional[int] = None
    weight: Optional[Tuple] = None

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 0 or 1, got {self.parity!r}")


class SuperSpace:
    """An ordered basis of BasisVectors with unique ids."""

    def __init__(self, basis: Sequence[BasisVector]):
        self.basis = list(basis)
        self.index = {}
        for k, b in enumerate(self.basis):
            if b.id in self.index:
                raise ValueError(f"duplicate basis id {b.id!r}")
            self.index[b.id] = k

    def __len__(self):
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def __getitem__(self, k):
        return self.basis[k]

    def parity(self, k: int) -> int:
        return self.basis[k].parity

    def parities(self):
        return [b.parity for b in self.basis]

    @property
    def sdim(self) -> Tuple[int, int]:
        ev = sum(1 for b in self.basis if b.parity == EVEN)
        return ev, len(self.basis) - ev

    def sdim_str(self) -> str:
        p, q = self.sdim
        return f"{p}|{q}"

    def __repr__(self):
        return f"SuperSpace({self.sdim_str()}, {[b.id for b in self.basis]!r})"


def koszul_sign(permutation: Sequence[int], parities: Sequence[int]) -> int:
    """Plain-transposition Koszul factor of reordering homogeneous elements.

    permutation[k] is the original position of the element landing at slot k;
    each inversion of two odd elements contributes -1.
    """
    perm = list(permutation)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation: {permutation!r}")
    sign = 1
    for a in range(len(perm)):
        if parities[perm[a]] != ODD:
            continue
        for b in range(a + 1, len(perm)):
            if perm[b] < perm[a] and parities[perm[b]] == ODD:
                sign = -sign
    return sign


def sort_word(indices: Sequence[int], parities: Sequence[int], convention: str):
    """Sort an index word into canonical order, tracking the sign.

    convention "exterior": swapping adjacent entries a,b gives -(-1)^{p(a)p(b)};
    a repeated even index kills the word.  convention "symmetric": swap factor
    (+1)^... i.e. (-1)^{p(a)p(b)}; a repeated odd index kills the word.
    Returns (sorted tuple, sign) or None when the word vanishes.
    """
    word = list(indices)
    sign = 1
    exterior = convention == "exterior"
    if not exterior and convention != "symmetric":
        raise ValueError(f"unknown convention {convention!r}")
    # bubble sort; words are short (k <= 4 in practice)
    n = len(word)
    for i in range(n):
        for j in range(n - 1 - i):
            a, b = word[j], word[j + 1]
            if a > b:
                factor = 1 if (parities[a] and parities[b]) else -1
                if not exterior:
                    factor = -factor
                sign *= factor
                word[j], word[j + 1] = b, a
    for i in range(n - 1):
        if word[i] == word[i + 1]:
            odd = parities[word[i]] == ODD
            if exterior and not odd:
                return None
            if not exterior and odd:
                return None
    return tuple(word), sign


def admissible_words(parities: Sequence[int], k: int, convention: str):
    """Canonical sorted index words of length k, in lexicographic order."""
    n = len(parities)
    exterior = convention == "exterior"
    if k == 0:
        return [()]
    out = []
    for word in combinations_with_replacement(range(n), k):
        ok = True
        for i in range(k - 1):
            if word[i] == word[i + 1]:
                odd = parities[word[i]] == ODD
                if exterior and not odd:
                    ok = False
                    break
                if not exterior and odd:
                    ok = False
                    break
        if ok:
            out.append(word)
    return out


def word_parity(word, parities) -> int:
    return sum(parities[i] for i in word) % 2


def word_degree(word, space: SuperSpace):
    total = 0
    for i in word:
        d = space.basis[i].degree
        if d is None:
            return None
        total += d
    return total


def word_weight(word, space: SuperSpace):
    ws = [space.basis[i].weight for i in word]
    if any(w is None for w in ws):
        return None
    if not ws:
        return ()
    rank = len(ws[0])
    return tuple(sum(w[j] for w in ws) for j in range(rank))


def _power_space(space: SuperSpace, k: int, convention: str, joiner: str) -> SuperSpace:
    parities = space.parities()
    basis = []
    for word in admissible_words(parities, k, convention):
        ids = [space.basis[i].id for i in word]
        degree = word_degree(word, space)
        weight = word_weight(word, space)
        basis.append(
            BasisVector(
                id=joiner.join(ids) if ids else "1",
                parity=word_parity(word, parities),
                degree=degree,
                weight=weight,
            )
        )
    return SuperSpace(basis)


def super_exterior_power(space: SuperSpace, k: int) -> SuperSpace:
    """Lambda^k: antisymmetric on even generators, symmetric on odd ones."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _power_space(space, k, "exterior", "∧")


def super_symmetric_power(space: SuperSpace, k: int) -> SuperSpace:
    """S^k: symmetric on even generators, antisymmetric on odd ones."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return _power_space(space, k, "symmetric", "·")


def dual_id(ident: str) -> str:
    return ident[:-1] if ident.endswith("*") else ident + "*"


def dual(space: SuperSpace) -> SuperSpace:
    """Dual basis: ids starred, degrees and weights negated, parities kept."""
    basis = []
    for b in space:
        weight = None if b.weight is None else tuple(-w for w in b.weight)
        degree = None if b.degree is None else -b.degree
        basis.append(BasisVector(dual_id(b.id), b.parity, degree, weight))
    return SuperSpace(basis)


def parity_flip(space: SuperSpace) -> SuperSpace:
    return SuperSpace(
        [BasisVector("Π" + b.id, 1 - b.parity, b.degree, b.weight) for b in space]
    )
