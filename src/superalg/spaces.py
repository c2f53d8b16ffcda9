"""Z2- and Z-graded vector spaces with named bases and Koszul sign bookkeeping.

Conventions used throughout the package:
  * parity is 0 (even) or 1 (odd);
  * index words follow the exterior convention on a super space:
    antisymmetric on even generators and symmetric on odd ones;
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

    def parity(self, k: int) -> int:
        return self.basis[k].parity

    @property
    def sdim(self) -> Tuple[int, int]:
        ev = sum(1 for b in self.basis if b.parity == EVEN)
        return ev, len(self.basis) - ev

    def sdim_str(self) -> str:
        p, q = self.sdim
        return f"{p}|{q}"

    def __repr__(self):
        return f"SuperSpace({self.sdim_str()}, {[b.id for b in self.basis]!r})"


def sort_word(indices: Sequence[int], parities: Sequence[int]):
    """Sort an index word into canonical order, tracking the sign.

    Swapping adjacent entries a,b gives -(-1)^{p(a)p(b)}; a repeated even index
    kills the word.  Returns (sorted tuple, sign) or None when the word vanishes.
    """
    word = list(indices)
    sign = 1
    # bubble sort; words are short (k <= 4 in practice)
    n = len(word)
    for i in range(n):
        for j in range(n - 1 - i):
            a, b = word[j], word[j + 1]
            if a > b:
                sign *= 1 if (parities[a] and parities[b]) else -1
                word[j], word[j + 1] = b, a
    for i in range(n - 1):
        if word[i] == word[i + 1] and parities[word[i]] == EVEN:
            return None
    return tuple(word), sign


def admissible_words(parities: Sequence[int], k: int):
    """Canonical sorted index words of length k, in lexicographic order."""
    out = []
    for word in combinations_with_replacement(range(len(parities)), k):
        for i in range(k - 1):
            if word[i] == word[i + 1] and parities[word[i]] == EVEN:
                break
        else:
            out.append(word)
    return out
