"""Degree-graded Chevalley-Eilenberg cohomology H^2(g_minus; g_star).

Cochains are super-alternating multilinear maps from the negative part of a
graded algebra into the whole algebra, stored by their values on canonical
sorted argument words.  The Z-degree of a homogeneous cochain is
deg(target) - sum deg(arguments); the complex splits into independent blocks
by (Z-degree, cochain parity, weight), and every computation below runs block
by block, which keeps the exact eliminations small.

Sign conventions (d^2 = 0 is enforced by tests, any consistent convention
gives the same dimensions):

  (dc)(x_0..x_k) = sum_i (-1)^{i + p(x_i)(p(c) + p(x_0)+..+p(x_{i-1}))}
                     [x_i, c(.. x_i ..)]
                 + sum_{i<j} (-1)^{i+j+p(x_i)p(x_j) + p(x_i) sum_{l<i} p(x_l)
                     + p(x_j) sum_{l<j} p(x_l)} c([x_i,x_j], .. x_i .. x_j ..)

The module half of the report reads H^2 as a g0-module.  Both ad h for h in
g0 and multiplication by i act on cochains through operator_image, and
DegreeCohomology._induced turns the images of the representatives into
matrices on the classes (action_matrix, i_matrix).  The i-pairing of each
weight space runs one loop, _pair_directions, in two modes that differ only
in the operators it is fed: with a total i (realifications) the induced i
restricted to the weight classes, with a partial i (real forms) the
commutant of the g0 action on the submodule M the weight classes generate.
Every action matrix maps a block into one block, so each RREF basis vector
of M lies in one block.  The Cartan elements act on each block by its
weight, which holds whenever the weights come from assign_weights; an even
element that commutes with them maps each block of M into itself.  So
_commutant_on takes its unknowns on the slots of M's basis that share a
block, and reads coordinates on M off M's pivots, since generated_submodule
returns M closed under the action.  The report's "undetermined" list is
always empty; it is kept so that the report format stays the same.

The complex runs on integers.  differential_matrix builds den * d from the
bracket table cleared once per report (LieSuperAlgebra.cleared_table).  The
block keys are integer weights: every basis weight is scaled by one common
denominator (NegativePart.weight_den), so grouping cochains adds and
subtracts ints.  Each block's weight with the algebra's own scalars is
rebuilt once, from its first C^2 key, because the str of that weight orders
the blocks and the block order fixes the order of the report.  With W the
span of the C^2 columns off B^2's pivots (SpanSolver.pivot_columns), C^2 =
B^2 + W and B^2 lies in Z^2, so Z^2 = B^2 + (Z^2 ∩ W): the representatives
are the RREF of ker d2 on W's columns, which the B^2 residuals of Z^2 span
too.  class_coords divides only the solved coordinates by den.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .algebra import LieSuperAlgebra
from .linalg import SpanSolver, SparseMatrix, kernel_basis, primitive_integer_vector, row_space_basis, rref_rows
from .scalars import GaussianRational, ONE, ZERO, format_scalar, rational
from .spaces import admissible_words, sort_word

Word = Tuple[int, ...]
CKey = Tuple[Word, int]  # (argument word over negative positions, target index)


class NegativePart:
    """Cached view of the arguments side of the complex.

    It also holds the bracket table cleared of denominators, from
    LieSuperAlgebra.cleared_table: den is the lcm of the denominators of all
    structure constants and table[(a, b)] is den * [e_a, e_b], with int values
    (GaussianRational with integral parts for a constant with a nonzero
    imaginary part).  One NegativePart serves a whole h2_by_degree report.

    Block keys are computed on integer weights, LieSuperAlgebra.cleared_weights:
    every basis weight of g is scaled by one common denominator, weight_den.
    Blocks split by weight only when every basis vector of g has a weight;
    otherwise a bracket with an unweighted term would join two blocks.
    """

    def __init__(self, g: LieSuperAlgebra):
        self.g = g
        self.den, self.table = g.cleared_table()
        self.indices = g.negative_indices()
        self.pos = {k: p for p, k in enumerate(self.indices)}
        self.parities = [g.parity(k) for k in self.indices]
        self.degrees = [g.degree(k) for k in self.indices]
        self.weights = [g.space.basis[k].weight for k in self.indices]
        # cleared weight of every basis vector of g, None where it has none
        self.weight_den, self.int_weights = g.cleared_weights()
        self.has_weights = all(w is not None for w in self.int_weights)
        self._word_keys: Dict[Word, tuple] = {}

    def word_key(self, word: Word) -> tuple:
        """(parity, weight_den * weight) of a word, computed on its first use and kept.

        The weight is a tuple of ints (a GaussianRational with integral parts
        for a coordinate with a nonzero imaginary part), or None unless
        every basis vector of g has a weight.
        """
        key = self._word_keys.get(word)
        if key is None:
            wt = None
            if self.has_weights:
                wt = tuple(map(sum, zip(*(self.int_weights[self.indices[i]] for i in word))))
            key = self._word_keys[word] = (self.word_parity(word), wt)
        return key

    def word_parity(self, word: Word) -> int:
        return sum(self.parities[i] for i in word) % 2

    def word_degree(self, word: Word) -> int:
        return sum(self.degrees[i] for i in word)

    def word_weight(self, word: Word):
        """The weight of a nonempty word (a C^2 word) with the algebra's own scalars, or None."""
        if not self.has_weights:
            return None
        rank = len(self.weights[0])
        return tuple(sum(self.weights[i][j] for i in word) for j in range(rank))


def cochain_basis(neg: NegativePart, k: int, z_degree: int) -> List[CKey]:
    """Canonical basis of C^k in the given Z-degree."""
    words = admissible_words(neg.parities, k)
    return [(word, t) for word in words for t in neg.g.component_indices(z_degree + neg.word_degree(word))]


def cochain_block_key(neg: NegativePart, key: CKey):
    """(parity, weight_den * weight) of a cochain basis key: the block it belongs to.

    The weight is that of the target minus that of the word, on the integer
    weights of neg (None unless every basis vector has a weight).
    """
    word, t = key
    word_parity, wt = neg.word_key(word)
    parity = (neg.g.parity(t) + word_parity) % 2
    if wt is None:
        return (parity, None)
    return (parity, tuple(a - b for a, b in zip(neg.int_weights[t], wt)))


def block_weight(neg: NegativePart, key: CKey):
    """The weight of a cochain basis key with its own scalars, target minus word.

    It names a block in reports and fixes the order of the blocks; it is
    computed once per block, from the block's first C^2 key.
    """
    word, t = key
    wt = neg.word_weight(word)
    if wt is None:
        return None
    return tuple(a - b for a, b in zip(neg.g.space.basis[t].weight, wt))


def differential_matrix(
    neg: NegativePart,
    cols: Sequence[CKey],
    rows: Sequence[CKey],
    cochain_parity: int,
) -> SparseMatrix:
    """Matrix of neg.den * d: C^k -> C^{k+1} between explicit bases (one block).

    It is built from the cleared bracket table neg.table, so its entries are
    ints (GaussianRational with integral parts over QQ(i) when a constant has
    a nonzero imaginary part).  Scaling every map of the complex by the same
    nonzero constant den changes no kernel, image or row space: B^2, its
    pivots, ker d2 off them and the representatives of H^2 are those of d.
    """
    col_pos: Dict[CKey, int] = {c: i for i, c in enumerate(cols)}
    row_pos: Dict[CKey, int] = {r: i for i, r in enumerate(rows)}
    entries: Dict[Tuple[int, int], object] = {}
    seen_words = {}
    for word, t in rows:
        seen_words.setdefault(word, []).append(t)
    col_targets: Dict[Word, list] = {}
    for word, b in cols:
        col_targets.setdefault(word, []).append(b)

    def scatter(row_key, col_key, coeff):
        key = (row_pos[row_key], col_pos[col_key])
        nv = entries.get(key, 0) + coeff
        if nv:
            entries[key] = nv
        elif key in entries:
            del entries[key]

    for word in seen_words:
        n1 = len(word)
        pref = [0] * n1
        acc = 0
        for i, w in enumerate(word):
            pref[i] = acc
            acc += neg.parities[w]
        # action terms
        for i in range(n1):
            a_pos = word[i]
            a_global = neg.indices[a_pos]
            rest = word[:i] + word[i + 1 :]
            exp = i + neg.parities[a_pos] * (cochain_parity + pref[i])
            sign = -1 if exp % 2 else 1
            # [e_a, e_b] expansions: contributes entry at rows (word, t)
            for b in col_targets.get(rest, ()):
                for t, cval in neg.table.get((a_global, b), {}).items():
                    scatter((word, t), (rest, b), cval if sign > 0 else -cval)
        # bracket terms
        for i in range(n1):
            for j in range(i + 1, n1):
                a_pos, b_pos = word[i], word[j]
                pa, pb = neg.parities[a_pos], neg.parities[b_pos]
                val = neg.table.get((neg.indices[a_pos], neg.indices[b_pos]), {})
                if not val:
                    continue
                rest = tuple(w for l, w in enumerate(word) if l != i and l != j)
                exp = i + j + pa * pref[i] + pb * pref[j] + pa * pb
                base_sign = -1 if exp % 2 else 1
                # [e_a, e_b] lies in g_minus: h2_by_degree checks the grading
                for m_global, gamma in val.items():
                    sorted_word = sort_word((neg.pos[m_global],) + rest, neg.parities)
                    if sorted_word is None:
                        continue
                    new_word, sigma = sorted_word
                    coeff = gamma * base_sign * sigma
                    for t in seen_words[word]:
                        scatter((word, t), (new_word, t), coeff)
    return SparseMatrix(len(rows), len(cols), entries)


def _add_entry(vec: dict, i, v):
    """vec[i] += v in place, dropping the entry if it cancels."""
    nv = vec.get(i, ZERO) + v
    if nv:
        vec[i] = nv
    else:
        vec.pop(i, None)


def operator_image(
    neg: NegativePart, k: int, coeffs: Dict[CKey, object], parity: int, target, argument, p_op: int
) -> Dict[CKey, object]:
    """Coefficients of T.c for a k-cochain c of the given parity, on canonical words:

    (T.c)(x_1..x_k) = T(c(x_1..x_k))
        - sum_i (-1)^{p_op(p(c)+p(x_1)+..+p(x_{i-1}))} c(x_1,..,T x_i,..,x_k)

    T has parity p_op and is given on basis vectors: target[t] is T(e_t) on
    the values and argument[a] is T(e_a) on the arguments, sparse, a missing
    key meaning 0.  For ad h both are the bracket row [h, .]; multiplication
    by i acts on the values only, so its target is i_op and its argument {}.
    """
    out: Dict[CKey, object] = {}
    by_word: Dict[Word, list] = {}
    for (word, t), cval in coeffs.items():
        by_word.setdefault(word, []).append((t, cval))
        for tt, v in target.get(t, {}).items():
            _add_entry(out, (word, tt), cval * v)
    for word in admissible_words(neg.parities, k):
        pref = 0
        for i, w in enumerate(word):
            sign = -1 if p_op * (parity + pref) % 2 else 1
            for m_global, v in argument.get(neg.indices[w], {}).items():
                m_pos = neg.pos.get(m_global)
                if m_pos is None:
                    continue
                res = sort_word(word[:i] + (m_pos,) + word[i + 1 :], neg.parities)
                if res is None:
                    continue
                new_word, sigma = res
                for t, cval in by_word.get(new_word, ()):
                    _add_entry(out, (word, t), -v * cval * sign * sigma)
            pref += neg.parities[w]
    return out


class TruncationShortfall(Exception):
    """The prolong is not deep enough for the requested cohomology degree."""


class Block:
    """All cochain data of one (parity, weight) block in one Z-degree.

    key is the block's integer key from cochain_block_key and weight its
    weight with the algebra's own scalars.  reps is the RREF of ker d2 on the
    C^2 columns off b2_solver's pivots, and dim_z2 = dim_b2 + dim_h2.
    """

    def __init__(self, key, weight, c1basis, c2basis, c3basis, neg):
        self.key = key
        self.parity = key[0]
        self.weight = weight
        self.c2basis = c2basis
        self.c2pos = {k: i for i, k in enumerate(c2basis)}
        b2cols = [{} for _ in c1basis]
        for (r, c), v in differential_matrix(neg, c1basis, c2basis, self.parity).entries.items():
            b2cols[c][r] = v
        self.b2_solver = SpanSolver(b2cols, len(c2basis))
        self.dim_b2 = self.b2_solver.rank
        free = [c for c in range(len(c2basis)) if c not in self.b2_solver.pivot_columns]
        renumber = {c: i for i, c in enumerate(free)}
        d2_on_free = [{} for _ in c3basis]
        for (r, c), v in differential_matrix(neg, c2basis, c3basis, self.parity).entries.items():
            if c in renumber:
                d2_on_free[r][renumber[c]] = v
        kernel = kernel_basis(d2_on_free, len(free))
        self.reps = row_space_basis([{free[i]: v for i, v in z.items()} for z in kernel], len(c2basis))
        self.dim_h2 = len(self.reps)
        self.dim_z2 = self.dim_b2 + self.dim_h2
        self.rep_solver = SpanSolver(self.reps, len(c2basis)) if self.reps else None

    def class_coords(self, vec):
        """Coordinates {i: c} of [vec] over the representatives, or None if not a class.

        The cleared residual (den, t) of vec modulo B^2 is solved over the
        representatives and only the coordinates are divided by den.
        """
        den, t = self.b2_solver.reduce(vec)
        if not self.reps:
            return None if t else {}
        sol = self.rep_solver.solve(t)
        if sol is None or den == 1:
            return sol
        scale = rational(1, den)
        return {i: c * scale for i, c in sol.items()}


class DegreeCohomology:
    """H^2 of one Z-degree, split by (parity, weight) blocks, for the algebra neg.g."""

    def __init__(self, neg: NegativePart, z_degree: int):
        g = neg.g
        if g.truncation is not None and g.truncation < z_degree - 1:
            raise TruncationShortfall(
                f"degree {z_degree} needs components up to {z_degree - 1}, "
                f"truncation is {g.truncation}"
            )
        self.g = g
        self.z_degree = z_degree
        self.neg = neg
        by_key: List[Dict[tuple, list]] = [{}, {}, {}]
        for k, grouped in zip((1, 2, 3), by_key):
            for key in cochain_basis(neg, k, z_degree):
                grouped.setdefault(cochain_block_key(neg, key), []).append(key)
        # blocks in the order of the str of (parity, weight), the weight taken
        # with the algebra's own scalars from the block's first C^2 key
        weights = {key: block_weight(neg, c2[0]) for key, c2 in by_key[1].items()}
        self.blocks: List[Block] = [
            Block(key, weights[key], by_key[0].get(key, []), by_key[1][key], by_key[2].get(key, []), neg)
            for key in sorted(by_key[1], key=lambda k: (k[0], str(weights[k])))
        ]
        self.block_of_key = {b.key: i for i, b in enumerate(self.blocks)}
        self.offsets = []
        total = 0
        for b in self.blocks:
            self.offsets.append(total)
            total += b.dim_h2
        self.dim_h2 = total
        self.dim_z2 = sum(b.dim_z2 for b in self.blocks)
        self.dim_b2 = sum(b.dim_b2 for b in self.blocks)
        self._action_cache: Dict[int, dict] = {}

    def _induced(self, target, argument, p_op: int) -> dict:
        """Sparse global matrix {(row, col): scalar} of the operator that
        operator_image describes, induced on H^2: column j holds the class
        coordinates of the image of the j-th representative."""
        entries: Dict[Tuple[int, int], object] = {}
        for bi, b in enumerate(self.blocks):
            for ri, rep in enumerate(b.reps):
                coeffs = {b.c2basis[i]: v for i, v in rep.items()}
                image = operator_image(self.neg, 2, coeffs, b.parity, target, argument, p_op)
                if not image:
                    continue
                ti = self.block_of_key.get(cochain_block_key(self.neg, next(iter(image))))
                if ti is None or any(key not in self.blocks[ti].c2pos for key in image):
                    raise ValueError("action image leaves the computed blocks")
                tb = self.blocks[ti]
                cc = tb.class_coords({tb.c2pos[key]: v for key, v in image.items()})
                if cc is None:
                    raise ValueError("action image is not a cocycle class")
                for i, v in cc.items():
                    entries[(self.offsets[ti] + i, self.offsets[bi] + ri)] = v
        return entries

    def action_matrix(self, h: int) -> dict:
        """Sparse global matrix of the induced action of basis vector h on H^2."""
        if h not in self._action_cache:
            row = {b: v for (a, b), v in self.g._table.items() if a == h}
            self._action_cache[h] = self._induced(row, row, self.g.parity(h))
        return self._action_cache[h]

    def i_matrix(self) -> dict:
        """Sparse global matrix of the complex structure that a total i_op induces on H^2."""
        g = self.g
        if g.i_op is None or any(k not in g.i_op for k in range(len(g))):
            raise ValueError("i_op is not defined on every basis vector")
        return self._induced(g.i_op, {}, 0)

    def operator_kernel_on_block(self, bi: int, ops: List[int]):
        """Classes of block bi, which has dim_h2 > 0, killed by all listed operators (e.g. raisings)."""
        b = self.blocks[bi]
        lo = self.offsets[bi]
        rows: Dict[Tuple[int, int], dict] = {}
        for h in ops:
            for (r, c), v in self.action_matrix(h).items():
                if lo <= c < lo + b.dim_h2:
                    rows.setdefault((h, r), {})[c - lo] = v
        return row_space_basis(kernel_basis(list(rows.values()), b.dim_h2), b.dim_h2)

    def weight_vectors(self):
        """Per (weight, parity): the highest-weight classes, killed by all raisings.

        Returns a list of dicts with weight, parity, multiplicity and the
        vectors in block-class coordinates.
        """
        g = self.g
        ops = [g.index(s) for s in g.raising]
        out = []
        for bi, b in enumerate(self.blocks):
            if not b.dim_h2:
                continue
            vecs = self.operator_kernel_on_block(bi, ops)
            if vecs:
                out.append(
                    {
                        "block": bi,
                        "weight": b.weight,
                        "parity": b.parity,
                        "count": len(vecs),
                        "vectors": vecs,
                    }
                )
        return out


def i_pairing(deg: DegreeCohomology, weight_vectors):
    """Partition the weight-vector classes into i-pairs and leftovers.

    weight_vectors is deg.weight_vectors(), computed once by the caller.

    With a total i operator (realifications) the pairing is literal: the
    induced complex structure on H^2 matches each weight class with its i
    image.  For a partial operator (real forms) the detection is module
    theoretic: each weight space is paired through a non-scalar element of
    the commutant of the g0 action on the submodule it generates; weight
    classes on which the commutant acts by scalars stay unpaired (their
    module is of real type and stays irreducible after complexification).
    """
    g = deg.g
    if g.i_op is None:
        raise ValueError("algebra carries no i operator")
    total = all(k in g.i_op for k in range(len(g)))
    ops = [deg.i_matrix()] if total else [deg.action_matrix(h) for h in g.component_indices(0)]
    pairs = []
    unpaired = []
    for entry in weight_vectors:
        b = deg.blocks[entry["block"]]
        lo = deg.offsets[entry["block"]]
        classes = [{lo + i: v for i, v in vec.items()} for vec in entry["vectors"]]
        if total:
            i_rows = _restrict(ops[0], classes, SpanSolver(classes, deg.dim_h2))
            if i_rows is None:
                raise ValueError("i image left the weight-vector space")
            restricted = [i_rows]
        else:
            restricted = _commutant_on(deg, classes, ops)

        def label(j):
            return {
                "degree": deg.z_degree,
                "weight": _fmt_weight(b.weight),
                "parity": b.parity,
                "index": j,
            }

        p, u = _pair_directions(len(classes), restricted, label)
        pairs += p
        unpaired += u
    return {
        "degree": deg.z_degree,
        "pair_count": len(pairs),
        "pairs": [list(pp) for pp in pairs],
        "unpaired": unpaired,
        "undetermined": [],
        "mode": "total" if total else "commutant",
    }


def _restrict(mat: dict, basis, solver: SpanSolver):
    """Rows R[j] = coordinates over basis of mat applied to basis[j], or None
    if the image leaves span(basis); solver spans basis."""
    rows = []
    for vec in basis:
        sol = solver.solve(_mat_vec(mat, vec))
        if sol is None:
            return None
        rows.append(sol)
    return rows


def _commutant_on(deg: DegreeCohomology, classes, mats):
    """The even commutant of the action matrices on the submodule M that
    classes generate, restricted to span(classes); elements that leave that
    span are dropped.

    Each RREF basis vector of M lies in one block, since every action matrix
    maps a block into one block.  The Cartan elements act on each block by
    its weight when the weights come from assign_weights, so a commutant
    element maps each block of M into itself: its unknowns are the slots
    (r, c) whose module vectors share a block key, or only a parity when g
    has no Cartan elements.  M is closed under mats by construction, so the
    coordinates of a vector of M are its entries at M's pivots.
    """
    M = generated_submodule(deg, classes, mats)
    pivots = [min(vec) for vec in M]
    pos_key = [b.key if deg.g.cartan else b.key[:1] for b in deg.blocks for _ in range(b.dim_h2)]
    same_key: Dict[tuple, list] = {}
    for k, p in enumerate(pivots):
        same_key.setdefault(pos_key[p], []).append(k)
    peers = [same_key[pos_key[p]] for p in pivots]
    slots = [(r, c) for r in range(len(M)) for c in peers[r]]
    slot_pos = {rc: q for q, rc in enumerate(slots)}

    def coords(vec):
        return {k: vec[p] for k, p in enumerate(pivots) if p in vec}

    rows = []
    for mat in mats:
        # row (r, c) of AX - XA, with A[i, j] = v the coordinate i of mat M[j]
        eqs: Dict[Tuple[int, int], dict] = {}
        for j, vec in enumerate(M):
            for i, v in coords(_mat_vec(mat, vec)).items():
                for c in peers[j]:
                    _add_entry(eqs.setdefault((i, c), {}), slot_pos[(j, c)], v)
                for r in peers[i]:
                    _add_entry(eqs.setdefault((r, j), {}), slot_pos[(r, i)], -v)
        rows += [row for row in eqs.values() if row]
    wcoords = [coords(vec) for vec in classes]
    wsolver = SpanSolver(wcoords, len(M))
    restricted = []
    for X in kernel_basis(rows, len(slots)):
        R = _restrict({slots[q]: v for q, v in X.items()}, wcoords, wsolver)
        if R is not None:
            restricted.append(R)
    return restricted


def _pair_directions(nhw: int, restricted, label):
    """Pair each weight direction j with the first image R[j], over the
    restricted operators R, that lies outside the span used so far plus e_j;
    a direction no operator moves out of that span stays unpaired."""
    pairs = []
    unpaired = []
    used: list = []
    for j in range(nhw):
        unit = {j: ONE}
        solver = SpanSolver(used + [unit], nhw)
        # used is independent by construction, so e_j lies in its span exactly when the rank does not grow
        if solver.rank == len(used):
            continue
        partner = next((R[j] for R in restricted if R[j] and not solver.contains(R[j])), None)
        used.append(unit)
        if partner is None:
            unpaired.append(label(j))
        else:
            pairs.append((label(j), {"partner_combination": _fmt_scalar_list(partner, nhw)}))
            used.append(partner)
    return pairs, unpaired


def _fmt_weight(w):
    if w is None:
        return None
    out = []
    for x in w:
        if isinstance(x, GaussianRational):
            if x.im:
                out.append(format_scalar(x))
                continue
            x = x.re
        out.append(x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}")
    return out


def _fmt_scalar_list(vec, n):
    """A dict vector printed as a dense list of length n."""
    return [format_scalar(vec.get(i, ZERO)) for i in range(n)]


# -- submodule structure -------------------------------------------------------


def _mat_vec(mat: dict, vec):
    """Image of a dict vector under a matrix {(row, col): scalar}."""
    out = {}
    for (r, c), v in mat.items():
        x = vec.get(c)
        if x:
            _add_entry(out, r, v * x)
    return out


def generated_submodule(deg: DegreeCohomology, vectors, mats):
    """Closure of the span of the vectors under the action matrices.

    Each round applies the matrices only to the RREF rows whose pivots are
    new: they span a complement of the previous span, whose images are
    already in.  So the closure takes len(result) * len(mats) products.
    """
    n = deg.dim_h2
    pivots, basis = rref_rows(list(vectors), n)
    fresh = basis
    while fresh:
        images = [img for v in fresh for m in mats if (img := _mat_vec(m, v))]
        old = set(pivots)
        pivots, basis = rref_rows(basis + images, n)
        fresh = [v for c, v in zip(pivots, basis) if c not in old]
    return basis


# -- reports --------------------------------------------------------------------


def format_cochain(neg: NegativePart, coeffs: Dict[CKey, object]) -> str:
    """Render a nonzero 2-cochain in target (x* ^ y*) notation, scaled to nonzero primitive integers."""
    items = sorted(coeffs.items(), key=lambda kv: (neg.g.ident(kv[0][1]), kv[0][0]))
    vec = primitive_integer_vector([v for _, v in items])
    parts = []
    for ((word, t), _), c in zip(items, vec):
        names = [neg.g.ident(neg.indices[p]) for p in word]
        if len(word) == 2 and word[0] == word[1]:
            wedge = f"({names[0]}*)^∧2"
        else:
            wedge = "∧".join(f"{nm}*" for nm in names)
            wedge = f"({wedge})"
        coef = "" if c == 1 else ("-" if c == -1 else f"{c}·")
        term = f"{coef}{neg.g.ident(t)}⊗{wedge}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return " ".join(parts)


def wess_zumino_flags(dims: Dict[int, int]) -> Dict[int, bool]:
    """Degree d results are conditional when some lower degree has H^2 != 0."""
    flags = {}
    nonzero_below = False
    for d in sorted(dims):
        flags[d] = nonzero_below
        if dims[d]:
            nonzero_below = True
    return flags


def h2_by_degree(g_star: LieSuperAlgebra, degrees: Sequence[int]) -> dict:
    """Per-degree H^2 report for a graded algebra with negative part.

    Returns a JSON-ready dict: dims, representatives, highest-weight vector
    tables where Cartan data exists, and i-pairs where an i operator exists.
    The "i_pairing" entry of a degree has the keys degree, pair_count, pairs
    ([label, {"partner_combination": [...]}] lists), unpaired (labels),
    undetermined (always []) and mode ("total" or "commutant"); a label is
    {degree, weight, parity, index} of one weight-class direction.  degrees
    is any iterable of ints, a generator included, read once.  Raises
    TypeError for g_star not a LieSuperAlgebra, ValueError for an algebra that
    is not Z-graded, a degree not an int, or a bracket off the grading, the
    parities or the weights (LieSuperAlgebra.check_table names the first):
    the differential of a block must stay in that block.
    """
    if not isinstance(g_star, LieSuperAlgebra):
        raise TypeError(f"h2_by_degree needs a LieSuperAlgebra, got {type(g_star).__name__}")
    if not g_star.is_graded():
        raise ValueError("h2_by_degree needs a Z-graded algebra")
    degrees = list(degrees)
    if any(type(d) is not int for d in degrees):
        raise ValueError(f"degrees must be ints, got {degrees!r}")
    message = "h2_by_degree: the bracket [{a},{b}] has a term on {t}, off the {what}"
    g_star.check_table(ValueError, dict.fromkeys(("grading", "parities", "weights"), message))
    neg = NegativePart(g_star)
    degrees = sorted(degrees)
    per_degree = {}
    dims = {}
    for d in degrees:
        deg = DegreeCohomology(neg, d)
        dims[d] = deg.dim_h2
        reps = []
        for b in deg.blocks:
            for rep in b.reps:
                coeffs = {b.c2basis[i]: v for i, v in rep.items()}
                reps.append(
                    {
                        "weight": _fmt_weight(b.weight),
                        "parity": b.parity,
                        "expression": format_cochain(neg, coeffs),
                    }
                )
        entry = {
            "dim_Z2": deg.dim_z2,
            "dim_B2": deg.dim_b2,
            "dim_H2": deg.dim_h2,
            "representatives": reps,
        }
        wvs = deg.weight_vectors() if deg.dim_h2 and (g_star.cartan or g_star.i_op is not None) else []
        if g_star.cartan and deg.dim_h2:
            entry["weight_vectors"] = [
                {
                    "weight": _fmt_weight(deg.blocks[w["block"]].weight),
                    "parity": w["parity"],
                    "count": w["count"],
                }
                for w in wvs
            ]
            entry["weight_vector_total"] = sum(w["count"] for w in wvs)
        if g_star.i_op is not None and deg.dim_h2:
            entry["i_pairing"] = i_pairing(deg, wvs)
        per_degree[d] = entry
    flags = wess_zumino_flags(dims)
    for d in degrees:
        per_degree[d]["conditional"] = flags[d]
    return {
        "weight_mode": "highest",  # weight vectors are always highest-weight
        "truncation": g_star.truncation,
        "degrees": {str(d): per_degree[d] for d in degrees},
        "h2_dims": {str(d): dims[d] for d in degrees},
    }


