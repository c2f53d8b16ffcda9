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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import LieSuperAlgebra
from .linalg import SpanSolver, SparseMatrix, kernel_basis, primitive_integer_vector, row_space_basis
from .scalars import GaussianRational, ONE, ZERO, common_denominator, format_scalar
from .spaces import admissible_words, sort_word

Word = Tuple[int, ...]
CKey = Tuple[Word, int]  # (argument word over negative positions, target index)


def _cleared(x, den: int):
    """den * x for a scalar x that it clears: an int, or a GaussianRational with integral parts."""
    if isinstance(x, GaussianRational):
        if x.im:
            return GaussianRational(x.re * den, x.im * den)
        x = x.re
    return x.numerator * (den // x.denominator)


class NegativePart:
    """Cached view of the arguments side of the complex.

    It also holds the bracket table cleared of denominators: den is the lcm of
    the denominators of all structure constants and table[(a, b)] is
    den * [e_a, e_b], with int values (GaussianRational with integral parts
    for a constant with a nonzero imaginary part).  One NegativePart serves a
    whole h2_by_degree report.
    """

    def __init__(self, g: LieSuperAlgebra):
        self.g = g
        self.den = common_denominator(c for val in g._table.values() for c in val.values())
        self.table = {
            key: {t: _cleared(c, self.den) for t, c in val.items()} for key, val in g._table.items()
        }
        self.indices = g.negative_indices()
        self.pos = {k: p for p, k in enumerate(self.indices)}
        self.parities = [g.parity(k) for k in self.indices]
        self.degrees = [g.degree(k) for k in self.indices]
        self.weights = [g.space.basis[k].weight for k in self.indices]
        self.has_weights = all(w is not None for w in self.weights)
        self._word_keys: Dict[Word, tuple] = {}

    def word_key(self, word: Word) -> tuple:
        """(parity, weight) of a word, computed on its first use and kept."""
        key = self._word_keys.get(word)
        if key is None:
            key = self._word_keys[word] = (self.word_parity(word), self.word_weight(word))
        return key

    def word_parity(self, word: Word) -> int:
        return sum(self.parities[i] for i in word) % 2

    def word_degree(self, word: Word) -> int:
        return sum(self.degrees[i] for i in word)

    def word_weight(self, word: Word):
        if not self.has_weights:
            return None
        if not word:
            rank = len(self.weights[0]) if self.weights else 0
            return (ZERO,) * rank if self.weights else ()
        rank = len(self.weights[0])
        return tuple(sum(self.weights[i][j] for i in word) for j in range(rank))


def cochain_basis(g: LieSuperAlgebra, neg: NegativePart, k: int, z_degree: int) -> List[CKey]:
    """Canonical basis of C^k in the given Z-degree."""
    out: List[CKey] = []
    for word in admissible_words(neg.parities, k):
        s = neg.word_degree(word)
        targets = g.component_indices(z_degree + s)
        for t in targets:
            out.append((word, t))
    return out


def cochain_block_key(g: LieSuperAlgebra, neg: NegativePart, key: CKey):
    word, t = key
    word_parity, wt = neg.word_key(word)
    parity = (g.parity(t) + word_parity) % 2
    tw = g.space.basis[t].weight
    if wt is None or tw is None:
        return (parity, None)
    return (parity, tuple(a - b for a, b in zip(tw, wt)))


def differential_matrix(
    g: LieSuperAlgebra,
    neg: NegativePart,
    k: int,
    z_degree: int,
    cols: Sequence[CKey],
    rows: Sequence[CKey],
    cochain_parity: int,
) -> SparseMatrix:
    """Matrix of neg.den * d: C^k -> C^{k+1} between explicit bases (one block).

    It is built from the cleared bracket table neg.table, so its entries are
    ints (GaussianRational with integral parts over QQ(i) when a constant has
    a nonzero imaginary part).  Scaling every map of the complex by the same
    nonzero constant den changes no kernel, image or row space: Z^2, B^2, their
    RREF bases and the representatives of H^2 are those of d itself.
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
        r = row_pos.get(row_key)
        c = col_pos.get(col_key)
        if r is None or c is None:
            return
        key = (r, c)
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
                for m_global, gamma in val.items():
                    m_pos = neg.pos.get(m_global)
                    if m_pos is None:
                        continue
                    sorted_word = sort_word((m_pos,) + rest, neg.parities)
                    if sorted_word is None:
                        continue
                    new_word, sigma = sorted_word
                    coeff = gamma * base_sign * sigma
                    for t in seen_words[word]:
                        scatter((word, t), (new_word, t), coeff)
    return SparseMatrix(len(rows), len(cols), entries)


class Cochain:
    """A homogeneous k-cochain with explicit coefficients on canonical words."""

    def __init__(self, neg: NegativePart, k: int, z_degree: int, coeffs: Dict[CKey, object], parity: Optional[int] = None):
        g = self.g = neg.g
        self.neg = neg
        self.k = k
        self.z_degree = z_degree
        self.coeffs = {key: c for key, c in coeffs.items() if c}
        parities = set()
        for (word, t) in self.coeffs:
            s = neg.word_degree(word)
            if g.degree(t) != z_degree + s:
                raise ValueError("coefficient violates the Z-degree homogeneity")
            parities.add((g.parity(t) + neg.word_parity(word)) % 2)
        if len(parities) > 1:
            raise ValueError("cochain is not parity homogeneous")
        self.parity = parity if parities == set() else parities.pop()

def cochain_action(h: int, c: Cochain) -> Cochain:
    """The g0-module structure on cochains, evaluated on canonical words:

    (h.c)(x_1..x_k) = [h, c(x_1..x_k)]
        - sum_i (-1)^{p(h)(p(c)+p(x_1)+..+p(x_{i-1}))} c(x_1,..,[h,x_i],..,x_k)
    """
    neg = c.neg
    g = neg.g
    ph = g.parity(h)
    pc = c.parity or 0
    out: Dict[CKey, object] = {}

    def add(key, val):
        nv = out.get(key, ZERO) + val
        if nv:
            out[key] = nv
        elif key in out:
            del out[key]

    by_word: Dict[Word, list] = {}
    for (word, t), cval in c.coeffs.items():
        by_word.setdefault(word, []).append((t, cval))
        for tt, hv in g._table.get((h, t), {}).items():
            add((word, tt), cval * hv)
    if any(g._table.get((h, neg.indices[p]), {}) for p in range(len(neg.indices))):
        for word in admissible_words(neg.parities, c.k):
            pref = 0
            for i, w in enumerate(word):
                exp = ph * (pc + pref)
                sign = -1 if exp % 2 else 1
                a_global = neg.indices[w]
                for m_global, hv in g._table.get((h, a_global), {}).items():
                    m_pos = neg.pos.get(m_global)
                    if m_pos is None:
                        continue
                    modified = word[:i] + (m_pos,) + word[i + 1 :]
                    res = sort_word(modified, neg.parities)
                    if res is None:
                        continue
                    new_word, sigma = res
                    for t, cval in by_word.get(new_word, ()):
                        add((word, t), -hv * cval * sign * sigma)
                pref += neg.parities[w]
    return Cochain(
        neg, c.k, c.z_degree, out, parity=(pc + ph) % 2 if c.parity is not None else None
    )


class TruncationShortfall(Exception):
    """The prolong is not deep enough for the requested cohomology degree."""


class Block:
    """All cochain data of one (parity, weight) block in one Z-degree."""

    def __init__(self, key, c1basis, c2basis, c3basis, g, neg, z_degree):
        self.key = key
        self.parity = key[0]
        self.weight = key[1]
        self.c2basis = c2basis
        self.c2pos = {k: i for i, k in enumerate(c2basis)}
        d2 = differential_matrix(g, neg, 2, z_degree, c2basis, c3basis, self.parity)
        self.z2 = kernel_basis(d2.row_dicts(), d2.cols)
        d1 = differential_matrix(g, neg, 1, z_degree, c1basis, c2basis, self.parity)
        b2cols = [{} for _ in c1basis]
        for (r, c), v in d1.entries.items():
            b2cols[c][r] = v
        self.b2_solver = SpanSolver(b2cols, len(c2basis))
        self.dim_z2 = len(self.z2)
        self.dim_b2 = self.b2_solver.rank
        residuals = [self.b2_solver.reduce(z) for z in self.z2]
        self.reps = row_space_basis(residuals, len(c2basis))
        self.dim_h2 = len(self.reps)
        self.rep_solver = SpanSolver(self.reps, len(c2basis)) if self.reps else None

    def class_coords(self, vec):
        """Coordinates {i: c} of [vec] over the representatives, or None if not a class."""
        residual = self.b2_solver.reduce(vec)
        if not self.reps:
            return None if residual else {}
        return self.rep_solver.solve(residual)


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
        basis1 = cochain_basis(g, neg, 1, z_degree)
        basis2 = cochain_basis(g, neg, 2, z_degree)
        basis3 = cochain_basis(g, neg, 3, z_degree)
        by_key_1: Dict[tuple, list] = {}
        for key in basis1:
            by_key_1.setdefault(cochain_block_key(g, neg, key), []).append(key)
        by_key_2: Dict[tuple, list] = {}
        for key in basis2:
            by_key_2.setdefault(cochain_block_key(g, neg, key), []).append(key)
        by_key_3: Dict[tuple, list] = {}
        for key in basis3:
            by_key_3.setdefault(cochain_block_key(g, neg, key), []).append(key)
        self.blocks: List[Block] = []
        for key in sorted(by_key_2, key=lambda k: (k[0], str(k[1]))):
            self.blocks.append(
                Block(
                    key,
                    by_key_1.get(key, []),
                    by_key_2[key],
                    by_key_3.get(key, []),
                    g,
                    neg,
                    z_degree,
                )
            )
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

    def classes(self):
        out = []
        for bi, b in enumerate(self.blocks):
            for ri in range(b.dim_h2):
                out.append((bi, ri))
        return out

    def rep_cochain(self, bi: int, ri: int) -> Cochain:
        b = self.blocks[bi]
        coeffs = {b.c2basis[i]: v for i, v in b.reps[ri].items()}
        return Cochain(self.neg, 2, self.z_degree, coeffs, parity=b.parity)

    def _shifted_key(self, key, h):
        ph = self.g.parity(h)
        wh = self.g.space.basis[h].weight
        parity = (key[0] + ph) % 2
        if key[1] is None or wh is None:
            return (parity, key[1])
        return (parity, tuple(a + b for a, b in zip(key[1], wh)))

    def action_matrix(self, h: int) -> dict:
        """Sparse global matrix of the induced action of basis vector h on H^2."""
        if h in self._action_cache:
            return self._action_cache[h]
        entries: Dict[Tuple[int, int], object] = {}
        for bi, b in enumerate(self.blocks):
            if not b.dim_h2:
                continue
            tkey = self._shifted_key(b.key, h)
            ti = self.block_of_key.get(tkey)
            for ri in range(b.dim_h2):
                c = self.rep_cochain(bi, ri)
                hc = cochain_action(h, c)
                if not hc.coeffs:
                    continue
                if ti is None:
                    raise ValueError("action image leaves the computed blocks")
                tb = self.blocks[ti]
                cc = tb.class_coords({tb.c2pos[k2]: v for k2, v in hc.coeffs.items()})
                if cc is None:
                    raise ValueError("action image is not a cocycle class")
                col = self.offsets[bi] + ri
                for i, v in cc.items():
                    entries[(self.offsets[ti] + i, col)] = v
        self._action_cache[h] = entries
        return entries

    def operator_kernel_on_block(self, bi: int, ops: List[int]):
        """Classes of block bi killed by all listed operators (e.g. raisings)."""
        b = self.blocks[bi]
        if not b.dim_h2:
            return []
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
            vecs = self.operator_kernel_on_block(bi, ops) if ops else [{j: ONE} for j in range(b.dim_h2)]
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

def apply_i_cochain(g: LieSuperAlgebra, coeffs: Dict[CKey, object]):
    """Post-compose a cochain with multiplication by i, or None off the i-domain."""
    if g.i_op is None:
        return None
    out: Dict[CKey, object] = {}
    for (word, t), c in coeffs.items():
        img = g.i_op.get(t)
        if img is None:
            return None
        for tt, v in img.items():
            key = (word, tt)
            nv = out.get(key, ZERO) + c * v
            if nv:
                out[key] = nv
            elif key in out:
                del out[key]
    return out


def i_pairing(deg: DegreeCohomology):
    """Partition the weight-vector classes into i-pairs and leftovers.

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
    wvs = deg.weight_vectors()
    pairs = []
    unpaired = []
    undetermined = []
    for entry in wvs:
        bi = entry["block"]
        b = deg.blocks[bi]
        hw = entry["vectors"]
        nhw = len(hw)
        hw_solver = SpanSolver(hw, b.dim_h2)

        def label(j):
            return {
                "degree": deg.z_degree,
                "weight": _fmt_weight(b.weight),
                "parity": b.parity,
                "index": j,
            }

        if total:
            def image_of(j):
                vec = _class_to_c2(deg, bi, hw[j])
                ivec = apply_i_cochain(g, vec)
                cc = b.class_coords(_c2_to_vec(deg, bi, ivec))
                sol = hw_solver.solve(cc) if cc is not None else None
                if sol is None:
                    raise ValueError("i image left the weight-vector space")
                return sol

            p, u, und = _greedy_pairs(nhw, image_of, label)
        else:
            p, u, und = _commutant_pairs(deg, bi, hw, label)
        pairs += p
        unpaired += u
        undetermined += und
    return {
        "degree": deg.z_degree,
        "pair_count": len(pairs),
        "pairs": [list(pp) for pp in pairs],
        "unpaired": unpaired,
        "undetermined": undetermined,
        "mode": "total" if total else "commutant",
    }


def _commutant_pairs(deg: DegreeCohomology, bi: int, hw, label):
    """Pair weight classes through the commutant of g0 on their submodule."""
    g = deg.g
    n = deg.dim_h2
    mats = [deg.action_matrix(h) for h in g.component_indices(0)]
    gvecs = [{deg.offsets[bi] + i: val for i, val in v.items()} for v in hw]
    M = generated_submodule(deg, gvecs, mats)
    m = len(M)
    msolver = SpanSolver(M, n)
    # parity of each module basis vector, read off its block support
    par = []
    for vec in M:
        ps = set()
        for pos in vec:
            for bj, block in enumerate(deg.blocks):
                if deg.offsets[bj] <= pos < deg.offsets[bj] + block.dim_h2:
                    ps.add(block.parity)
        par.append(ps.pop() if len(ps) == 1 else None)
    # restricted action matrices
    acts = []
    for mat in mats:
        A = {}
        for j, vec in enumerate(M):
            sol = msolver.solve(_mat_vec(mat, vec))
            if sol is None:
                raise ValueError("generated module is not action closed")
            for i, val in sol.items():
                A[(i, j)] = val
        acts.append(A)
    # parity-even commutant: unknowns X[(r,c)] with par r == par c
    slots = [
        (r, c)
        for r in range(m)
        for c in range(m)
        if par[r] is not None and par[r] == par[c]
    ]
    slot_pos = {rc: q for q, rc in enumerate(slots)}
    rows = []
    for A in acts:
        for r in range(m):
            for c in range(m):
                row = {}
                for k in range(m):
                    v1 = A.get((r, k))
                    if v1 and (k, c) in slot_pos:
                        q = slot_pos[(k, c)]
                        row[q] = row.get(q, ZERO) + v1
                    v2 = A.get((k, c))
                    if v2 and (r, k) in slot_pos:
                        q = slot_pos[(r, k)]
                        row[q] = row.get(q, ZERO) - v2
                row = {q: v for q, v in row.items() if v}
                if row:
                    rows.append(row)
    comm = kernel_basis(rows, len(slots))
    # restrict the commutant to the weight space
    nhw = len(hw)
    wcoords = [msolver.solve(gv) for gv in gvecs]
    if any(w is None for w in wcoords):
        return [], [], [label(j) for j in range(nhw)]
    wsolver = SpanSolver(wcoords, m)
    restricted = []
    for X in comm:
        matX = {slots[q]: v for q, v in X.items()}
        ok = True
        rows_w = []
        for w in wcoords:
            sol = wsolver.solve(_mat_vec(matX, w))
            if sol is None:
                ok = False
                break
            rows_w.append(sol)
        if ok:
            restricted.append(rows_w)  # nhw x nhw matrix, rows = images
    # pair each direction with a commutant image independent of what is used
    pairs = []
    unpaired = []
    used: list = []
    for j in range(nhw):
        unit = {j: ONE}
        if used and SpanSolver(used, nhw).contains(unit):
            continue
        partner = None
        for R in restricted:
            img = R[j]
            if not img:
                continue
            test = used + [unit]
            if not SpanSolver(test, nhw).contains(img):
                partner = img
                break
        if partner is None:
            unpaired.append(label(j))
            used.append(unit)
        else:
            pairs.append((label(j), {"partner_combination": _fmt_scalar_list(partner, nhw)}))
            used.append(unit)
            used.append(partner)
    return pairs, unpaired, []


def _greedy_pairs(nhw, image_of, label):
    """Pair basis directions with their i-images, tracking the used span."""
    pairs = []
    unpaired = []
    undetermined = []
    used: list = []
    for j in range(nhw):
        unit = {j: ONE}
        if used and SpanSolver(used, nhw).contains(unit):
            continue
        img = image_of(j)
        if img is None:
            undetermined.append(label(j))
            used.append(unit)
            continue
        if not img:
            unpaired.append(label(j))
            used.append(unit)
            continue
        pairs.append((label(j), {"partner_combination": _fmt_scalar_list(img, nhw)}))
        used.append(unit)
        used.append(img)
    return pairs, unpaired, undetermined


def _class_to_c2(deg: DegreeCohomology, bi: int, class_vec):
    """Lift class coordinates to a representative's C^2 coefficient dict."""
    b = deg.blocks[bi]
    out = {}
    for i, coef in class_vec.items():
        for pos, v in b.reps[i].items():
            key = b.c2basis[pos]
            nv = out.get(key, ZERO) + coef * v
            if nv:
                out[key] = nv
            elif key in out:
                del out[key]
    return out


def _c2_to_vec(deg: DegreeCohomology, bi: int, coeffs):
    pos = deg.blocks[bi].c2pos
    return {pos[key]: v for key, v in coeffs.items()} if coeffs is not None else {}


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
        num = int(x.numerator) if hasattr(x, "numerator") else int(x)
        den = int(x.denominator) if hasattr(x, "denominator") else 1
        out.append(num if den == 1 else f"{num}/{den}")
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
            nv = out.get(r, ZERO) + v * x
            if nv:
                out[r] = nv
            else:
                del out[r]
    return out


def generated_submodule(deg: DegreeCohomology, vectors, mats):
    """Closure of the span of the vectors under the action matrices."""
    n = deg.dim_h2
    basis = row_space_basis(vectors, n)
    while True:
        new = list(basis)
        for v in basis:
            for m in mats:
                img = _mat_vec(m, v)
                if img:
                    new.append(img)
        nb = row_space_basis(new, n)
        if len(nb) == len(basis):
            return nb
        basis = nb


# -- reports --------------------------------------------------------------------


def format_cochain(g: LieSuperAlgebra, neg: NegativePart, coeffs: Dict[CKey, object]) -> str:
    """Render a 2-cochain in target (x* ^ y*) notation, integer-scaled."""
    if not coeffs:
        return "0"
    items = sorted(coeffs.items(), key=lambda kv: (g.ident(kv[0][1]), kv[0][0]))
    vec = primitive_integer_vector([v for _, v in items])
    parts = []
    for ((word, t), _), c in zip(items, vec):
        if not c:
            continue
        names = [g.ident(neg.indices[p]) for p in word]
        if len(word) == 2 and word[0] == word[1]:
            wedge = f"({names[0]}*)^∧2"
        else:
            wedge = "∧".join(f"{nm}*" for nm in names)
            wedge = f"({wedge})"
        coef = "" if c == 1 else ("-" if c == -1 else f"{c}·")
        term = f"{coef}{g.ident(t)}⊗{wedge}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


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
    """
    neg = NegativePart(g_star)
    degrees = sorted(degrees)
    per_degree = {}
    dims = {}
    for d in degrees:
        deg = DegreeCohomology(neg, d)
        dims[d] = deg.dim_h2
        reps = []
        for (bi, ri) in deg.classes():
            b = deg.blocks[bi]
            coeffs = {b.c2basis[i]: v for i, v in b.reps[ri].items()}
            reps.append(
                {
                    "weight": _fmt_weight(b.weight),
                    "parity": b.parity,
                    "expression": format_cochain(g_star, neg, coeffs),
                }
            )
        entry = {
            "dim_Z2": deg.dim_z2,
            "dim_B2": deg.dim_b2,
            "dim_H2": deg.dim_h2,
            "representatives": reps,
        }
        if g_star.cartan and deg.dim_h2:
            wvs = deg.weight_vectors()
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
            entry["i_pairing"] = i_pairing(deg)
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


