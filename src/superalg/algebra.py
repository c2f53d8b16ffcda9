"""Lie superalgebras presented by structure constants on an explicit basis.

An algebra is a SuperSpace plus a bracket table.  Optionally it carries a
Z-grading (degrees on basis vectors, with a truncation bound for algebras that
continue past the computed range), a Cartan/raising/lowering annotation used
for weight analysis, and a multiplication-by-i operator.  The i operator is
total on realifications and may be partial on real forms where only some
blocks are stable under i; it is stored as a sparse basis map.

Brackets are super-antisymmetric and validated super-Jacobi (exactly, over QQ
or QQ(i)); every constructor in this package funnels through the validation.
"""

from __future__ import annotations

from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import SpanSolver
from .scalars import (
    FIELD_Q,
    FIELD_QI,
    GaussianRational,
    ONE,
    ZERO,
    as_field,
    cleared,
    common_denominator,
    format_scalar,
    inexact,
    is_rational,
    parse_scalar,
    real_imag,
)
from .spaces import EVEN, ODD, BasisVector, SuperSpace

Element = Dict[int, object]  # sparse coefficient vector over the basis


class TruncationError(Exception):
    """A bracket beyond the computed degree range was requested."""


class LieSuperAlgebra:
    def __init__(
        self,
        space: SuperSpace,
        brackets: Dict[Tuple[int, int], Element],
        *,
        truncation: Optional[int] = None,
        cartan: Optional[List[str]] = None,
        raising: Optional[List[str]] = None,
        lowering: Optional[List[str]] = None,
        i_op: Optional[Dict[int, Element]] = None,
        field=FIELD_Q,
        name: str = "",
    ):
        if truncation is not None:
            ungraded = next((b.id for b in space if b.degree is None), None)
            if ungraded is not None:
                raise ValueError(f"truncated algebra: basis vector {ungraded!r} has no degree")
        self.space = space
        # the basis is fixed here (assign_weights changes only weights), so
        # the basis indices of each degree are listed once
        self._components: Dict[Optional[int], List[int]] = {}
        for k, b in enumerate(space.basis):
            self._components.setdefault(b.degree, []).append(k)
        self.truncation = truncation
        self.cartan = list(cartan) if cartan else []
        self.raising = list(raising) if raising else []
        self.lowering = list(lowering) if lowering else []
        for annotation in ("cartan", "raising", "lowering"):
            unknown = next((h for h in getattr(self, annotation) if h not in space.index), None)
            if unknown is not None:
                raise ValueError(f"{annotation} id {unknown!r} is not a basis id")
        self.i_op = dict(i_op) if i_op else None
        self.field = as_field(field)
        self.name = name
        self._table: Dict[Tuple[int, int], Element] = {}
        for (i, j), val in brackets.items():
            self._set_bracket(i, j, val)

    # -- basic access --------------------------------------------------------

    def __len__(self):
        return len(self.space)

    def sdim(self):
        return self.space.sdim

    def index(self, ident: str) -> int:
        return self.space.index[ident]

    def ident(self, k: int) -> str:
        return self.space.basis[k].id

    def parity(self, k: int) -> int:
        return self.space.parity(k)

    def degree(self, k: int):
        return self.space.basis[k].degree

    def is_graded(self) -> bool:
        return all(b.degree is not None for b in self.space)

    def degrees(self):
        return sorted({b.degree for b in self.space})

    def component_indices(self, d: int):
        """The basis indices of degree d, ascending; a new list on each call."""
        return list(self._components.get(d, ()))

    def negative_indices(self):
        return [k for k, b in enumerate(self.space.basis) if b.degree is not None and b.degree < 0]

    # -- bracket table ---------------------------------------------------------

    def _set_bracket(self, i, j, val):
        n = len(self.space)
        for k in (i, j, *val):
            if type(k) is not int or not 0 <= k < n:
                raise ValueError(f"bracket ({i!r}, {j!r}): {k!r} is not a basis index in range({n})")
        for c in val.values():
            if not (is_rational(c) or isinstance(c, GaussianRational)):
                raise inexact(c)
        val = {k: c for k, c in val.items() if c}
        odd = self.parity(i) and self.parity(j)
        mirror = {k: c if odd else -c for k, c in val.items()}
        for key, v in (((i, j), val), ((j, i), mirror)):
            old = self._table.get(key)
            if old is not None and old != v:
                raise ValueError(f"inconsistent bracket for {self.ident(key[0])},{self.ident(key[1])}")
            if v:
                self._table[key] = v

    def bracket_basis(self, i: int, j: int) -> Element:
        if self.truncation is not None:
            di, dj = self.degree(i), self.degree(j)
            if di + dj > self.truncation:
                raise TruncationError(
                    f"bracket [{self.ident(i)},{self.ident(j)}] has degree {di + dj}, "
                    f"beyond truncation {self.truncation}"
                )
        return self._table.get((i, j), {})

    def bracket(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the structure constants."""
        out: Element = {}
        for i, ci in x.items():
            if not ci:
                continue
            for j, cj in y.items():
                if not cj:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    nv = out.get(k, ZERO) + ci * cj * c
                    if nv:
                        out[k] = nv
                    elif k in out:
                        del out[k]
        return out

    def element(self, coeffs: Dict[str, object]) -> Element:
        return {self.index(ident): c for ident, c in coeffs.items() if c}

    # -- validation ------------------------------------------------------------

    def check_grading(self):
        """[g_i, g_j] must land in degree i+j."""
        if not self.is_graded():
            return []
        bad = []
        for (i, j), val in self._table.items():
            d = self.degree(i) + self.degree(j)
            for k, c in val.items():
                if self.degree(k) != d:
                    bad.append((self.ident(i), self.ident(j), self.ident(k)))
        return bad

    def check_parities(self):
        """[e_a, e_b] must have parity p(a) + p(b)."""
        bad = []
        for (i, j), val in self._table.items():
            p = (self.parity(i) + self.parity(j)) % 2
            for k in val:
                if self.parity(k) != p:
                    bad.append((self.ident(i), self.ident(j), self.ident(k)))
        return bad

    def check_weights(self):
        """[e_a, e_b] for a, b with weights must have only terms of weight wt(a) + wt(b).

        Lists (a, b, t) for each term t without a weight or of another
        weight; compared on the weights cleared by cleared_weights.
        """
        _, weights = self.cleared_weights()
        bad = []
        for (i, j), val in self._table.items():
            wi, wj = weights[i], weights[j]
            if wi is not None and wj is not None:
                want = tuple(map(add, wi, wj))
                for k in val:
                    if weights[k] != want:
                        bad.append((self.ident(i), self.ident(j), self.ident(k)))
        return bad

    def check_table(self, error, messages):
        """Raise error(message) for the first bracket that check_grading, check_parities or check_weights lists.

        The three checks run in that order.  messages maps each check's name,
        'grading', 'parities' or 'weights', to a str.format template, which
        may use {a}, {b} and {t} (the bracket [a, b] and its bad term t),
        {bad} (the tuple (a, b, t)) and {what} (the name).
        """
        for what, check in (
            ("grading", self.check_grading),
            ("parities", self.check_parities),
            ("weights", self.check_weights),
        ):
            bad = check()
            if bad:
                a, b, t = bad[0]
                raise error(messages[what].format(a=a, b=b, t=t, bad=bad[0], what=what))

    def cleared_weights(self):
        """(den, weights): every basis weight cleared by one common denominator.

        den is the lcm of the denominators of all basis weights and weights[k]
        is den times the weight of basis vector k, with the values of
        scalars.cleared, or None where it has none.
        """
        weights = [b.weight for b in self.space.basis]
        den = common_denominator(x for w in weights if w is not None for x in w)
        return den, [None if w is None else tuple(cleared(x, den) for x in w) for w in weights]

    def cleared_table(self):
        """(den, table): the bracket table cleared of denominators once.

        den is the lcm of the denominators of all structure constants and
        table[(a, b)] is den * [e_a, e_b], with the values of scalars.cleared:
        ints, and GaussianRationals with integral parts for the constants with
        a nonzero imaginary part.  Built on every call; nothing is kept.
        """
        den = common_denominator(c for val in self._table.values() for c in val.values())
        return den, {key: {t: cleared(c, den) for t, c in val.items()} for key, val in self._table.items()}

    def check_super_jacobi(self):
        """Exhaustive super Jacobi over basis triples; [] means pass.

        For truncated graded algebras only triples whose nested brackets stay
        inside the computed range are checked.  The Jacobiators are summed on
        the cleared table: each is den^2 times the Jacobiator of the
        structure constants, so it vanishes exactly when that one does.
        """
        n = len(self)
        bad = []
        _, table = self.cleared_table()
        parities = [self.parity(k) for k in range(n)]
        degrees = [self.degree(k) for k in range(n)]
        top = self.truncation
        for i in range(n):
            pi, di = parities[i], degrees[i]
            for j in range(i, n):
                pj, dj = parities[j], degrees[j]
                if top is not None and di + dj > top:
                    continue
                for k in range(j, n):
                    if top is not None:
                        dk = degrees[k]
                        if dj + dk > top or di + dk > top or di + dj + dk > top:
                            continue
                    if (i, j) not in table and (j, k) not in table and (i, k) not in table:
                        continue
                    pk = parities[k]
                    total: Element = {}
                    for (a, b, c, pa, pc) in (
                        (i, j, k, pi, pk),
                        (j, k, i, pj, pi),
                        (k, i, j, pk, pj),
                    ):
                        sign = -1 if (pa and pc) else 1
                        for m, cm in table.get((b, c), {}).items():
                            for t, ct in table.get((a, m), {}).items():
                                total[t] = total.get(t, 0) + sign * cm * ct
                    if any(total.values()):
                        bad.append((self.ident(i), self.ident(j), self.ident(k)))
        return bad

    def check_i_op(self):
        """i_op^2 = -id on its domain; ad-linearity over the i-stable part."""
        if not self.i_op:
            raise ValueError("algebra has no i operator")
        bad = []
        for k, img in self.i_op.items():
            sq: Element = {}
            ok = True
            for m, c in img.items():
                if m not in self.i_op:
                    ok = False
                    break
                for t, ct in self.i_op[m].items():
                    nv = sq.get(t, ZERO) + c * ct
                    if nv:
                        sq[t] = nv
                    elif t in sq:
                        del sq[t]
            if not ok or sq != {k: -ONE}:
                bad.append(self.ident(k))
        return bad

    # -- weights ---------------------------------------------------------------

    def assign_weights(self):
        """Set each basis vector's weight to its ad-eigenvalues under the Cartan ids.

        Requires every basis vector to be a simultaneous eigenvector; raises
        otherwise (our constructors all produce weight-adapted bases).
        """
        if not self.cartan:
            return
        cartan_idx = [self.index(h) for h in self.cartan]
        weights = []
        for k in range(len(self)):
            wt = []
            for h in cartan_idx:
                val = self._table.get((h, k), {})
                extra = [m for m in val if m != k]
                if extra:
                    raise ValueError(
                        f"basis vector {self.ident(k)} is not an ad({self.ident(h)}) eigenvector"
                    )
                wt.append(val.get(k, ZERO))
            weights.append(tuple(wt))
        new_basis = [
            BasisVector(b.id, b.parity, b.degree, tuple(weights[k]))
            for k, b in enumerate(self.space.basis)
        ]
        self.space = SuperSpace(new_basis)

    # -- serialization -----------------------------------------------------------

    def to_document(self) -> dict:
        basis = [
            {
                "id": b.id,
                "parity": "odd" if b.parity else "even",
                **({"degree": b.degree} if b.degree is not None else {}),
            }
            for b in self.space.basis
        ]
        constants = []
        for (i, j) in sorted(self._table):
            if i > j:
                continue
            for k, c in sorted(self._table[(i, j)].items()):
                constants.append([self.ident(i), self.ident(j), self.ident(k), format_scalar(c)])
        doc = {
            "format": "lie-superalgebra/1",
            "name": self.name,
            "field": self.field.name,
            "basis": basis,
            "brackets": constants,
        }
        if self.truncation is not None:
            doc["truncation"] = self.truncation
        if self.cartan:
            doc["cartan"] = self.cartan
        if self.raising:
            doc["raising"] = self.raising
        if self.lowering:
            doc["lowering"] = self.lowering
        if self.i_op is not None:
            doc["i_op"] = {
                self.ident(k): {self.ident(m): format_scalar(c) for m, c in sorted(img.items())}
                for k, img in sorted(self.i_op.items())
            }
        return doc

    @classmethod
    def from_document(cls, doc: dict) -> "LieSuperAlgebra":
        if doc.get("format") != "lie-superalgebra/1":
            raise ValueError("not a lie-superalgebra/1 document")
        missing = [key for key in ("basis", "brackets") if key not in doc]
        if missing:
            raise ValueError(f"lie-superalgebra/1 document without {missing[0]!r}")
        parities = {"even": EVEN, "odd": ODD}
        for b in doc["basis"]:
            if b["parity"] not in parities:
                raise ValueError(
                    f"basis vector {b['id']!r} has parity {b['parity']!r}, not 'even' or 'odd'"
                )
        space = SuperSpace(
            [BasisVector(b["id"], parities[b["parity"]], b.get("degree")) for b in doc["basis"]]
        )

        def index(ident):
            if ident not in space.index:
                raise ValueError(f"unknown basis id {ident!r}")
            return space.index[ident]

        brackets: Dict[Tuple[int, int], Element] = {}
        for i_id, j_id, k_id, cs in doc["brackets"]:
            brackets.setdefault((index(i_id), index(j_id)), {})[index(k_id)] = parse_scalar(cs)
        i_op = None
        if "i_op" in doc:
            i_op = {
                index(k): {index(m): parse_scalar(c) for m, c in img.items()}
                for k, img in doc["i_op"].items()
            }
        g = cls(
            space,
            brackets,
            truncation=doc.get("truncation"),
            cartan=doc.get("cartan"),
            raising=doc.get("raising"),
            lowering=doc.get("lowering"),
            i_op=i_op,
            field=doc.get("field", "Q"),
            name=doc.get("name", ""),
        )
        # a document carries no weights: they are recomputed from the Cartan ids
        g.assign_weights()
        return g

    def __repr__(self):
        label = self.name or "LieSuperAlgebra"
        return f"<{label} sdim {self.space.sdim_str()}>"


# Supermatrix helpers -------------------------------------------------------
#
# A supermatrix lives on a row/column parity vector; the (r,c) unit has parity
# p(r)+p(c).  Generators may be given as dense rows or {(r,c): scalar} dicts
# over QQ(i); structure constants come from expanding supercommutators in the
# given real or complex span.


def supercommutator(a, b, pa, pb):
    sign = -1 if (pa and pb) else 1
    out = {}
    bt: Dict[int, List[Tuple[int, object]]] = {}
    for (r, c), v in b.items():
        bt.setdefault(r, []).append((c, v))
    for (r, c), v in a.items():
        for (c2, w) in bt.get(c, ()):  # a_{rc} b_{c c2}
            key = (r, c2)
            nv = out.get(key, ZERO) + v * w
            if nv:
                out[key] = nv
            elif key in out:
                del out[key]
    at: Dict[int, List[Tuple[int, object]]] = {}
    for (r, c), v in a.items():
        at.setdefault(r, []).append((c, v))
    for (r, c), v in b.items():
        for (c2, w) in at.get(c, ()):
            key = (r, c2)
            nv = out.get(key, ZERO) - sign * v * w
            if nv:
                out[key] = nv
            elif key in out:
                del out[key]
    return out


def matrix_parity(entries, row_parity):
    ps = {(row_parity[r] + row_parity[c]) % 2 for (r, c) in entries}
    if not ps:
        return None
    if len(ps) > 1:
        raise ValueError("matrix is not parity homogeneous")
    return ps.pop()


def _vectorize_matrix(entries, n, real: bool):
    if real:
        vec = {}
        for (r, c), v in entries.items():
            re, im = real_imag(v)
            if re:
                vec[2 * (r * n + c)] = re
            if im:
                vec[2 * (r * n + c) + 1] = im
        return vec
    return {(r * n + c): v for (r, c), v in entries.items()}


def from_matrices(
    generators: Sequence[Tuple[str, int, Optional[int], dict]],
    row_parity: Sequence[int],
    *,
    field=FIELD_QI,
    name: str = "",
    cartan=None,
    raising=None,
    lowering=None,
    install_i: bool = False,
) -> LieSuperAlgebra:
    """Build an algebra from supermatrix generators, expanding brackets in their span.

    generators: (id, parity, degree, {(r,c): scalar}) with scalars in QQ(i).
    field is FIELD_Q or FIELD_QI, or its name as scalars.as_field accepts it.
    Over QQ the matrix space is treated as a real space, for real forms cut out
    inside a complex matrix algebra; over QQ(i) brackets expand in the complex
    span.
    install_i=True records multiplication by i as a (possibly partial) basis map.
    The result carries .matrices, the k-th generator's nonzero entries as
    {(r, c): scalar}, and .row_parity, the parities of the rows (and columns):
    the algebra's action on its column space, as combine_nonpositive takes it.
    """
    field = as_field(field)
    real = field is FIELD_Q
    n = len(row_parity)
    mats = []
    basis = []
    for ident, parity, degree, entries in generators:
        entries = {rc: v for rc, v in entries.items() if v}
        mp = matrix_parity(entries, row_parity)
        if mp is not None and mp != parity:
            raise ValueError(f"generator {ident} parity {parity} but matrix parity {mp}")
        basis.append(BasisVector(ident, parity, degree))
        mats.append(entries)
    space = SuperSpace(basis)
    vecs = [_vectorize_matrix(m, n, real) for m in mats]
    solver = SpanSolver(vecs, 2 * n * n if real else n * n)
    if solver.rank != len(mats):
        raise ValueError("generators are not linearly independent over the requested field")
    brackets: Dict[Tuple[int, int], Element] = {}
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            comm = supercommutator(mats[i], mats[j], basis[i].parity, basis[j].parity)
            if not comm:
                continue
            vec = _vectorize_matrix(comm, n, real)
            coeffs = solver.solve(vec)
            if coeffs is None:
                raise ValueError(
                    f"bracket [{basis[i].id},{basis[j].id}] leaves the span of the generators"
                )
            brackets[(i, j)] = dict(sorted(coeffs.items()))
    i_op = None
    if install_i:
        # multiplication by i on the block parameters: the generator naming
        # convention pairs X with iX exactly on the i-stable blocks
        ids = {b.id: k for k, b in enumerate(basis)}
        i_op = {}
        for ident, k in ids.items():
            partner = ids.get("i" + ident)
            if partner is not None:
                i_op[k] = {partner: ONE}
                i_op[partner] = {k: -ONE}
    alg = LieSuperAlgebra(
        space,
        brackets,
        cartan=cartan,
        raising=raising,
        lowering=lowering,
        i_op=i_op,
        field=field,
        name=name,
    )
    alg.matrices = mats
    alg.row_parity = list(row_parity)
    return alg


def realify(g: LieSuperAlgebra) -> LieSuperAlgebra:
    """Double the basis {X} -> {X, iX} of an algebra over QQ(i), installing i_op.

    Brackets follow [iX, Y] = i[X, Y] and [iX, iY] = -[X, Y]; parities and
    degrees are preserved.
    """
    if g.field is not FIELD_QI:
        raise ValueError("realify expects an algebra over Q(i)")
    n = len(g)
    basis = []
    for b in g.space.basis:
        basis.append(BasisVector(b.id, b.parity, b.degree, b.weight))
    for b in g.space.basis:
        basis.append(BasisVector("i" + b.id, b.parity, b.degree, b.weight))
    space = SuperSpace(basis)

    def split(val: Element, flip_i: int):
        """Expand i^flip_i * (complex element) over the doubled real basis."""
        out: Element = {}
        for k, c in val.items():
            re, im = real_imag(c)
            if flip_i == 1:
                re, im = -im, re
            elif flip_i == 2:
                re, im = -re, -im
            if re:
                out[k] = re
            if im:
                out[k + n] = im
        return out

    brackets: Dict[Tuple[int, int], Element] = {}
    for i in range(n):
        for j in range(i, n):
            val = g._table.get((i, j))
            if not val:
                continue
            brackets[(i, j)] = split(val, 0)
            brackets[(i, j + n)] = split(val, 1)
            brackets[(i + n, j)] = split(val, 1)
            brackets[(i + n, j + n)] = split(val, 2)
    # multiplication by i: e_k -> ie_k and ie_k -> -e_k
    i_op: Dict[int, Element] = {}
    for k in range(n):
        i_op[k] = {k + n: ONE}
        i_op[k + n] = {k: -ONE}
    raising = [r for r in g.raising] + ["i" + r for r in g.raising]
    lowering = [r for r in g.lowering] + ["i" + r for r in g.lowering]
    return LieSuperAlgebra(
        space,
        brackets,
        truncation=g.truncation,
        cartan=list(g.cartan),
        raising=raising,
        lowering=lowering,
        i_op=i_op,
        field=FIELD_Q,
        name=(g.name + "^R") if g.name else "",
    )

