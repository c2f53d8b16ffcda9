"""Constructors for the concrete Lie superalgebras used by the scenarios.

Complex algebras are built over QQ(i) from supermatrix generators; real forms
(the Minkowski symmetry algebras) are cut out of the same matrix spaces over
QQ, keeping multiplication by i as a partial operator on the blocks it
preserves.  Realification of a complex algebra doubles the basis and installs
a total i operator.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from .algebra import Element, LieSuperAlgebra, from_matrices
from .scalars import FIELD_Q, FIELD_QI, GaussianRational, I, ZERO, rational
from .spaces import BasisVector, EVEN, ODD, SuperSpace

ONE = rational(1)


def _unit(r, c):
    return {(r, c): ONE}


def check_ints(least: int = 0, **values):
    """Raise TypeError unless each value is an int (not a bool), ValueError if one is below least;
    each message starts with the calling function's name, Class.method for a method."""
    frame = sys._getframe(1)
    owner = frame.f_locals.get("self")
    caller = frame.f_code.co_name if owner is None else f"{type(owner).__name__}.{frame.f_code.co_name}"
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{caller}: {name} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"{caller}: {name} must be >= {least}, got {value}")


# -- gl and sl ----------------------------------------------------------------


def build_gl(m: int, n: int, field=FIELD_QI) -> LieSuperAlgebra:
    """gl(m|n) on matrix units E_{a,b}; Cartan = diagonal, raising = upper units."""
    check_ints(m=m, n=n)
    if m + n < 1:
        raise ValueError("need m+n >= 1")
    parity = [EVEN] * m + [ODD] * n
    gens = []
    cartan, raising, lowering = [], [], []
    for a in range(m + n):
        for b in range(m + n):
            ident = f"E_{{{a + 1},{b + 1}}}"
            gens.append((ident, (parity[a] + parity[b]) % 2, None, _unit(a, b)))
            if a == b:
                cartan.append(ident)
            elif a < b:
                raising.append(ident)
            else:
                lowering.append(ident)
    alg = from_matrices(gens, parity, field=field, cartan=cartan, raising=raising, lowering=lowering)
    alg.name = f"gl({m}|{n};{'Q' if alg.field is FIELD_Q else 'C'})"
    alg.assign_weights()
    return alg


def build_sl(m: int, n: int, field=FIELD_QI) -> LieSuperAlgebra:
    """sl(m|n): supertraceless part of gl(m|n).  Requires m != n."""
    check_ints(m=m, n=n)
    if m == n:
        raise ValueError("sl(n|n) has a center; not needed here")
    parity = [EVEN] * m + [ODD] * n
    str_sign = [1] * m + [-1] * n
    gens = []
    cartan, raising, lowering = [], [], []
    N = m + n
    for a in range(N):
        for b in range(N):
            if a == b:
                continue
            ident = f"E_{{{a + 1},{b + 1}}}"
            gens.append((ident, (parity[a] + parity[b]) % 2, None, _unit(a, b)))
            (raising if a < b else lowering).append(ident)
    for a in range(N - 1):
        # E_{a,a} - s E_{a+1,a+1} with s chosen supertraceless
        s = rational(str_sign[a] * str_sign[a + 1])
        ident = f"H_{{{a + 1}}}"
        gens.append((ident, EVEN, None, {(a, a): ONE, (a + 1, a + 1): -s}))
        cartan.append(ident)
    alg = from_matrices(gens, parity, field=field, cartan=cartan, raising=raising, lowering=lowering)
    alg.name = f"sl({m}|{n};{'Q' if alg.field is FIELD_Q else 'C'})"
    alg.assign_weights()
    return alg


# -- the queer family ---------------------------------------------------------


def build_q(n: int, variant: str, field=FIELD_Q) -> LieSuperAlgebra:
    """q_J / q_Pi(n): supermatrices (A,B;tB,A) with t=-1 for J, +1 for Pi.

    The even part is gl(n) embedded diagonally; the odd generators are the
    B-block units.
    """
    check_ints(1, n=n)
    if variant not in ("J", "Pi", "Π"):
        raise ValueError("variant must be 'J' or 'Pi'")
    tau = -1 if variant == "J" else 1
    parity = [EVEN] * n + [ODD] * n
    gens = []
    cartan, raising, lowering = [], [], []
    for j in range(n):
        for k in range(n):
            ident = f"A_{{{j + 1},{k + 1}}}"
            gens.append((ident, EVEN, None, {(j, k): ONE, (n + j, n + k): ONE}))
            if j == k:
                cartan.append(ident)
            elif j < k:
                raising.append(ident)
            else:
                lowering.append(ident)
    for j in range(n):
        for k in range(n):
            ident = f"B_{{{j + 1},{k + 1}}}"
            gens.append(
                (ident, ODD, None, {(j, n + k): ONE, (n + j, k): rational(tau)})
            )
            if j < k:
                raising.append(ident)
            elif j > k:
                lowering.append(ident)
    alg = from_matrices(
        gens,
        parity,
        field=field,
        name=f"q_{variant}({n})",
        cartan=cartan,
        raising=raising,
        lowering=lowering,
    )
    alg.assign_weights()
    return alg


# -- nilpotent negative parts ---------------------------------------------------


def build_hei(n2: int, m: int, field=FIELD_Q) -> LieSuperAlgebra:
    """Heisenberg hei(n2|m): [v,w] = B(v,w) z with B even antisymmetric.

    Basis p_i, q_i (even), xi_j, eta_j and a last theta when m is odd (odd
    generators), central z; degrees -1 on W and -2 on z.
    """
    check_ints(n2=n2, m=m)
    if n2 % 2:
        raise ValueError("n2 must be even")
    n = n2 // 2
    k = m // 2
    basis = []
    for i in range(n):
        basis.append(BasisVector(f"p_{i + 1}", EVEN, -1))
    for i in range(n):
        basis.append(BasisVector(f"q_{i + 1}", EVEN, -1))
    for j in range(k):
        basis.append(BasisVector(f"ξ_{j + 1}", ODD, -1))
    for j in range(k):
        basis.append(BasisVector(f"η_{j + 1}", ODD, -1))
    if m % 2:
        basis.append(BasisVector("θ", ODD, -1))
    basis.append(BasisVector("z", EVEN, -2))
    space = SuperSpace(basis)
    idx = space.index
    z = idx["z"]
    brackets: Dict[Tuple[int, int], Element] = {}
    for i in range(n):
        brackets[(idx[f"p_{i + 1}"], idx[f"q_{i + 1}"])] = {z: ONE}
    for j in range(k):
        brackets[(idx[f"ξ_{j + 1}"], idx[f"η_{j + 1}"])] = {z: ONE}
    if m % 2:
        brackets[(idx["θ"], idx["θ"])] = {z: ONE}
    return LieSuperAlgebra(space, brackets, field=field, name=f"hei({n2}|{m})")


def build_ab(n: int, field=FIELD_Q) -> LieSuperAlgebra:
    """Antibracket algebra ab(n): odd central z, [q_i, ξ_i] = z."""
    check_ints(n=n)
    basis = []
    for i in range(n):
        basis.append(BasisVector(f"q_{i + 1}", EVEN, -1))
    for i in range(n):
        basis.append(BasisVector(f"ξ_{i + 1}", ODD, -1))
    basis.append(BasisVector("z", ODD, -2))
    space = SuperSpace(basis)
    idx = space.index
    z = idx["z"]
    brackets: Dict[Tuple[int, int], Element] = {
        (idx[f"q_{i + 1}"], idx[f"ξ_{i + 1}"]): {z: ONE} for i in range(n)
    }
    return LieSuperAlgebra(space, brackets, field=field, name=f"ab({n})")


# -- nonpositive parts -----------------------------------------------------------


def combine_nonpositive(g_minus: LieSuperAlgebra, g0: LieSuperAlgebra, matrices: List[dict]) -> LieSuperAlgebra:
    """The graded algebra g_minus + g0 (degrees <= 0), g0 acting on g_minus by matrices.

    matrices[k] is {(r, c): scalar}, the action of the k-th basis vector of g0
    on g_minus's basis: [g0_k, e_c] = sum_r m[r,c] e_r.  A from_matrices
    algebra acting on its column space passes its own .matrices.  The result
    has g_minus's field and g0's Cartan annotations.  ValueError unless there
    is one matrix per basis vector of g0 and every entry indexes g_minus's
    basis; prolong checks that the action represents g0 by derivations.
    """
    if len(matrices) != len(g0):
        raise ValueError("one matrix per algebra basis vector required")
    nneg = len(g_minus)
    basis = [BasisVector(b.id, b.parity, b.degree, b.weight) for b in g_minus.space.basis]
    for b in g0.space.basis:
        basis.append(BasisVector(b.id, b.parity, 0, b.weight))
    space = SuperSpace(basis)
    brackets: Dict[Tuple[int, int], Element] = {}
    for (i, j), val in g_minus._table.items():
        if i <= j:
            brackets[(i, j)] = dict(val)
    for (i, j), val in g0._table.items():
        if i <= j:
            brackets[(nneg + i, nneg + j)] = {nneg + t: v for t, v in val.items()}
    for k, mat in enumerate(matrices):
        for (r, c), v in mat.items():
            if not (0 <= r < nneg and 0 <= c < nneg):
                raise ValueError(f"matrix {k} has entry {(r, c)} outside the {nneg} basis vectors of g_minus")
            brackets.setdefault((nneg + k, c), {})[r] = v
    # LieSuperAlgebra stores an empty i_op as None
    i_op = {k: dict(v) for k, v in (g_minus.i_op or {}).items()}
    i_op.update({nneg + k: {nneg + t: c for t, c in v.items()} for k, v in (g0.i_op or {}).items()})
    return LieSuperAlgebra(
        space,
        brackets,
        cartan=list(g0.cartan),
        raising=list(g0.raising),
        lowering=list(g0.lowering),
        i_op=i_op,
        field=g_minus.field,
        name=f"({g_minus.name},{g0.name})≤0",
    )


def abelian_negative(parities: List[int]) -> LieSuperAlgebra:
    """The commutative algebra on ∂_1..∂_n of the given parities, all in degree -1.

    With a from_matrices algebra's .row_parity it is the column space that
    the algebra's .matrices act on.
    """
    basis = [BasisVector(f"∂_{c + 1}", p, -1) for c, p in enumerate(parities)]
    return LieSuperAlgebra(SuperSpace(basis), {}, name="abelian")


# -- Minkowski superspace symmetry algebras --------------------------------------


def _minkowski_layout(N: int):
    """Row layout for the 2|N|2 supermatrix format: I (even), J (odd), K (even)."""
    parity = [EVEN, EVEN] + [ODD] * N + [EVEN, EVEN]
    J0 = 2
    K0 = 2 + N
    return parity, J0, K0


def build_minkowski_negative(N: int) -> LieSuperAlgebra:
    """The negative part of the Minkowski superspace symmetry algebra, over QQ.

    Q-block generators (odd, degree -1) appear twice in each supermatrix, as Q
    and -conj(Q)^t; T-block generators (even, degree -2) are hermitian 2x2,
    coordinatized as (t11, Re t12 via T_{1,2}+T_{2,1}, Im t12 via
    i(T_{1,2}-T_{2,1}), t22).  Multiplication by i is stored where it stays in
    the algebra (the Q block).
    """
    check_ints(1, N=N)
    parity, J0, K0 = _minkowski_layout(N)
    gens = []
    for r in range(N):
        for c in range(2):
            base = {(J0 + r, c): ONE, (K0 + c, J0 + r): -ONE}
            gens.append((f"Q_{{{r + 1},{c + 1}}}", ODD, -1, base))
            ibase = {(J0 + r, c): I, (K0 + c, J0 + r): I}
            gens.append((f"iQ_{{{r + 1},{c + 1}}}", ODD, -1, ibase))
    gens.append(("T_{1,1}", EVEN, -2, {(K0, 0): ONE}))
    gens.append(("T_{2,2}", EVEN, -2, {(K0 + 1, 1): ONE}))
    gens.append(("T_{1,2}+T_{2,1}", EVEN, -2, {(K0, 1): ONE, (K0 + 1, 0): ONE}))
    gens.append(("i(T_{1,2}-T_{2,1})", EVEN, -2, {(K0, 1): I, (K0 + 1, 0): -I}))
    return from_matrices(
        gens, parity, field=FIELD_Q, name=f"mink{N}-", install_i=True
    )


def build_minkowski_g0(N: int, case: str) -> LieSuperAlgebra:
    """Degree <= 0 Minkowski algebra: g_minus plus its degree-0 symmetries.

    case "conformal": A in gl(2;C) with the u(N) block B pinned by the trace
    constraint tr B = tr(A - conj(A)^t); for N > 1 the traceless part of u(N)
    enters as extra generators.  case "reduced": B = 0 and A in sl(2;C).
    """
    check_ints(1, N=N)
    if case not in ("conformal", "reduced"):
        raise ValueError("case must be 'conformal' or 'reduced'")
    parity, J0, K0 = _minkowski_layout(N)
    neg = build_minkowski_negative(N)
    gens = [
        (neg.ident(k), neg.parity(k), neg.degree(k), dict(neg.matrices[k]))
        for k in range(len(neg))
    ]

    def a_block(mat_entries):
        """Supermatrix blockdiag(A, B(A), -conj(A)^t) for A given by entries."""
        out = {}
        tr = ZERO
        for (j, k), v in mat_entries.items():
            out[(j, k)] = v
            vb = v if isinstance(v, GaussianRational) else GaussianRational(v)
            out[(K0 + k, K0 + j)] = -vb.conjugate()
            if j == k:
                tr = tr + vb
        if case == "conformal":
            tr = tr if isinstance(tr, GaussianRational) else GaussianRational(tr)
            if tr.im:
                share = 2 * tr.im / N
                for r in range(N):
                    out[(J0 + r, J0 + r)] = GaussianRational(0, share)
        return {rc: v for rc, v in out.items() if v}

    cartan: List[str] = []
    raising = ["A_{1,2}", "iA_{1,2}"]
    lowering = ["A_{2,1}", "iA_{2,1}"]
    if case == "conformal":
        for (j, k) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            gens.append((f"A_{{{j + 1},{k + 1}}}", EVEN, 0, a_block({(j, k): ONE})))
            gens.append((f"iA_{{{j + 1},{k + 1}}}", EVEN, 0, a_block({(j, k): I})))
        cartan = ["A_{1,1}", "A_{2,2}"]
        for r in range(N):
            for s in range(N):
                if r == s:
                    continue
                # traceless anti-hermitian u(N) part: E_rs - E_sr and i(E_rs + E_sr)
                if r < s:
                    gens.append(
                        (
                            f"B_{{{r + 1},{s + 1}}}-B_{{{s + 1},{r + 1}}}",
                            EVEN,
                            0,
                            {(J0 + r, J0 + s): ONE, (J0 + s, J0 + r): -ONE},
                        )
                    )
                    gens.append(
                        (
                            f"i(B_{{{r + 1},{s + 1}}}+B_{{{s + 1},{r + 1}}})",
                            EVEN,
                            0,
                            {(J0 + r, J0 + s): I, (J0 + s, J0 + r): I},
                        )
                    )
        if N > 1:
            for r in range(N - 1):
                gens.append(
                    (
                        f"i(B_{{{r + 1},{r + 1}}}-B_{{{r + 2},{r + 2}}})",
                        EVEN,
                        0,
                        {(J0 + r, J0 + r): I, (J0 + r + 1, J0 + r + 1): -I},
                    )
                )
    else:
        gens.append(("A_{1,1}-A_{2,2}", EVEN, 0, a_block({(0, 0): ONE, (1, 1): -ONE})))
        gens.append(("i(A_{1,1}-A_{2,2})", EVEN, 0, a_block({(0, 0): I, (1, 1): -I})))
        gens.append(("A_{1,2}", EVEN, 0, a_block({(0, 1): ONE})))
        gens.append(("iA_{1,2}", EVEN, 0, a_block({(0, 1): I})))
        gens.append(("A_{2,1}", EVEN, 0, a_block({(1, 0): ONE})))
        gens.append(("iA_{2,1}", EVEN, 0, a_block({(1, 0): I})))
        cartan = ["A_{1,1}-A_{2,2}"]
    alg = from_matrices(
        gens,
        parity,
        field=FIELD_Q,
        name=f"mink{N}-{case}",
        cartan=cartan,
        raising=raising,
        lowering=lowering,
        install_i=True,
    )
    alg.assign_weights()
    return alg


def build_complexified_minkowski(N: int) -> LieSuperAlgebra:
    """Complexified Minkowski symmetry algebra over QQ(i), 2|N|2 format.

    All blocks are free complex matrices subject to tr B = tr(A + C); the
    grading is block-diagonal (deg T = -2, deg Q = deg S = -1, deg R = deg V =
    +1, deg U = +2).
    """
    check_ints(1, N=N)
    parity, J0, K0 = _minkowski_layout(N)
    gens: List[Tuple[str, int, Optional[int], dict]] = []
    # odd blocks
    for r in range(N):
        for c in range(2):
            gens.append((f"Q_{{{r + 1},{c + 1}}}", ODD, -1, _unit(J0 + r, c)))
            gens.append((f"R_{{{r + 1},{c + 1}}}", ODD, 1, _unit(J0 + r, K0 + c)))
    for c in range(2):
        for r in range(N):
            gens.append((f"S_{{{c + 1},{r + 1}}}", ODD, -1, _unit(K0 + c, J0 + r)))
            gens.append((f"V_{{{c + 1},{r + 1}}}", ODD, 1, _unit(c, J0 + r)))
    # even corner blocks
    for j in range(2):
        for k in range(2):
            gens.append((f"T_{{{j + 1},{k + 1}}}", EVEN, -2, _unit(K0 + j, k)))
            gens.append((f"U_{{{j + 1},{k + 1}}}", EVEN, 2, _unit(j, K0 + k)))
    # degree-0 part s(gl(2) + gl(N) + gl(2)): traces tied by tr B = tr A + tr C
    for j in range(2):
        for k in range(2):
            if j != k:
                gens.append((f"A_{{{j + 1},{k + 1}}}", EVEN, 0, _unit(j, k)))
                gens.append((f"C_{{{j + 1},{k + 1}}}", EVEN, 0, _unit(K0 + j, K0 + k)))
    for r in range(N):
        for s in range(N):
            if r != s:
                gens.append((f"B_{{{r + 1},{s + 1}}}", EVEN, 0, _unit(J0 + r, J0 + s)))
    for j in range(2):
        gens.append(
            (f"A_{{{j + 1},{j + 1}}}+B_{{1,1}}", EVEN, 0, {(j, j): ONE, (J0, J0): ONE})
        )
        gens.append(
            (
                f"C_{{{j + 1},{j + 1}}}+B_{{1,1}}",
                EVEN,
                0,
                {(K0 + j, K0 + j): ONE, (J0, J0): ONE},
            )
        )
    for r in range(1, N):
        gens.append(
            (
                f"B_{{{r + 1},{r + 1}}}-B_{{1,1}}",
                EVEN,
                0,
                {(J0 + r, J0 + r): ONE, (J0, J0): -ONE},
            )
        )
    return from_matrices(gens, parity, field=FIELD_QI, name=f"mink{N}^C")
