"""Exact algebra of Hermitian operators at most quadratic in canonical variables.

Observables are stored with exact rational coefficients so that commutators
and structure constants come out as equalities, never tolerance checks.

Conventions
-----------
Canonical variables are ordered z = (x, p) for one degree of freedom and
z = (x, y, p_x, p_y) for two.  An observable is

    A = scal * 1  +  sum_i lin[i] * z_i  +  (1/2) * sum_ij quad[i][j] * sym(z_i z_j)

with sym(z_i z_j) = (z_i z_j + z_j z_i)/2 and quad exactly symmetric, i.e.
quad is the Hessian of the classical symbol.  The symmetrized product of
position and momentum, x p + p x, therefore carries quad coefficient 2 on
the (x, p) slot, and x^2 carries quad coefficient 2 on the (x, x) slot.

Commutators of quadratic observables close at this order: [A, B] = i*hbar*C
where C follows the Poisson-bracket rule on the (quad, lin, scal) parts with
no truncation.  hbar never appears in C.

Each observable stores its coordinates (scal, lin, quad upper triangle) as
integers over one positive denominator, in lowest terms.  `commutator`,
`+`, `-` and `scale` work on those integers and reduce each result with
one gcd, and `structure_constants` reduces the generator coordinates once,
on integers, against every pair's commutator.  `quad`, `lin`, `scal` and
`coordinates()` are Fraction views of the stored integers, and structure
constants are Fractions, so every check stays an exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import mul
from typing import Iterable, Sequence

from .errors import ConsistencyError, DomainError

__all__ = [
    "QuadraticObservable",
    "StructureTable",
    "ALGEBRAS",
    "generator",
    "generator_count",
    "commutator",
    "structure_constants",
]

RationalLike = int | Fraction


def _rational(value: RationalLike) -> RationalLike:
    """An int or a Fraction as it is, another rational (a numpy integer) as a
    Fraction of Python ints; anything else, a float included, is a DomainError."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    raise DomainError(f"coefficients must be exact rationals (int or Fraction), "
                      f"got {type(value).__name__} {value!r}")


def _layout(dof: int) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The quad upper triangle's (i, c) in coordinate order, and the
    coordinate slot of each entry of each full quad row."""
    n = 2 * dof
    upper = [(i, c) for i in range(n) for c in range(i, n)]
    slot = {ic: 1 + n + k for k, ic in enumerate(upper)}
    return upper, [[slot[min(i, c), max(i, c)] for c in range(n)] for i in range(n)]


_LAYOUT = {dof: _layout(dof) for dof in (1, 2)}


@dataclass(frozen=True, init=False)
class QuadraticObservable:
    """Exact coefficient representation of an at-most-quadratic observable.

    ``_num`` holds the integer numerators of the coordinates (scal, lin,
    quad upper triangle) over the one positive denominator ``_den``, in
    lowest terms, so equal values compare and hash equal however they were
    built.
    """

    dof: int
    _num: tuple[int, ...]
    _den: int

    def __init__(
        self,
        dof: int,
        quad: Sequence[Sequence[RationalLike]],
        lin: Sequence[RationalLike],
        scal: RationalLike,
    ):
        if dof not in (1, 2):
            raise DomainError(f"dof must be 1 or 2, got {dof}")
        n = 2 * dof
        if len(quad) != n or any(len(row) != n for row in quad):
            raise DomainError(f"quad must be {n}x{n}")
        if len(lin) != n:
            raise DomainError(f"lin must have length {n}")
        if any(tuple(row) != col for row, col in zip(quad, zip(*quad))):
            raise DomainError("quad must be exactly symmetric")
        values = [_rational(v) for v in (scal, *lin, *[quad[i][c] for i, c in _LAYOUT[dof][0]])]
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(*[v.denominator for v in values])
        _store(self, dof, tuple([v.numerator * (den // v.denominator) for v in values]), den)

    @staticmethod
    def build(
        dof: int,
        quad: Sequence[Sequence[RationalLike]] | None = None,
        lin: Sequence[RationalLike] | None = None,
        scal: RationalLike = 0,
    ) -> "QuadraticObservable":
        n = 2 * dof
        return QuadraticObservable(
            dof, [[0] * n] * n if quad is None else quad, [0] * n if lin is None else lin, scal
        )

    @property
    def quad(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(self._num[k], self._den) for k in row)
                     for row in _LAYOUT[self.dof][1])

    @property
    def lin(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._den) for v in self._num[1:2 * self.dof + 1])

    @property
    def scal(self) -> Fraction:
        return Fraction(self._num[0], self._den)

    def is_zero(self) -> bool:
        return not any(self._num)

    def __add__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        self._check_dof(other)
        den = lcm(self._den, other._den)
        ka, kb = den // self._den, den // other._den
        return _reduced(self.dof, [u * ka + v * kb for u, v in zip(self._num, other._num)], den)

    def __sub__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        return self + (-other)

    def __neg__(self) -> "QuadraticObservable":
        return self.scale(-1)

    def scale(self, factor: RationalLike) -> "QuadraticObservable":
        f = _rational(factor)
        return _reduced(self.dof, [f.numerator * v for v in self._num], f.denominator * self._den)

    def coordinates(self) -> tuple[Fraction, ...]:
        """Flat exact coordinates: scal, lin entries, quad upper triangle."""
        return tuple(Fraction(v, self._den) for v in self._num)

    def _check_dof(self, other: "QuadraticObservable"):
        if self.dof != other.dof:
            raise DomainError(f"degree-of-freedom mismatch: {self.dof} vs {other.dof}")


def _store(obs: QuadraticObservable, dof: int, num: tuple[int, ...], den: int):
    """Set the fields of a frozen observable, which refuses plain assignment."""
    object.__setattr__(obs, "dof", dof)
    object.__setattr__(obs, "_num", num)
    object.__setattr__(obs, "_den", den)
    return obs


def _reduced(dof: int, num: list[int], den: int) -> QuadraticObservable:
    """The observable with coordinates num / den (den > 0), in lowest terms."""
    g = gcd(den, *num)
    if g > 1:
        num, den = [v // g for v in num], den // g
    return _store(object.__new__(QuadraticObservable), dof, tuple(num), den)


@dataclass(frozen=True)
class StructureTable:
    """Sparse table of structure constants c_ijk, exact rationals.

    An entry (i, j, k, c) with i < j means [g_i, g_j] = i*hbar * sum_k c * g_k.
    Absent triples are zero; swapping i and j flips the sign.
    """

    algebra: str
    n: int
    entries: tuple[tuple[int, int, int, Fraction], ...]

    def as_dict(self) -> dict[tuple[int, int, int], Fraction]:
        return {(i, j, k): c for (i, j, k, c) in self.entries}


def _lp_generators() -> list[QuadraticObservable]:
    b = QuadraticObservable.build
    return [
        b(1, scal=1),                       # identity
        b(1, lin=[1, 0]),                   # x
        b(1, lin=[0, 1]),                   # p
        b(1, quad=[[0, 0], [0, 2]]),        # p^2
    ]


def _gho_generators() -> list[QuadraticObservable]:
    b = QuadraticObservable.build
    return [
        b(1, scal=1),                       # identity
        b(1, lin=[1, 0]),                   # x
        b(1, lin=[0, 1]),                   # p
        b(1, quad=[[2, 0], [0, 0]]),        # x^2
        b(1, quad=[[0, 0], [0, 2]]),        # p^2
        b(1, quad=[[0, 2], [2, 0]]),        # x p + p x
    ]


def _cp_generators() -> list[QuadraticObservable]:
    # z = (x, y, p_x, p_y); indices 0..3
    def q(entries: Iterable[tuple[int, int, int]]) -> QuadraticObservable:
        m = [[0] * 4 for _ in range(4)]
        for i, j, v in entries:
            m[i][j] += v
            if i != j:
                m[j][i] += v
        return QuadraticObservable.build(2, quad=m)

    b = QuadraticObservable.build
    return [
        b(2, scal=1),                       # 1:  identity
        b(2, lin=[1, 0, 0, 0]),             # 2:  x
        b(2, lin=[0, 0, 1, 0]),             # 3:  p_x
        q([(0, 0, 2)]),                     # 4:  x^2
        q([(2, 2, 2)]),                     # 5:  p_x^2
        q([(0, 2, 2)]),                     # 6:  x p_x + p_x x
        b(2, lin=[0, 1, 0, 0]),             # 7:  y
        b(2, lin=[0, 0, 0, 1]),             # 8:  p_y
        q([(1, 1, 2)]),                     # 9:  y^2
        q([(3, 3, 2)]),                     # 10: p_y^2
        q([(1, 3, 2)]),                     # 11: y p_y + p_y y
        q([(0, 3, 1), (1, 2, -1)]),         # 12: L_z = x p_y - y p_x
        q([(0, 3, 1), (1, 2, 1)]),          # 13: x p_y + y p_x
        q([(0, 1, 1)]),                     # 14: x y
        q([(2, 3, 1)]),                     # 15: p_x p_y
    ]


ALGEBRAS: dict[str, list[QuadraticObservable]] = {
    "LP": _lp_generators(),
    "GHO": _gho_generators(),
    "CP": _cp_generators(),
}


def generator_count(algebra: str) -> int:
    return len(_generators(algebra))


def _generators(algebra: str) -> list[QuadraticObservable]:
    key = algebra.upper()
    if key not in ALGEBRAS:
        raise DomainError(f"unknown algebra {algebra!r}; choose LP, GHO or CP")
    return ALGEBRAS[key]


def generator(algebra: str, index: int) -> QuadraticObservable:
    """Return the exact coefficient representation of generator number `index`.

    Indexing is one-based and fixed: LP has 4 generators, GHO 6, CP 15.
    """
    gens = _generators(algebra)
    if not 1 <= index <= len(gens):
        raise DomainError(
            f"{algebra.upper()} has {len(gens)} generators; index {index} out of range"
        )
    return gens[index - 1]


def commutator(a: QuadraticObservable, b: QuadraticObservable) -> QuadraticObservable:
    """Exact commutator: returns C with [A, B] = i*hbar*C.

    For observables at most quadratic the Moyal bracket truncates to the
    Poisson bracket, so C is exact:

        C_scal = lin_A . J lin_B
        C_lin  = Q_A J lin_B - Q_B J lin_A
        C_quad = Q_A J Q_B - Q_B J Q_A = X + X^T,  X = Q_A J Q_B

    The last identity holds because Q_A and Q_B are symmetric and
    J^T = -J, so Q_B J Q_A = -X^T.  The sums run on the stored numerators,
    J is applied as the signed permutation (x, p) -> (p, -x) it is, and
    every sum is an integer dot product over den_A * den_B, brought to
    lowest terms by one gcd.
    """
    a._check_dof(b)
    dof, n = a.dof, 2 * a.dof
    upper, rows = _LAYOUT[dof]

    def j(v: list[int]) -> list[int]:
        return v[dof:] + [-x for x in v[:dof]]

    num_a, num_b = a._num, b._num
    la, lb = list(num_a[1:n + 1]), list(num_b[1:n + 1])
    qa = [[num_a[k] for k in row] for row in rows]
    qb = [[num_b[k] for k in row] for row in rows]
    jla, jlb = j(la), j(lb)
    # X[i][c] = Q_A[i] . (J Q_B)[:, c], and that column is J Q_B[c]
    jqb = [j(row) for row in qb]
    x = [[sum(map(mul, row, col)) for col in jqb] for row in qa]
    return _reduced(dof, [sum(map(mul, la, jlb)),
                          *[sum(map(mul, ra, jlb)) - sum(map(mul, rb, jla))
                            for ra, rb in zip(qa, qb)],
                          *[x[i][c] + x[c][i] for i, c in upper]], a._den * b._den)


def _solve_exact(
    columns: list[Sequence[int]], rhss: list[Sequence[int]]
) -> list[dict[int, Fraction] | None]:
    """Solve sum_k x_k * columns[k] = rhs exactly for every rhs in rhss.

    One Gauss-Jordan elimination of the augmented integer matrix
    [columns | rhss]: rows are combined fraction-free and divided by their
    gcd.  Returns one solution per rhs as its nonzero entries {k: x_k} in
    increasing k (free variables are zero), or None in place of an
    inconsistent rhs.
    """
    n_cols = len(columns)
    rows = [[col[r] for col in columns] + [rhs[r] for rhs in rhss]
            for r in range(len(columns[0]))]
    pivot_cols: list[int] = []
    for col in range(n_cols):
        top = len(pivot_cols)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        prow = rows[top]
        pv = prow[col]
        for r, row in enumerate(rows):
            factor = row[col]
            if r != top and factor:
                row = [pv * vr - factor * vp for vr, vp in zip(row, prow)]
                g = gcd(*row)
                rows[r] = [v // g for v in row] if g > 1 else row
        pivot_cols.append(col)
        if len(pivot_cols) == len(rows):
            break
    rank = len(pivot_cols)
    solutions: list[dict[int, Fraction] | None] = []
    for k in range(n_cols, n_cols + len(rhss)):
        if any(row[k] for row in rows[rank:]):
            solutions.append(None)
            continue
        solutions.append({col: Fraction(row[k], row[col])
                          for row, col in zip(rows, pivot_cols) if row[k]})
    return solutions


def structure_constants(algebra: str) -> StructureTable:
    """Compute every c_ijk (i < j) by expanding commutators in the generator set.

    One elimination of the generator coordinates solves for every pair.
    Raises ConsistencyError if any commutator falls outside the span of the
    generators (closure failure); that must never happen for LP, GHO or CP.
    """
    gens = _generators(algebra)
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    brackets = [commutator(gens[i], gens[j]) for i, j in pairs]
    # every column over one denominator: scaling them all alike keeps each solution
    den = lcm(*(obs._den for obs in gens + brackets))

    def column(obs: QuadraticObservable) -> list[int]:
        scale = den // obs._den
        return [v * scale for v in obs._num]

    solutions = _solve_exact([column(g) for g in gens], [column(c) for c in brackets])
    entries: list[tuple[int, int, int, Fraction]] = []
    for (i, j), coeffs in zip(pairs, solutions):
        if coeffs is None:
            raise ConsistencyError(
                f"[{algebra} generator {i + 1}, generator {j + 1}] is outside "
                "the algebra's span: closure failure"
            )
        entries.extend((i + 1, j + 1, k + 1, v) for k, v in coeffs.items())
    return StructureTable(algebra=algebra.upper(), n=len(gens), entries=tuple(entries))
