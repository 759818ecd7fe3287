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

The arithmetic is exact integer arithmetic over a common denominator:
`commutator` scales each operand to integers by the lcm of its
denominators, and `structure_constants` reduces the generator coordinates
once, on integers, against every pair's commutator.  Results are built
as Fractions only at the end, so every check stays an exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
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
_ZERO = Fraction(0)


def _frac(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class QuadraticObservable:
    """Exact coefficient representation of an at-most-quadratic observable."""

    dof: int
    quad: tuple[tuple[Fraction, ...], ...]
    lin: tuple[Fraction, ...]
    scal: Fraction

    def __post_init__(self):
        n = 2 * self.dof
        if self.dof not in (1, 2):
            raise DomainError(f"dof must be 1 or 2, got {self.dof}")
        if len(self.quad) != n or any(len(row) != n for row in self.quad):
            raise DomainError(f"quad must be {n}x{n}")
        if len(self.lin) != n:
            raise DomainError(f"lin must have length {n}")
        if any(tuple(row) != col for row, col in zip(self.quad, zip(*self.quad))):
            raise DomainError("quad must be exactly symmetric")

    @staticmethod
    def build(
        dof: int,
        quad: Sequence[Sequence[RationalLike]] | None = None,
        lin: Sequence[RationalLike] | None = None,
        scal: RationalLike = 0,
    ) -> "QuadraticObservable":
        n = 2 * dof
        quad = [[0] * n] * n if quad is None else quad
        lin = [0] * n if lin is None else lin
        return QuadraticObservable(
            dof=dof,
            quad=tuple(tuple(_frac(quad[i][j]) for j in range(n)) for i in range(n)),
            lin=tuple(_frac(lin[i]) for i in range(n)),
            scal=_frac(scal),
        )

    def is_zero(self) -> bool:
        return not any(self.coordinates())

    def __add__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        self._check_dof(other)
        return QuadraticObservable(
            dof=self.dof,
            quad=tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.quad, other.quad)),
            lin=tuple(map(add, self.lin, other.lin)),
            scal=self.scal + other.scal,
        )

    def __sub__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        return self + (-other)

    def __neg__(self) -> "QuadraticObservable":
        return self.scale(-1)

    def scale(self, factor: RationalLike) -> "QuadraticObservable":
        f = _frac(factor)
        return QuadraticObservable(
            dof=self.dof,
            quad=tuple(tuple(f * v for v in row) for row in self.quad),
            lin=tuple(f * v for v in self.lin),
            scal=f * self.scal,
        )

    def coordinates(self) -> tuple[Fraction, ...]:
        """Flat exact coordinates: scal, lin entries, quad upper triangle."""
        n = 2 * self.dof
        upper = (self.quad[i][j] for i in range(n) for j in range(i, n))
        return (self.scal, *self.lin, *upper)

    def _check_dof(self, other: "QuadraticObservable"):
        if self.dof != other.dof:
            raise DomainError(f"degree-of-freedom mismatch: {self.dof} vs {other.dof}")


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
    def q(entries: Iterable[tuple[int, int, RationalLike]]) -> QuadraticObservable:
        m = [[Fraction(0)] * 4 for _ in range(4)]
        for i, j, v in entries:
            m[i][j] += _frac(v)
            if i != j:
                m[j][i] += _frac(v)
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


def _integers(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(den, ints): den the lcm of the denominators, ints the values times den."""
    den = lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def commutator(a: QuadraticObservable, b: QuadraticObservable) -> QuadraticObservable:
    """Exact commutator: returns C with [A, B] = i*hbar*C.

    For observables at most quadratic the Moyal bracket truncates to the
    Poisson bracket, so C is exact:

        C_scal = lin_A . J lin_B
        C_lin  = Q_A J lin_B - Q_B J lin_A
        C_quad = Q_A J Q_B - Q_B J Q_A = X + X^T,  X = Q_A J Q_B

    The last identity holds because Q_A and Q_B are symmetric and
    J^T = -J, so Q_B J Q_A = -X^T.  Each operand is scaled to integers by
    the lcm of its denominators, J is applied as the signed permutation
    (x, p) -> (p, -x) it is, and every sum is an integer dot product; each
    coordinate of C becomes one Fraction over den_A * den_B at the end.
    """
    a._check_dof(b)
    dof, n = a.dof, 2 * a.dof

    def integer_form(obs):  # scal is left out: the identity commutes with all
        den, ints = _integers([*obs.lin, *(v for row in obs.quad for v in row)])
        return den, [ints[n * (i + 1): n * (i + 2)] for i in range(n)], ints[:n]

    def j(v: list[int]) -> list[int]:
        return v[dof:] + [-x for x in v[:dof]]

    def dot(u: list[int], v: list[int]) -> int:
        return sum(map(mul, u, v))

    den_a, qa, la = integer_form(a)
    den_b, qb, lb = integer_form(b)
    den = den_a * den_b
    jla, jlb = j(la), j(lb)
    # X[i][c] = (Q_A J)[i] . Q_B[c], and the row (Q_A J)[i] is -J Q_A[i]
    x = [[-dot(jrow, qb_c) for qb_c in qb] for jrow in map(j, qa)]
    quad = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for c in range(i, n):
            quad[i][c] = quad[c][i] = Fraction(x[i][c] + x[c][i], den)
    return QuadraticObservable(
        dof=a.dof,
        quad=tuple(map(tuple, quad)),
        lin=tuple(Fraction(dot(qa[i], jlb) - dot(qb[i], jla), den) for i in range(n)),
        scal=Fraction(dot(la, jlb), den),
    )


def _solve_exact(
    columns: list[tuple[Fraction, ...]], rhss: list[tuple[Fraction, ...]]
) -> list[list[Fraction] | None]:
    """Solve sum_k x_k * columns[k] = rhs exactly for every rhs in rhss.

    One Gauss-Jordan elimination of the augmented matrix [columns | rhss],
    on integers: each row is first scaled by the lcm of its denominators,
    which changes no solution, and rows are combined fraction-free and
    divided by their gcd.  Returns one solution per rhs, with free
    variables zero, or None in place of an inconsistent rhs.
    """
    n_cols = len(columns)
    rows = [_integers([col[r] for col in columns] + [rhs[r] for rhs in rhss])[1]
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
    solutions: list[list[Fraction] | None] = []
    for k in range(n_cols, n_cols + len(rhss)):
        if any(row[k] for row in rows[rank:]):
            solutions.append(None)
            continue
        solution = [_ZERO] * n_cols
        for row, col in zip(rows, pivot_cols):
            if row[k]:
                solution[col] = Fraction(row[k], row[col])
        solutions.append(solution)
    return solutions


def structure_constants(algebra: str) -> StructureTable:
    """Compute every c_ijk (i < j) by expanding commutators in the generator set.

    One elimination of the generator coordinates solves for every pair.
    Raises ConsistencyError if any commutator falls outside the span of the
    generators (closure failure); that must never happen for LP, GHO or CP.
    """
    gens = _generators(algebra)
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    solutions = _solve_exact(
        [g.coordinates() for g in gens],
        [commutator(gens[i], gens[j]).coordinates() for i, j in pairs],
    )
    entries: list[tuple[int, int, int, Fraction]] = []
    for (i, j), coeffs in zip(pairs, solutions):
        if coeffs is None:
            raise ConsistencyError(
                f"[{algebra} generator {i + 1}, generator {j + 1}] is outside "
                "the algebra's span: closure failure"
            )
        entries.extend((i + 1, j + 1, k + 1, v) for k, v in enumerate(coeffs) if v)
    return StructureTable(algebra=algebra.upper(), n=len(gens), entries=tuple(entries))
