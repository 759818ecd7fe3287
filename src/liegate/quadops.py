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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    "structure_table_rows",
]

RationalLike = int | Fraction


def _frac(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _symplectic_form(dof: int) -> list[list[Fraction]]:
    # z = (positions, momenta); J maps gradients to Hamiltonian flows.
    n = 2 * dof
    j = [[Fraction(0)] * n for _ in range(n)]
    for k in range(dof):
        j[k][dof + k] = Fraction(1)
        j[dof + k][k] = Fraction(-1)
    return j


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
        for i in range(n):
            for j in range(n):
                if self.quad[i][j] != self.quad[j][i]:
                    raise DomainError("quad must be exactly symmetric")

    @staticmethod
    def build(
        dof: int,
        quad: Sequence[Sequence[RationalLike]] | None = None,
        lin: Sequence[RationalLike] | None = None,
        scal: RationalLike = 0,
    ) -> "QuadraticObservable":
        n = 2 * dof
        q = [[Fraction(0)] * n for _ in range(n)]
        if quad is not None:
            for i in range(n):
                for j in range(n):
                    q[i][j] = _frac(quad[i][j])
        l = [Fraction(0)] * n
        if lin is not None:
            for i in range(n):
                l[i] = _frac(lin[i])
        return QuadraticObservable(
            dof=dof,
            quad=tuple(tuple(row) for row in q),
            lin=tuple(l),
            scal=_frac(scal),
        )

    def is_zero(self) -> bool:
        return (
            self.scal == 0
            and all(v == 0 for v in self.lin)
            and all(v == 0 for row in self.quad for v in row)
        )

    def __add__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        self._check_dof(other)
        n = 2 * self.dof
        return QuadraticObservable(
            dof=self.dof,
            quad=tuple(
                tuple(self.quad[i][j] + other.quad[i][j] for j in range(n))
                for i in range(n)
            ),
            lin=tuple(self.lin[i] + other.lin[i] for i in range(n)),
            scal=self.scal + other.scal,
        )

    def __sub__(self, other: "QuadraticObservable") -> "QuadraticObservable":
        return self + (-other)

    def __neg__(self) -> "QuadraticObservable":
        return self.scale(-1)

    def scale(self, factor: RationalLike) -> "QuadraticObservable":
        f = _frac(factor)
        n = 2 * self.dof
        return QuadraticObservable(
            dof=self.dof,
            quad=tuple(tuple(f * self.quad[i][j] for j in range(n)) for i in range(n)),
            lin=tuple(f * v for v in self.lin),
            scal=f * self.scal,
        )

    def coordinates(self) -> tuple[Fraction, ...]:
        """Flat exact coordinates: scal, lin entries, quad upper triangle."""
        n = 2 * self.dof
        coords = [self.scal]
        coords.extend(self.lin)
        for i in range(n):
            for j in range(i, n):
                coords.append(self.quad[i][j])
        return tuple(coords)

    def _check_dof(self, other: "QuadraticObservable"):
        if self.dof != other.dof:
            raise DomainError(
                f"degree-of-freedom mismatch: {self.dof} vs {other.dof}"
            )


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


def commutator(a: QuadraticObservable, b: QuadraticObservable) -> QuadraticObservable:
    """Exact commutator: returns C with [A, B] = i*hbar*C.

    For observables at most quadratic the Moyal bracket truncates to the
    Poisson bracket, so C is exact:

        C_scal = lin_A . J lin_B
        C_lin  = Q_A J lin_B - Q_B J lin_A
        C_quad = Q_A J Q_B - Q_B J Q_A
    """
    a._check_dof(b)
    n = 2 * a.dof
    j = _symplectic_form(a.dof)

    def matvec(m, v):
        return [sum(m[i][k] * v[k] for k in range(n)) for i in range(n)]

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][c] for k in range(n)) for c in range(n)]
            for i in range(n)
        ]

    jlb = matvec(j, list(b.lin))
    jla = matvec(j, list(a.lin))
    scal = sum(a.lin[i] * jlb[i] for i in range(n))
    qa = [list(row) for row in a.quad]
    qb = [list(row) for row in b.quad]
    lin_c = [
        sum(qa[i][k] * jlb[k] for k in range(n))
        - sum(qb[i][k] * jla[k] for k in range(n))
        for i in range(n)
    ]
    qajqb = matmul(matmul(qa, j), qb)
    qbjqa = matmul(matmul(qb, j), qa)
    quad_c = [
        [qajqb[i][c] - qbjqa[i][c] for c in range(n)] for i in range(n)
    ]
    return QuadraticObservable(
        dof=a.dof,
        quad=tuple(tuple(row) for row in quad_c),
        lin=tuple(lin_c),
        scal=scal,
    )


def _solve_exact(
    columns: list[tuple[Fraction, ...]], rhs: tuple[Fraction, ...]
) -> list[Fraction] | None:
    """Solve sum_k x_k * columns[k] = rhs exactly; None if inconsistent."""
    n_rows = len(rhs)
    n_cols = len(columns)
    aug = [[columns[c][r] for c in range(n_cols)] + [rhs[r]] for r in range(n_rows)]
    pivot_cols: list[int] = []
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n_rows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [vr - factor * vc for vr, vc in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == n_rows:
            break
    for r in range(row, n_rows):
        if aug[r][n_cols] != 0:
            return None
    solution = [Fraction(0)] * n_cols
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][n_cols]
    return solution


def structure_constants(algebra: str) -> StructureTable:
    """Compute every c_ijk (i < j) by expanding commutators in the generator set.

    Raises ConsistencyError if any commutator falls outside the span of the
    generators (closure failure); that must never happen for LP, GHO or CP.
    """
    gens = _generators(algebra)
    columns = [g.coordinates() for g in gens]
    entries: list[tuple[int, int, int, Fraction]] = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = commutator(gens[i], gens[j])
            coeffs = _solve_exact(columns, c.coordinates())
            if coeffs is None:
                raise ConsistencyError(
                    f"[{algebra} generator {i + 1}, generator {j + 1}] is outside "
                    "the algebra's span: closure failure"
                )
            for k, value in enumerate(coeffs):
                if value != 0:
                    entries.append((i + 1, j + 1, k + 1, value))
    return StructureTable(algebra=algebra.upper(), n=len(gens), entries=tuple(entries))


def structure_table_rows(table: StructureTable) -> list[tuple[int, int, int, int, int]]:
    """CSV-ready rows (i, j, k, numerator, denominator)."""
    return [
        (i, j, k, c.numerator, c.denominator) for (i, j, k, c) in table.entries
    ]
