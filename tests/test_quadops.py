"""Exact-algebra tests: generators, commutators, structure constants."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from liegate import quadops, verify
from liegate.errors import ConsistencyError, DomainError
from liegate.quadops import QuadraticObservable, commutator, generator, structure_constants
from liegate.verify import STRUCTURE_TABLES

F = Fraction


def reference_commutator(a, b):
    """[A, B] = i*hbar*C from its definition: explicit Fraction J and matrix
    products, C_quad = Q_A J Q_B - Q_B J Q_A, C_lin = Q_A J l_B - Q_B J l_A."""
    dof, n = a.dof, 2 * a.dof
    j = [[F(0)] * n for _ in range(n)]
    for k in range(dof):
        j[k][dof + k], j[dof + k][k] = F(1), F(-1)

    def matvec(m, v):
        return [sum((m[i][k] * v[k] for k in range(n)), F(0)) for i in range(n)]

    def matmul(x, y):
        return [[sum((x[i][k] * y[k][c] for k in range(n)), F(0)) for c in range(n)]
                for i in range(n)]

    qa, qb = a.quad, b.quad
    jla, jlb = matvec(j, a.lin), matvec(j, b.lin)
    qajqb, qbjqa = matmul(matmul(qa, j), qb), matmul(matmul(qb, j), qa)
    return QuadraticObservable(
        dof=dof,
        quad=tuple(tuple(qajqb[i][c] - qbjqa[i][c] for c in range(n)) for i in range(n)),
        lin=tuple(u - w for u, w in zip(matvec(qa, jlb), matvec(qb, jla))),
        scal=sum((a.lin[i] * jlb[i] for i in range(n)), F(0)),
    )


def random_observable(rng, dof):
    n = 2 * dof
    quad = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            value = F(int(rng.integers(-8, 9)), int(rng.integers(1, 6)))
            quad[i][j] = quad[j][i] = value
    lin = [F(int(rng.integers(-8, 9)), int(rng.integers(1, 6))) for _ in range(n)]
    scal = F(int(rng.integers(-8, 9)), int(rng.integers(1, 6)))
    return QuadraticObservable.build(dof, quad=quad, lin=lin, scal=scal)


class TestGenerators:
    def test_gho_lambda6_is_symmetrized_xp(self):
        lam6 = generator("GHO", 6)
        # quad coefficient 2 on the (x, p) slot represents x p + p x
        assert lam6.quad[0][1] == 2 and lam6.quad[1][0] == 2
        assert lam6.quad[0][0] == 0 and lam6.quad[1][1] == 0
        assert all(v == 0 for v in lam6.lin) and lam6.scal == 0

    def test_lp_identity(self):
        lam1 = generator("LP", 1)
        assert lam1.scal == 1
        assert all(v == 0 for v in lam1.lin)
        assert all(v == 0 for row in lam1.quad for v in row)

    def test_cp_angular_momentum(self):
        lam12 = generator("CP", 12)
        assert all(v == 0 for v in lam12.lin)
        # x p_y - y p_x in the ordering (x, y, p_x, p_y)
        assert lam12.quad[0][3] == 1 and lam12.quad[1][2] == -1

    @pytest.mark.parametrize("algebra,count", [("LP", 4), ("GHO", 6), ("CP", 15)])
    def test_index_out_of_range(self, algebra, count):
        assert quadops.generator_count(algebra) == count
        with pytest.raises(DomainError, match=str(count)):
            generator(algebra, count + 1)
        with pytest.raises(DomainError):
            generator(algebra, 0)


class TestCommutator:
    def test_x_with_p_gives_identity(self):
        c = commutator(generator("LP", 2), generator("LP", 3))
        assert c.scal == 1 and c.is_zero() is False
        assert all(v == 0 for v in c.lin)
        assert all(v == 0 for row in c.quad for v in row)

    def test_x2_with_symmetrized_xp(self):
        c = commutator(generator("GHO", 4), generator("GHO", 6))
        assert c == generator("GHO", 4).scale(4)

    def test_identity_commutes_with_p2(self):
        assert commutator(generator("GHO", 1), generator("GHO", 5)).is_zero()

    def test_dof_mismatch(self):
        with pytest.raises(DomainError, match="mismatch"):
            commutator(generator("LP", 2), generator("CP", 2))

    def assert_matches_reference(self, a, b):
        fast = commutator(a, b)
        assert fast == reference_commutator(a, b)
        fields = [fast.scal, *fast.lin, *(v for row in fast.quad for v in row)]
        assert all(type(v) is Fraction for v in fields)

    def test_matches_definition_on_random_observables(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            dof = int(rng.integers(1, 3))
            self.assert_matches_reference(random_observable(rng, dof),
                                          random_observable(rng, dof))

    @pytest.mark.parametrize("dof", [1, 2])
    def test_matches_definition_with_zero_and_mixed_denominators(self, dof):
        rng = np.random.default_rng(22 + dof)
        zero = QuadraticObservable.build(dof)
        n = 2 * dof
        # denominators 3, 7 and 11 on different slots: the lcm scaling must combine them
        mixed = QuadraticObservable.build(
            dof, quad=[[F(1 + i + j, (3, 7, 11)[(i + j) % 3]) for j in range(n)]
                       for i in range(n)],
            lin=[F(-5, 7), *[F(k, 11) for k in range(1, n)]], scal=F(2, 9))
        for other in (zero, mixed, random_observable(rng, dof)):
            self.assert_matches_reference(zero, other)
            self.assert_matches_reference(other, zero)
            self.assert_matches_reference(mixed, other)
            self.assert_matches_reference(other, mixed)
        assert commutator(zero, mixed).is_zero()

    @pytest.mark.parametrize("algebra", ["LP", "GHO", "CP"])
    def test_matches_definition_on_generator_pairs(self, algebra):
        gens = quadops.ALGEBRAS[algebra]
        for a in gens:
            for b in gens:
                self.assert_matches_reference(a, b)

    def test_antisymmetry_on_random_observables(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dof = int(rng.integers(1, 3))
            a = random_observable(rng, dof)
            b = random_observable(rng, dof)
            assert (commutator(a, b) + commutator(b, a)).is_zero()

    def test_jacobi_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            dof = int(rng.integers(1, 3))
            a, b, c = (random_observable(rng, dof) for _ in range(3))
            total = (
                commutator(a, commutator(b, c))
                + commutator(b, commutator(c, a))
                + commutator(c, commutator(a, b))
            )
            assert total.is_zero()

    def test_bilinearity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            dof = int(rng.integers(1, 3))
            a, b, c = (random_observable(rng, dof) for _ in range(3))
            mu = F(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
            left = commutator(a.scale(mu) + b, c)
            right = commutator(a, c).scale(mu) + commutator(b, c)
            assert (left - right).is_zero()


class TestStructureConstants:
    @pytest.mark.parametrize("algebra,expected", list(STRUCTURE_TABLES.items()))
    def test_tables_reproduced_exactly(self, algebra, expected):
        table = structure_constants(algebra)
        assert table.as_dict() == expected

    def test_verify_compares_the_whole_cp_table(self, monkeypatch):
        real = quadops.structure_constants

        def swapped(algebra):
            table = real(algebra)
            if algebra != "CP":
                return table
            entries = dict(table.as_dict())
            entries[(2, 12, 7)] = -entries[(2, 12, 7)]
            return SimpleNamespace(as_dict=lambda: entries)

        monkeypatch.setattr(quadops, "structure_constants", swapped)
        result = verify.check_structure_constants()
        assert result.passed is False
        assert result.count == 126

    def test_cp_covers_all_105_pairs(self):
        table = structure_constants("CP")
        assert table.n == 15
        pairs = {(i, j) for i in range(1, 16) for j in range(i + 1, 16)}
        assert len(pairs) == 105
        # every pair either appears in the expected table or commutes exactly
        gens = [generator("CP", k) for k in range(1, 16)]
        listed = {(i, j) for (i, j, _, _) in table.entries}
        for i, j in sorted(pairs - listed):
            assert commutator(gens[i - 1], gens[j - 1]).is_zero()

    def test_closure_failure_detected(self):
        # an artificially truncated generator list cannot expand [x, p^2]
        from liegate.quadops import _solve_exact

        gens = [generator("LP", 1), generator("LP", 2), generator("LP", 4)]
        columns = [g.coordinates() for g in gens]
        c = commutator(generator("LP", 2), generator("LP", 4))
        # [x, p^2] = 2 p is outside; 3/2 * 1 - 1/4 * x in the same call is inside
        inside = generator("LP", 1).scale(F(3, 2)) - generator("LP", 2).scale(F(1, 4))
        solutions = _solve_exact(columns, [c.coordinates(), inside.coordinates()])
        assert solutions == [None, [F(3, 2), F(-1, 4), F(0)]]

    def test_one_elimination_solves_dense_systems_exactly(self):
        # dense mixed-denominator columns with a zero last row: each rhs built
        # from known coefficients solves back to them, and the same rhs with
        # a nonzero last entry is outside the span
        from liegate.quadops import _solve_exact

        rng = np.random.default_rng(31)

        def rational():
            return F(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))

        for _ in range(50):
            columns = [tuple(rational() for _ in range(6)) + (F(0),) for _ in range(5)]
            coeffs = [[rational() for _ in range(5)] for _ in range(4)]
            inside = [tuple(sum((c * col[r] for c, col in zip(cs, columns)), F(0))
                            for r in range(7)) for cs in coeffs]
            outside = [rhs[:-1] + (F(1, 3),) for rhs in inside]
            assert _solve_exact(columns, outside + inside) == [None] * 4 + coeffs

    def test_closure_failure_names_the_first_failing_pair(self, monkeypatch):
        # LP without p: [x, p^2] (generators 2 and 3 here) is the first pair outside
        truncated = [generator("LP", 1), generator("LP", 2), generator("LP", 4)]
        monkeypatch.setitem(quadops.ALGEBRAS, "LP", truncated)
        with pytest.raises(ConsistencyError, match=r"\[LP generator 2, generator 3\]"):
            structure_constants("LP")


def test_symmetry_enforced():
    with pytest.raises(DomainError, match="symmetric"):
        QuadraticObservable.build(1, quad=[[0, 1], [0, 0]])
