"""Exact-algebra tests: generators, commutators, structure constants."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from liegate import quadops, verify
from liegate.errors import DomainError
from liegate.quadops import QuadraticObservable, commutator, generator, structure_constants
from liegate.verify import STRUCTURE_TABLES

F = Fraction


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
        assert _solve_exact(columns, c.coordinates()) is None

    def test_csv_rows_are_integer_pairs(self):
        rows = quadops.structure_table_rows(structure_constants("CP"))
        assert (14, 15, 6, 1, 2) in rows
        assert all(len(r) == 5 for r in rows)


def test_symmetry_enforced():
    with pytest.raises(DomainError, match="symmetric"):
        QuadraticObservable.build(1, quad=[[0, 1], [0, 0]])
