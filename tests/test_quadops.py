"""Exact-algebra tests: generators, commutators, structure constants."""

import math
from decimal import Decimal
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
        c = commutator(generator("LP", 2), generator("LP", 4))
        # [x, p^2] = 2 p is outside; 3/2 * 1 - 1/4 * x in the same call is inside
        inside = generator("LP", 1).scale(F(3, 2)) - generator("LP", 2).scale(F(1, 4))
        # every column over inside's denominator 4
        assert [g._den for g in gens] == [1, 1, 1] and (c._den, inside._den) == (1, 4)
        columns = [[4 * v for v in g._num] for g in gens]
        solutions = _solve_exact(columns, [[4 * v for v in c._num], inside._num])
        assert solutions == [None, {0: F(3, 2), 1: F(-1, 4)}]

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
            # all over one denominator: scaling every column alike keeps each solution
            den = math.lcm(*(v.denominator for col in columns + inside + outside for v in col))
            ints = [[int(v * den) for v in col] for col in columns + outside + inside]
            expected = [{k: c for k, c in enumerate(cs) if c} for cs in coeffs]
            assert _solve_exact(ints[:5], ints[5:]) == [None] * 4 + expected

    def test_closure_failure_names_the_first_failing_pair(self, monkeypatch):
        # LP without p: [x, p^2] (generators 2 and 3 here) is the first pair outside
        truncated = [generator("LP", 1), generator("LP", 2), generator("LP", 4)]
        monkeypatch.setitem(quadops.ALGEBRAS, "LP", truncated)
        with pytest.raises(ConsistencyError, match=r"\[LP generator 2, generator 3\]"):
            structure_constants("LP")


def test_symmetry_enforced():
    with pytest.raises(DomainError, match="symmetric"):
        QuadraticObservable.build(1, quad=[[0, 1], [0, 0]])


class TestCanonicalForm:
    """One stored form per value: integers over one denominator, in lowest terms."""

    def test_values_built_differently_compare_and_hash_equal(self):
        b = QuadraticObservable.build
        rng = np.random.default_rng(41)
        mixed = random_observable(rng, 2)
        pairs = [
            (b(1, lin=[F(2, 4), 0]), b(1, lin=[F(1, 2), 0])),
            (b(2, quad=[[2, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
               lin=[1, -2, 0, 3], scal=5),
             b(2, quad=[[F(4, 2), F(0), F(0), F(3, 3)], [F(0)] * 4, [F(0)] * 4,
                        [F(1), F(0), F(0), F(0)]],
               lin=[F(1), F(-2), F(0), F(3)], scal=F(10, 2))),
            (mixed.scale(F(2, 3)).scale(F(3, 2)), mixed),
            (generator("CP", 12).scale(F(2, 3)).scale(F(3, 2)), generator("CP", 12)),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
        assert b(1, lin=[F(1, 2), 0]) != b(1, lin=[F(1, 3), 0])
        assert b(1, scal=1) != b(2, scal=1)

    @pytest.mark.parametrize("dof", [1, 2])
    def test_a_minus_a_is_the_zero_observable(self, dof):
        rng = np.random.default_rng(42 + dof)
        zero = QuadraticObservable.build(dof)
        for _ in range(20):
            a = random_observable(rng, dof)
            assert a - a == zero and hash(a - a) == hash(zero)
            assert (a - a).is_zero() and not a.scale(F(1, 7)).is_zero()
        assert zero.scale(F(3, 5)) == zero == -zero

    def test_results_are_in_the_form_the_constructor_makes(self):
        # a commutator, sum or scaled value reduced by its gcd equals, and
        # hashes like, the same value built anew from its Fraction views
        rng = np.random.default_rng(43)
        for _ in range(100):
            dof = int(rng.integers(1, 3))
            a, b = random_observable(rng, dof), random_observable(rng, dof)
            for value in (commutator(a, b), a + b, a.scale(F(-4, 6)), -b):
                rebuilt = QuadraticObservable(value.dof, value.quad, value.lin, value.scal)
                assert rebuilt == value and hash(rebuilt) == hash(value)

    def test_views_are_fractions(self):
        values = [g for gens in quadops.ALGEBRAS.values() for g in gens]
        values += [commutator(a, b) for gens in quadops.ALGEBRAS.values()
                   for a in gens for b in gens]
        for obs in values:
            entries = [obs.scal, *obs.lin, *(v for row in obs.quad for v in row),
                       *obs.coordinates()]
            assert all(type(v) is Fraction for v in entries)
            n = 2 * obs.dof
            assert len(obs.quad) == n and all(len(row) == n for row in obs.quad)
            assert len(obs.lin) == n and len(obs.coordinates()) == 1 + n + n * (n + 1) // 2

    def test_assignment_raises(self):
        obs = generator("GHO", 6)
        for name, value in (("dof", 2), ("quad", ((F(0),) * 2,) * 2), ("lin", (F(1), F(0))),
                            ("scal", F(1)), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(obs, name, value)
        assert obs == QuadraticObservable.build(1, quad=[[0, 2], [2, 0]])

    @pytest.mark.parametrize("args,message", [
        ((3, [[0] * 6] * 6, [0] * 6, 0), "dof must be 1 or 2, got 3"),
        ((1, [[0, 0, 0]] * 2, [0, 0], 0), "quad must be 2x2"),
        ((2, [[0] * 4] * 3, [0] * 4, 0), "quad must be 4x4"),
        ((1, [[0, 0], [0, 0]], [0, 0, 0], 0), "lin must have length 2"),
        ((1, [[0, F(1, 2)], [F(1, 3), 0]], [0, 0], 0), "quad must be exactly symmetric"),
    ])
    def test_constructor_refusals(self, args, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            QuadraticObservable(*args)

    @pytest.mark.parametrize("value", [0.1, 1.0, "1/2", Decimal("0.5"), 1 + 0j, np.float64(2.0)])
    def test_a_coefficient_that_is_not_rational_is_refused(self, value):
        # taken at its binary value, scal=0.1 would read
        # 3602879701896397/36028797018963968: no inexact or parsed value is exact
        message = (r"coefficients must be exact rationals \(int or Fraction\), "
                   f"got {type(value).__name__} ")
        for kwargs in ({"scal": value}, {"lin": [0, value]},
                       {"quad": [[value, 0], [0, 0]]}):
            with pytest.raises(DomainError, match=message):
                QuadraticObservable.build(1, **kwargs)
        with pytest.raises(DomainError, match=message):
            generator("GHO", 6).scale(value)

    def test_numpy_integers_are_rationals(self):
        b = QuadraticObservable.build
        built = b(1, quad=[[np.int64(2), 0], [0, np.int32(-4)]], lin=[np.int8(3), 0],
                  scal=np.int64(5)).scale(np.int64(3))
        assert built == b(1, quad=[[6, 0], [0, -12]], lin=[9, 0], scal=15)
        assert all(type(v) is int for v in (*built._num, built._den))
        # stored as Python ints, so no int64 product wraps round
        assert b(1, scal=np.int64(2**62)).scale(np.int64(4)).scal == 2**64

    @pytest.mark.parametrize("kwargs,message", [
        ({"lin": [1, 2, 3]}, "lin must have length 2"),
        ({"lin": [1]}, "lin must have length 2"),
        ({"quad": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}, "quad must be 2x2"),
        ({"quad": [[1, 0]]}, "quad must be 2x2"),
    ])
    def test_build_refuses_a_wrong_size(self, kwargs, message):
        # neither cut to size nor read past its end
        with pytest.raises(DomainError, match=f"^{message}$"):
            QuadraticObservable.build(1, **kwargs)


def scalar_draws(seed, trials=60):
    """The triples check_algebra_properties draws, from one rng.integers call
    per numerator, per denominator and per dof: its draws as first written."""
    rng = np.random.default_rng(seed)

    def rand_obs(dof):
        n = 2 * dof
        quad = [[F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n)]
                for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                quad[j][i] = quad[i][j]
        lin = [F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n)]
        scal = F(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        return QuadraticObservable.build(dof, quad=quad, lin=lin, scal=scal)

    triples = []
    for _ in range(trials):
        dof = int(rng.integers(1, 3))
        triples.append((rand_obs(dof), rand_obs(dof), rand_obs(dof)))
    return triples


class TestAlgebraCheck:
    def checked_triples(self, monkeypatch, seed):
        # each trial brackets [a, b], [b, a], then [b, c] first of the Jacobi
        # sum, whose last term reuses [a, b]: 7 brackets a trial
        calls = []
        real = quadops.commutator

        def recording(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(quadops, "commutator", recording)
        result = verify.check_algebra_properties(seed)
        assert len(calls) == 7 * 60
        return result, [(calls[k][0], calls[k][1], calls[k + 2][1])
                        for k in range(0, len(calls), 7)]

    def test_one_call_per_observable_draws_the_scalar_stream(self, monkeypatch):
        dofs = set()
        for seed in (0, 1, 7, 12, 123):
            result, triples = self.checked_triples(monkeypatch, seed)
            assert (result.passed, result.measured, result.count) == (True, 0.0, 120)
            assert triples == scalar_draws(seed)
            for a, b, c in triples:
                assert a.dof == b.dof == c.dof
                dofs.add(a.dof)
        assert dofs == {1, 2}

    def test_a_bracket_that_is_not_antisymmetric_fails(self, monkeypatch):
        real = quadops.commutator
        monkeypatch.setattr(quadops, "commutator",
                            lambda a, b: real(a, b) + QuadraticObservable.build(a.dof, scal=1))
        result = verify.check_algebra_properties(0)
        assert result.passed is False and result.measured >= 60

    def test_an_antisymmetric_bracket_that_breaks_jacobi_fails(self, monkeypatch):
        # adding (s(a) t(b) - s(b) t(a)) * 1, s and t the x and p coefficients,
        # keeps the bracket antisymmetric, and the identity's s and t are 0
        real = quadops.commutator

        def skew(a, b):
            return a.lin[0] * b.lin[1] - b.lin[0] * a.lin[1]

        def skewed(a, b):
            return real(a, b) + QuadraticObservable.build(a.dof, scal=skew(a, b))

        monkeypatch.setattr(quadops, "commutator", skewed)
        result = verify.check_algebra_properties(0)
        triples = scalar_draws(0)
        assert all((skewed(a, b) + skewed(b, a)).is_zero() for a, b, _ in triples)
        jacobi = sum(bool(skew(a, real(b, c)) + skew(b, real(c, a)) + skew(c, real(a, b)))
                     for a, b, c in triples)
        assert 0 < jacobi <= 60
        assert result.passed is False and result.measured == jacobi
