"""Acceptance criteria, each at its stated tolerance.

Every test prints one pass/fail line (collected into the terminal summary)
and asserts the criterion.  Randomized ingredients are seeded, so the run
is reproducible.
"""

import cmath
import time

import numpy as np

from liegate import closedforms, greens, oracle, paramflow, presets, verify
from liegate.verify import Grid, suite_systems


def _line(record, number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    record(f"criterion {number} [{name}]: {status} ({detail})")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_structure_constants(acceptance_report):
    # the commutator of every CP pair outside the table is checked in
    # test_quadops::test_cp_covers_all_105_pairs
    started = time.perf_counter()
    result = verify.check_structure_constants()
    elapsed = time.perf_counter() - started
    _line(acceptance_report, 1, "structure constants exact",
          result.passed and elapsed < 1.0,
          f"105 CP pairs + LP/GHO tables, {elapsed:.3f}s")


def test_criterion_2_symplectic_invariants(acceptance_report):
    started = time.perf_counter()
    result = verify.check_symplectic(2024, n_random=20, times=Grid(0.0, 100))
    elapsed = time.perf_counter() - started
    _line(acceptance_report, 2, "symplectic invariants",
          result.passed and elapsed < 30.0,
          f"worst residual {result.measured:.3e} over {result.count} maps, {elapsed:.1f}s")


def test_criterion_3_path_equivalence(acceptance_report):
    result = verify.check_path_equivalence(31, n_random=5, times=Grid(0.02, 25))
    parts = result.parts
    _line(acceptance_report, 3, "route equivalence",
          result.passed, f"worst gap: map {parts['map']:.3e}, shift {parts['shift']:.3e}, "
          f"action {parts['action']:.3e}")


def test_criterion_4_oracle_map_equivalence(acceptance_report):
    result = verify.check_oracle_maps(times=Grid(0.05, 15), planar_times=Grid(0.05, 10))
    _line(acceptance_report, 4, "oracle map equivalence",
          result.passed, f"worst entrywise gap {result.measured:.3e} incl. planar blocks")


def test_criterion_5_classical_identification(acceptance_report):
    result = verify.check_classical_identification(55, n_random=6, times=Grid(0.1, 15))
    _line(acceptance_report, 5, "classical identification",
          result.passed, f"worst |(lam,-Pi) - flow| = {result.measured:.3e} on route 1 and planar")


def _kanai_complex_continuation(tau, om0, t):
    """Literal sqrt(1-4 tau^2 om0^2) evaluation in complex arithmetic."""
    big = cmath.sqrt(1.0 - 4.0 * tau * tau * om0 * om0) / (2.0 * tau)
    sh = cmath.sinh(big * t)
    ch = cmath.cosh(big * t)
    alpha = 2.0 * tau * om0 * om0 * sh / (sh + 2.0 * tau * big * ch)
    phi = cmath.log(ch + sh / (2.0 * tau * big))
    beta = 2.0 * tau * sh / (sh + 2.0 * tau * big * ch)
    return alpha, phi, beta


def test_criterion_6_closed_form_crosschecks(acceptance_report):
    result = verify.check_closed_forms(times={
        "iontrap": (1.0, np.linspace(0.1, 1.0, 7)),
        "kanai": (1.4, np.linspace(0.2, 1.4, 7)),
        "bsin": (1.0, np.linspace(0.2, 1.0, 5)),
        "efield": (2.0, np.linspace(0.25, 2.0, 8)),
    })
    # weak damping stays real: compare the real-trig branch against literal
    # complex continuation and bound the imaginary leakage
    gaps, leaks = [result.measured], []
    for t in (0.3, 0.6):
        kp = closedforms.kanai_caldirola_params(1.0, 1.0, 2.0, 0.0, 0.0, 1.0, t)
        alpha_c, phi_c, beta_c = _kanai_complex_continuation(1.0, 2.0, t)
        leaks += [abs(alpha_c.imag), abs(phi_c.imag), abs(beta_c.imag)]
        gaps += [abs(kp.alpha - alpha_c.real), abs(kp.phi - phi_c.real),
                 abs(kp.beta - beta_c.real)]
    # np.max keeps a NaN, which then fails the comparison
    worst, imag_worst = float(np.max(gaps)), float(np.max(leaks))
    passed = result.passed and worst <= 1e-6 and imag_worst <= 1e-12
    _line(acceptance_report, 6, "closed-form crosschecks",
          passed, f"worst relative gap {worst:.3e}, imag leakage {imag_worst:.1e}")


def test_criterion_7_wavefunction_fidelity(acceptance_report):
    started = time.perf_counter()
    systems = suite_systems()
    grid = oracle.gaussian_state(1024, -12.0, 24.0 / 1024, sigma=1.0)
    fidelities = []
    for name, t in verify.KERNEL_TIMES.items():
        cs = systems[name]
        traj = paramflow.solve_path1(cs, t * 1.05, tol=1e-12)
        variant = presets.PRESETS[presets.REFERENCE[name][0]].kernel or "path1"
        psi_kernel = greens.kernel_apply(greens.kernel_build(traj, t, variant), grid)
        psi_oracle = oracle.split_step_evolve(cs, grid, t, 4096)
        fidelities.append(oracle.fidelity(psi_kernel, psi_oracle))
    elapsed = time.perf_counter() - started
    worst = float(np.min(fidelities))   # NaN if any fidelity is NaN, and then fails
    passed = worst >= 1.0 - 1e-5 and elapsed < 120.0
    _line(acceptance_report, 7, "wavefunction fidelity vs split-step",
          passed, f"worst fidelity {worst:.9f}, {elapsed:.1f}s")


def test_criterion_8_kernel_sanity(acceptance_report):
    result = verify.check_kernels()
    parts = result.parts
    _line(acceptance_report, 8, "kernel sanity",
          result.passed,
          f"mehler {parts['mehler']:.2e}, unitarity {parts['unitarity']:.2e}, "
          f"semigroup infidelity {parts['semigroup']:.2e}")


def test_criterion_9_mathieu_selfconsistency(acceptance_report):
    result = verify.check_mathieu()
    parts = result.parts
    _line(acceptance_report, 9, "Mathieu self-consistency",
          result.passed, f"halving drift {parts['halving_drift']:.2e}, "
          f"C(1,0,pi/3)-1/2 = {parts['pin']:.2e}")
