import math

import numpy as np
import pytest
import sympy as sp

from nanoramsey import (
    collective_final_state,
    desk_scale_params,
    evolve_sequence,
    gravitational_phase,
    initial_state,
    sector_action_phases,
    sector_phase_quadratic_coefficient,
    sector_table,
)
from oracles import (
    dicke_state_vector,
    integrate_trajectory,
    numeric_action,
    reconstruct_spin_state,
    refactorization_fidelity,
    single_spin_contrast,
)

#: (a_spin, a_gravity) of three desk-scale sets at the default tau_scaled = 6
DESK_SETS = [(0.35, 0.15), (0.6, 0.15), (0.4, 0.3)]


class TestCollectiveTrajectory:
    @pytest.mark.parametrize("m_value", [2, -2, 3, -3])
    def test_matches_verlet_oracle(self, paper_params, paper_seq, m_value):
        """Sector M feels M*A - C, so evolve_sequence covers it directly."""
        start = initial_state(paper_params, 1e-9, 1e-24)
        ts, xs, vs = integrate_trajectory(paper_params, paper_seq, m_value, 1e-9, 1e-24)
        for frac in (0.25, 0.5, 0.9, 1.0):
            idx = int(np.argmin(np.abs(ts - paper_seq.t3 * frac)))
            branch = evolve_sequence(paper_params, paper_seq, start, spins=(m_value, m_value),
                                     until=ts[idx]).plus_branch
            x_cl, p_cl = branch.center, branch.momentum
            assert x_cl == pytest.approx(xs[idx], rel=1e-9)
            assert p_cl / paper_params.mass == pytest.approx(vs[idx], rel=1e-9)


class TestSectorActionPhases:
    def test_against_numeric_action_oracle(self):
        params, seq = desk_scale_params(a_spin=0.35, a_gravity=0.15)
        hbar = params.constants.hbar
        phases = sector_action_phases(params, seq, 2)
        assert [m for m, _ in phases] == [-2, 0, 2]
        for m_value, phase in phases:
            assert phase == pytest.approx(numeric_action(params, seq, m_value) / hbar, rel=1e-8)

    @pytest.mark.parametrize("a_spin, a_gravity", DESK_SETS)
    def test_second_difference_is_quadratic_coefficient(self, a_spin, a_gravity):
        # S_M = a0 + a1 M + c M^2, so (S_2 + S_-2 - 2 S_0) / 8 = c
        params, seq = desk_scale_params(a_spin=a_spin, a_gravity=a_gravity)
        s = dict(sector_action_phases(params, seq, 2))
        c = sector_phase_quadratic_coefficient(params, seq)
        assert (s[2] + s[-2] - 2.0 * s[0]) / 8.0 == pytest.approx(c, rel=0.0, abs=1e-12)


MASS, COUPLING, GRAVITY, TAU, HBAR = sp.symbols("m A C tau hbar", positive=True)
SECTOR = sp.Symbol("M", real=True)


def sector_action():
    """S_M of sector M, from rest, under the force s M A - C with s = +1, -1, +1.

    The segments last t3/4, t3/2 and t3/4 (tau = t3/4); the action is the
    integral of L = p^2/(2m) + F x along the path.
    """
    t = sp.Symbol("t", real=True)
    x, p, action = sp.Integer(0), sp.Integer(0), sp.Integer(0)
    for sign, duration in ((1, TAU), (-1, 2 * TAU), (1, TAU)):
        force = sign * SECTOR * COUPLING - GRAVITY
        xt = x + p * t / MASS + force * t**2 / (2 * MASS)
        pt = p + force * t
        action += sp.integrate(pt**2 / (2 * MASS) + force * xt, (t, 0, duration))
        x, p = xt.subs(t, duration), pt.subs(t, duration)
    return sp.expand(action)


class TestSectorPhasesFromSympy:
    def test_phi_g_closed_form(self):
        action = sector_action()
        phi_g = -(action.subs(SECTOR, 1) - action.subs(SECTOR, -1)) / HBAR
        g_axis, t3 = GRAVITY / MASS, 4 * TAU          # g cos(theta), flight time
        assert sp.simplify(phi_g - g_axis * COUPLING * t3**3 / (16 * HBAR)) == 0
        phi_of = sp.lambdify((MASS, COUPLING, GRAVITY, TAU, HBAR), phi_g)
        for a_spin, a_gravity in DESK_SETS:
            params, seq = desk_scale_params(a_spin=a_spin, a_gravity=a_gravity)
            expected = phi_of(params.mass, params.spin_coupling(), params.gravity_force(),
                              seq.t3 / 4.0, params.constants.hbar)
            assert gravitational_phase(params, seq) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_coefficient_closed_form(self):
        poly = sp.Poly(sector_action(), SECTOR)
        assert poly.degree() == 2
        coeff = poly.coeff_monomial(SECTOR**2) / HBAR
        expected = -sp.Rational(2, 3) * MASS * (COUPLING / MASS) ** 2 * TAU**3 / HBAR
        assert sp.simplify(coeff - expected) == 0
        coeff_of = sp.lambdify((MASS, COUPLING, TAU, HBAR), coeff)
        for a_spin, a_gravity in DESK_SETS:
            params, seq = desk_scale_params(a_spin=a_spin, a_gravity=a_gravity)
            expected = coeff_of(params.mass, params.spin_coupling(), seq.t3 / 4.0,
                                params.constants.hbar)
            assert sector_phase_quadratic_coefficient(params, seq) == pytest.approx(expected,
                                                                                    rel=1e-12)


class TestBruteForceSectors:
    @pytest.mark.parametrize("l", range(1, 13))
    def test_linear_phases_refactorize(self, l):
        for phi in (0.0, 0.37, -1.2, 2.9, 41.5):
            assert refactorization_fidelity(l, phi) == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("l", [1, 2, 7, 30])
    def test_sector_table_multiplicities(self, desk, l):
        params, seq = desk
        final = collective_final_state(params, seq, l)
        header, rows = sector_table(final)
        assert header == ["M", "multiplicity", "phase_rad"]
        assert [row[0] for row in rows] == [2 * n - l for n in range(l + 1)]
        assert sum(row[1] for row in rows) == 2**l
        phi = gravitational_phase(params, seq)
        assert [row[2] for row in rows] == [m * phi for m, _, _ in rows]
        if l <= 12:
            # binomial(l, n) is the number of basis states with n spins up
            counts = [int(np.count_nonzero(dicke_state_vector(l, n))) for n in range(l + 1)]
            assert [row[1] for row in rows] == counts


class TestTwistingContrast:
    """Each spin's Ramsey contrast under the exact sector phases is |cos 4c|^(l-1)."""

    @pytest.mark.parametrize("l", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("a_spin, a_gravity", DESK_SETS)
    def test_partial_trace_contrast(self, l, a_spin, a_gravity):
        params, seq = desk_scale_params(a_spin=a_spin, a_gravity=a_gravity)
        c = sector_phase_quadratic_coefficient(params, seq)
        state = reconstruct_spin_state(l, sector_action_phases(params, seq, l))
        assert single_spin_contrast(state) == pytest.approx(abs(math.cos(4.0 * c)) ** (l - 1),
                                                            rel=0.0, abs=1e-12)

    def test_two_spins_lose_contrast(self):
        params, seq = desk_scale_params(a_spin=0.35, a_gravity=0.15)
        exact = reconstruct_spin_state(2, sector_action_phases(params, seq, 2))
        assert single_spin_contrast(exact) == pytest.approx(0.451, abs=5e-4)
        # the linear table of collective_final_state keeps full contrast
        linear = reconstruct_spin_state(2, collective_final_state(params, seq, 2).sector_phases)
        assert single_spin_contrast(linear) == pytest.approx(1.0, abs=1e-12)
