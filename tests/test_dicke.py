import numpy as np
import pytest

from nanoramsey import classical_trajectory, desk_scale_params, sector_action_phases
from oracles import integrate_trajectory, numeric_action


class TestCollectiveTrajectory:
    @pytest.mark.parametrize("m_value", [2, -2, 3, -3])
    def test_matches_verlet_oracle(self, paper_params, paper_seq, m_value):
        """Sector M feels M*A - C, so classical_trajectory covers it directly."""
        traj = classical_trajectory(paper_params, paper_seq, m_value, x0=1e-9, p0=1e-24)
        ts, xs, vs = integrate_trajectory(paper_params, paper_seq, m_value, 1e-9, 1e-24)
        for frac in (0.25, 0.5, 0.9, 1.0):
            idx = int(np.argmin(np.abs(ts - paper_seq.t3 * frac)))
            x_cl, p_cl = traj.state_at(ts[idx])
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
