import pytest

from nanoramsey import default_model, localization_rate
from oracles import localization_rate_adaptive


class TestLocalizationRate:
    @pytest.mark.parametrize("delta_x", [1e-9, 1e-7, 1e-6, 1e-5])
    def test_gauss_legendre_matches_adaptive_oracle(self, paper_params, delta_x):
        model = default_model(paper_params)
        assert localization_rate(model, delta_x) == pytest.approx(
            localization_rate_adaptive(model, delta_x), rel=1e-9)
