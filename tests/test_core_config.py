"""Tests for repro.core.config."""

import pytest

from repro.control.factory import check_controller
from repro.core.config import UtilBpConfig


class TestUtilBpConfig:
    def test_paper_defaults(self):
        config = UtilBpConfig()
        assert config.transition_duration == 4.0
        assert config.alpha == -1.0
        assert config.beta == -2.0
        assert config.keep_margin == 0.0

    def test_paper_ordering_eq9(self):
        assert UtilBpConfig().paper_ordering()
        assert not UtilBpConfig(alpha=-2.0, beta=-1.0).paper_ordering()

    def test_reversed_order_admissible(self):
        # The paper notes beta > alpha is admissible; only negativity
        # is enforced.
        config = UtilBpConfig(alpha=-3.0, beta=-1.0)
        assert config.beta > config.alpha

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_non_negative_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            UtilBpConfig(alpha=alpha)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_non_negative_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            UtilBpConfig(beta=beta)

    def test_bad_transition_rejected(self):
        with pytest.raises(ValueError):
            UtilBpConfig(transition_duration=0.0)

    def test_mini_slot_is_not_a_controller_parameter(self):
        # The run loop's mini-slot is a run option (RunConfig.mini_slot),
        # so a util-bp spec naming it is rejected as unknown.
        with pytest.raises(TypeError, match="mini_slot"):
            check_controller("util-bp", {"mini_slot": 1.0})

    def test_negative_keep_margin_rejected(self):
        with pytest.raises(ValueError):
            UtilBpConfig(keep_margin=-1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            UtilBpConfig().alpha = -5.0
