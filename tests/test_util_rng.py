"""Tests for repro.util.rng — deterministic named RNG streams."""

import numpy as np
import pytest

from repro.util.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(-1, "a")

    def test_result_fits_64_bits(self):
        assert 0 <= derive_seed(7, "stream") < 2**64


class TestRngStreams:
    def test_same_name_same_generator(self):
        streams = RngStreams(seed=1)
        assert streams.get("x") is streams.get("x")

    def test_streams_independent_of_creation_order(self):
        a = RngStreams(seed=5)
        b = RngStreams(seed=5)
        # Warm up an unrelated stream in `a` only.
        a.get("other").random(100)
        assert a.get("target").random() == b.get("target").random()

    def test_reproducible_across_instances(self):
        values_1 = RngStreams(seed=9).get("s").random(5)
        values_2 = RngStreams(seed=9).get("s").random(5)
        assert np.array_equal(values_1, values_2)

    def test_different_seeds_differ(self):
        v1 = RngStreams(seed=1).get("s").random()
        v2 = RngStreams(seed=2).get("s").random()
        assert v1 != v2

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(seed=1).get("")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(seed=-3)

    def test_names_sorted(self):
        streams = RngStreams(seed=0)
        streams.get("b")
        streams.get("a")
        assert streams.names() == ["a", "b"]

    def test_repr_mentions_seed(self):
        assert "seed=4" in repr(RngStreams(seed=4))
