"""Unit tests for the Theorem 4.1/4.2 trade-off calculators."""

import pytest

from repro.core.complexity import (
    chunk_sizes,
    constructive_cost_multi,
    constructive_cost_single,
    theorem41_bound,
    theorem42_bound,
)
from repro.exceptions import ExperimentError


class TestChunkSizes:
    def test_even_split(self):
        assert chunk_sizes(16, 4) == [4, 4, 4, 4]

    def test_remainder_goes_first(self):
        assert chunk_sizes(16, 3) == [6, 5, 5]

    def test_extremes(self):
        assert chunk_sizes(8, 1) == [8]
        assert chunk_sizes(8, 8) == [1] * 8

    def test_bounds(self):
        with pytest.raises(ExperimentError):
            chunk_sizes(8, 0)
        with pytest.raises(ExperimentError):
            chunk_sizes(8, 9)


class TestTheorem41:
    def test_extreme_points(self):
        """k=1: O(2^w) space; k=w: O(w) space (§4.1 named strategies)."""
        exact = constructive_cost_single(16, 1)
        assert exact.time == 1
        assert exact.space == 2**16  # 2^16 - 1 deny keys + the allow key
        wildcard = constructive_cost_single(16, 16)
        assert wildcard.time == 16
        assert wildcard.space == 17  # w + 1 entries (Fig. 3 scaled up)

    @pytest.mark.parametrize("w,k", [(8, 1), (8, 2), (8, 4), (8, 8),
                                     (16, 2), (16, 8), (32, 4)])
    def test_construction_meets_bound(self, w, k):
        bound = theorem41_bound(w, k)
        construct = constructive_cost_single(w, k)
        assert construct.time == bound.time == k
        assert construct.space >= bound.space

    def test_bound_tight_when_k_divides_w(self):
        for k in (1, 2, 4, 8, 16):
            bound = theorem41_bound(16, k)
            construct = constructive_cost_single(16, k)
            # +1 for the allow entry the bound's deny-only count omits.
            assert construct.space == bound.space + 1

    def test_construction_matches_real_cache(self):
        """Closed form == exhaustive cache build, for every k at w=8."""
        from repro.experiments.theorem41 import build_cache_for_k

        for k in (1, 2, 3, 4, 8):
            cache = build_cache_for_k(8, k)
            closed = constructive_cost_single(8, k)
            assert cache.n_masks == closed.time
            assert cache.n_entries == closed.space

    def test_bound_validates_k(self):
        with pytest.raises(ExperimentError):
            theorem41_bound(8, 0)
        with pytest.raises(ExperimentError):
            theorem41_bound(8, 9)


class TestTheorem42:
    def test_wildcarding_gives_paper_product(self):
        """k_i = w_i on Fig. 6 widths -> the 8192-mask product."""
        point = constructive_cost_multi((16, 32, 16), (16, 32, 16))
        assert point.time == 16 * 32 * 16 + 1 + 16  # = attainable_masks
        assert point.space == 16 * 32 * 16 + 1 + 16 + 16 * 32

    def test_exact_match_extreme(self):
        point = constructive_cost_multi((4, 4), (1, 1))
        # One deny mask (product of 1s) + allow-rule-1 mask.
        assert point.time == 2
        # Deny keys: (2^4-1)^2; allow keys: 1 + (2^4-1).
        assert point.space == 15 * 15 + 1 + 15

    def test_multi_meets_bound(self):
        for ks in ((1, 1), (2, 4), (4, 4), (8, 16)):
            bound = theorem42_bound((8, 16), ks)
            construct = constructive_cost_multi((8, 16), ks)
            assert construct.space >= bound.space

    def test_matches_real_cache_small(self):
        """Closed form == exhaustive build on scaled-down widths."""
        from repro.experiments.theorem42 import build_cache_multi

        widths, ks = (3, 4), (3, 2)
        cache = build_cache_multi(widths, ks)
        closed = constructive_cost_multi(widths, ks)
        assert cache.n_masks == closed.time
        assert cache.n_entries == closed.space

    def test_fig4_is_a_theorem42_instance(self):
        point = constructive_cost_multi((3, 4), (3, 4))
        assert point.time == 13  # the paper's 3*4+1
        assert point.space == 16  # Fig. 5's entries

    def test_length_mismatch(self):
        with pytest.raises(ExperimentError):
            theorem42_bound((8, 16), (1,))
        with pytest.raises(ExperimentError):
            constructive_cost_multi((8,), (1, 1))

    def test_product_property(self):
        point = theorem42_bound((8, 8), (2, 2))
        assert point.time == 4
        assert point.product == point.time * point.space
