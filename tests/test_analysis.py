"""Unit tests for the analytic tuple-space model (Eq. 1/2, §11.3)."""

import pytest

from repro.core.analysis import (
    AclSpec,
    attainable_entries,
    attainable_masks,
    entry_census,
    eq1_probability,
    expected_entries,
    expected_masks,
    expected_masks_curve,
    mask_census,
    spawn_probability,
)
from repro.exceptions import ExperimentError
from tests.masks_oracle import expected_masks_enumerate


class TestSpawnProbability:
    def test_paper_example(self):
        """§6.1: entry #2 of Fig. 3 has p = 2^2 / 2^3 = 0.5."""
        assert spawn_probability(2, 3) == 0.5

    def test_exact_entry(self):
        assert spawn_probability(0, 16) == 2.0**-16

    def test_fully_wildcarded(self):
        assert spawn_probability(8, 8) == 1.0

    def test_bounds_checked(self):
        with pytest.raises(ExperimentError):
            spawn_probability(9, 8)
        with pytest.raises(ExperimentError):
            spawn_probability(-1, 8)


class TestEq1:
    def test_matches_direct_formula(self):
        p = spawn_probability(2, 3)
        direct = 1 - (1 - p) ** 10
        assert eq1_probability(2, 3, 10) == pytest.approx(direct, rel=1e-9)

    def test_zero_packets(self):
        assert eq1_probability(2, 3, 0) == 0.0

    def test_saturates(self):
        assert eq1_probability(2, 3, 100000) == pytest.approx(1.0)

    def test_tiny_probability_stable(self):
        # 2^-64 per packet, 1000 packets: ~1000 * 2^-64, no underflow to 0.
        value = eq1_probability(0, 64, 1000)
        assert value == pytest.approx(1000 * 2.0**-64, rel=1e-3)

    def test_negative_n_rejected(self):
        with pytest.raises(ExperimentError):
            eq1_probability(1, 3, -1)


class TestAttainable:
    def test_paper_values(self):
        assert attainable_masks([16]) == 16          # Dp
        assert attainable_masks([3, 4]) == 13        # Fig. 4: 3*4+1
        assert attainable_masks([16, 16]) == 257     # SpDp
        assert attainable_masks([16, 32]) == 513     # SipDp
        assert attainable_masks([16, 32, 16]) == 8209  # Fig. 6 "~8200"

    def test_entries_exceed_masks(self):
        for widths in ([16], [3, 4], [16, 32, 16]):
            assert attainable_entries(widths) >= attainable_masks(widths)

    def test_fig4_entries(self):
        # Fig. 5 shows 16 entries: 12 deny + 1 + 3 allow.
        assert attainable_entries([3, 4]) == 16

    def test_spec_validation(self):
        with pytest.raises(ExperimentError):
            AclSpec(())
        with pytest.raises(ExperimentError):
            AclSpec((0,))


class TestCensus:
    def test_mask_census_totals(self):
        for widths in ([16], [3, 4], [16, 32]):
            census = mask_census(widths)
            assert sum(census.values()) == attainable_masks(widths)

    def test_entry_census_totals(self):
        for widths in ([16], [3, 4], [16, 32]):
            census = entry_census(widths)
            assert sum(census.values()) == attainable_entries(widths)

    def test_single_field_census_structure(self):
        # w-bit field: one deny entry per prefix length l (wildcards w-l),
        # plus the exact allow entry (k=0 has two entries: allow + l=w deny).
        census = entry_census([4])
        assert census == {0: 2, 1: 1, 2: 1, 3: 1}

    def test_wildcard_counts_bounded(self):
        spec = AclSpec((16, 32, 16))
        assert all(0 <= k < spec.total_bits for k in mask_census(spec))


class TestExpectedMasks:
    def test_methods_agree(self):
        """The census convolution ≡ the enumeration oracle."""
        for widths in ([16], [16, 16], [16, 32, 16]):
            for n in (10, 1000, 50000):
                census = expected_masks(widths, n)
                enum = expected_masks_enumerate(widths, n)
                assert census == pytest.approx(enum, rel=1e-9), (widths, n)

    def test_paper_fig9b_values(self):
        """Fig. 9b at 50k packets: Dp~16, SpDp~121, SipDp~122, SipSpDp~581."""
        assert expected_masks([16], 50000) == pytest.approx(16, abs=1.0)
        assert expected_masks([16, 16], 50000) == pytest.approx(121, abs=3.0)
        assert expected_masks([16, 32], 50000) == pytest.approx(122, abs=3.0)
        assert expected_masks([16, 32, 16], 50000) == pytest.approx(581, abs=6.0)

    def test_spdp_sipdp_negligible_difference(self):
        """§6.2: 'the difference between SipDp and SpDp was negligible'."""
        for n in (1000, 50000):
            spdp = expected_masks([16, 16], n)
            sipdp = expected_masks([16, 32], n)
            assert abs(spdp - sipdp) / spdp < 0.02

    def test_monotone_in_n(self):
        values = expected_masks_curve([16, 32], [10, 100, 1000, 10000])
        assert values == sorted(values)

    def test_bounded_by_attainable(self):
        for widths in ([16], [16, 32, 16]):
            assert expected_masks(widths, 10**7) <= attainable_masks(widths)

    def test_zero_packets(self):
        assert expected_masks([16], 0) == 0.0

    def test_negative_n(self):
        with pytest.raises(ExperimentError):
            expected_masks([16], -1)


class TestExpectedEntries:
    def test_eq2_literal(self):
        """Eq. 2 over the entry census, computed independently here."""
        widths = [3, 4]
        n = 500
        census = entry_census(widths)
        total_bits = sum(widths)
        by_hand = sum(
            count * (1 - (1 - 2.0 ** (k - total_bits)) ** n)
            for k, count in census.items()
        )
        assert expected_entries(widths, n) == pytest.approx(by_hand, rel=1e-9)

    def test_entries_at_least_masks(self):
        for n in (100, 10000):
            assert expected_entries([16, 32], n) >= expected_masks([16, 32], n) - 1e-9


class TestMonteCarloAgreement:
    """The analytic expectation must match the real cache (seeded)."""

    @pytest.mark.parametrize("widths,use_fields", [
        ((16,), ("tp_dst",)),
        ((16, 32), ("tp_dst", "ip_src")),
    ])
    def test_expectation_vs_simulation(self, widths, use_fields):
        from repro.classifier.slowpath import WILDCARDING, MegaflowGenerator
        from repro.core.general import GeneralTraceGenerator
        from repro.core.usecases import SIPDP, DP

        use_case = DP if len(widths) == 1 else SIPDP
        n = 2000
        runs = 5
        total = 0.0
        table = use_case.build_table()
        for run in range(runs):
            generator = MegaflowGenerator(table, WILDCARDING)
            source = GeneralTraceGenerator(
                fields=use_fields, base={"ip_proto": 6}, seed=run
            )
            masks = {generator.generate(k).entry.mask for k in source.keys(n)}
            total += len(masks)
        measured = total / runs
        expected = expected_masks(widths, n)
        assert measured == pytest.approx(expected, rel=0.15)
