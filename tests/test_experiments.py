"""Integration tests: every experiment harness runs and matches the paper.

Each paper-shape assertion lives here once, evaluated on the ``golden_run``
result of its experiment — the simulation ``tests/test_golden.py`` compares
byte for byte, run once per session at the parameters pinned there.  A test
that calls ``run`` itself exercises a parameter the pinned run does not.
"""

import re

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import EXPERIMENTS, table1
from repro.experiments.common import ExperimentResult


def named_rows(result: ExperimentResult) -> dict:
    """Rows as ``{first cell: {column: value}}``."""
    return {row[0]: dict(zip(result.columns, row)) for row in result.rows}


def window(result: ExperimentResult, column: str, start: float, stop: float) -> list:
    """A time-series column's samples with ``start <= t_s < stop``."""
    return [v for t, v in zip(result.column("t_s"), result.column(column)) if start <= t < stop]


class TestRegistry:
    def test_all_twenty_one_experiments(self):
        assert len(EXPERIMENTS) == 21
        assert "pmdsweep" in EXPERIMENTS
        assert "backendsweep" in EXPERIMENTS
        assert "cloudsweep" in EXPERIMENTS
        assert "migrationsweep" in EXPERIMENTS
        assert "rsssweep" in EXPERIMENTS

    def test_run_by_id(self):
        result = EXPERIMENTS["table1"]()
        assert result.experiment_id == "table1"

    def test_every_result_formats(self):
        result = table1.run()
        text = result.format_table()
        assert "table1" in text
        assert "OpenStack" in text

    def test_save(self, tmp_path):
        path = table1.run().save(tmp_path)
        assert path.read_text().startswith("== table1")

    def test_row_arity_checked(self):
        result = ExperimentResult("x", "t", "ref", columns=["a", "b"])
        with pytest.raises(ExperimentError):
            result.add_row(1)

    def test_column_lookup(self):
        result = ExperimentResult("x", "t", "ref", columns=["a", "b"])
        result.add_row(1, 2)
        assert result.column("b") == [2]
        with pytest.raises(ExperimentError):
            result.column("c")


class TestTable1:
    def test_cms_bounds_the_attack_ceiling(self, golden_run):
        rows = named_rows(golden_run("table1"))
        assert rows["OpenStack"]["max_masks"] == 512     # SipDp only
        assert rows["Kubernetes"]["max_masks"] == 8192   # SipSpDp via Calico


class TestDidactic:
    def test_figs_2_3_5_counts(self, golden_run):
        counts = {figure: (row["masks"], row["entries"]) for figure, row in named_rows(golden_run("didactic")).items()}
        assert counts == {
            "Fig. 2 (exact-match)": (1, 8),
            "Fig. 3 (wildcarding)": (3, 4),
            "Fig. 5 (two fields)": (13, 16),
        }

    def test_trace_note_matches_paper(self, golden_run):
        assert any("001, 101, 011, 000" in note for note in golden_run("didactic").notes)


class TestFig9a:
    def test_shape(self, golden_run):
        gro_off = golden_run("fig9a").column("gro_off_gbps")
        assert gro_off[0] == pytest.approx(10.0, rel=0.05)
        assert gro_off == sorted(gro_off, reverse=True)
        # §5.4: SipSpDp leaves 0.2% with GRO OFF.
        assert gro_off[-1] == pytest.approx(0.02, rel=0.3)

    def test_fho_higher_baseline(self, golden_run):
        assert golden_run("fig9a").column("fho_gbps")[0] == pytest.approx(30.0, rel=0.05)

    def test_fct_grows(self, golden_run):
        fct = {masks: row["fct_1gb_s"] for masks, row in named_rows(golden_run("fig9a")).items()}
        assert list(fct.values()) == sorted(fct.values())
        assert fct[516] > 10 * fct[1]
        assert fct[8200] > 300  # minutes once the tuple space explodes


class TestFig9b:
    def test_expected_vs_measured_agree(self, golden_run):
        rows = named_rows(golden_run("fig9b"))
        # Paper's saturation values at 50k packets.
        final = rows[50000]
        assert final["Dp_E"] == pytest.approx(15.5, abs=1.5)
        assert final["SipDp_E"] == pytest.approx(121, abs=5)
        assert final["SipSpDp_E"] == pytest.approx(581, abs=10)
        for case in ("Dp", "SpDp", "SipDp", "SipSpDp"):
            assert final[f"{case}_M"] == pytest.approx(final[f"{case}_E"], rel=0.15)
            # Below ~100 packets three runs of a handful of masks are noise.
            for packets, row in rows.items():
                if packets >= 100:
                    assert row[f"{case}_M"] == pytest.approx(row[f"{case}_E"], rel=0.25), (case, packets)


class TestFig9c:
    def test_anchors(self, golden_run):
        rows = named_rows(golden_run("fig9c"))
        assert rows[1000]["cpu_pct"] == pytest.approx(15.0, abs=1.0)   # paper: ~15% below 1 kpps
        assert rows[10000]["cpu_pct"] == pytest.approx(80.0, abs=2.0)  # paper: ~80% at 10 kpps
        assert rows[50000]["cpu_pct"] <= 250.0                         # saturation

    def test_simulated_demotion_near_rate(self, golden_run):
        rows = named_rows(golden_run("fig9c"))
        for pps in (10, 100, 1000):
            assert rows[pps]["demoted_pps_simulated"] == pytest.approx(pps, rel=0.15)


class TestSection54:
    def test_mask_ceilings(self, golden_run):
        rows = named_rows(golden_run("section54"))
        assert {case: row["mfc_masks"] for case, row in rows.items()} == {
            "Dp": 16, "SpDp": 257, "SipDp": 513, "SipSpDp": 8209,
        }

    def test_throughput_close_to_paper(self, golden_run):
        rows = named_rows(golden_run("section54"))
        for case, row in rows.items():
            assert row["gro_off_pct"] == pytest.approx(row["paper_gro_off"], rel=0.35), case
        assert rows["SipSpDp"]["gro_off_pct"] < 0.5  # the paper's 0.2%


class TestSection62:
    def test_measured_tracks_expected(self, golden_run):
        result = golden_run("section62")
        for row in result.rows:
            cells = dict(zip(result.columns, row))
            assert cells["masks_measured"] == pytest.approx(cells["masks_expected"], rel=0.25)
            if (cells["packets"], cells["use_case"]) == (50000, "SipDp"):
                # ~121 masks -> the paper quotes 12% GRO OFF.  Its own §6.2
                # (12% at ~122 masks) and §5.4 (10% at 260) fit no smooth
                # monotone curve; ours interpolates the §5.4 anchors, so the
                # claim is "well below Dp's ~52%, above SipSpDp's ~1%".
                assert cells["masks_measured"] == pytest.approx(121, rel=0.15)
                assert 6.0 < cells["gro_off_pct"] < 26.0


class TestTheorems:
    def test_theorem41_bound_respected(self, golden_run):
        for row in golden_run("theorem41").rows:
            _k, bound, construct, _bm, _be = row
            assert construct >= bound

    def test_theorem41_exhaustive_matches(self, golden_run):
        """The built columns (an exhaustive replay at w=8) equal the closed form."""
        from repro.core.complexity import constructive_cost_single

        built = [row for row in golden_run("theorem41").rows if row[4] >= 0]
        assert [row[0] for row in built] == [1, 2, 4, 8]
        for k, _bound, _construct, built_masks, built_entries in built:
            closed = constructive_cost_single(8, k)
            assert (built_masks, built_entries) == (closed.time, closed.space)

    def test_theorem42_closed_form_matches_cache(self, golden_run):
        result = golden_run("theorem42")
        note = result.notes[0]
        assert "built" in note
        # The note embeds built vs closed numbers; parse and compare.
        numbers = [int(x) for x in re.findall(r"\d+", note.split("built")[1])]
        built_masks, built_entries, closed_masks, closed_entries = numbers[:4]
        assert (built_masks, built_entries) == (closed_masks, closed_entries)
        # Wildcarding every field: the SipSpDp product.
        assert result.column("time_masks")[-1] == 16 * 32 * 16 + 1 + 16


class TestIPv6Quirk:
    def test_exact_strategy_blows_memory_not_masks(self, golden_run):
        rows = named_rows(golden_run("ipv6"))
        exact = rows["ovs-default (v6 exact)"]
        wild = rows["bit-wildcarding"]
        assert exact["mfc_masks"] < 40                       # masks stay tiny...
        assert exact["megaflows"] > 15000                    # ...one entry per random source
        assert wild["mfc_masks"] > exact["mfc_masks"]        # wildcarding spawns masks instead
        assert wild["megaflows"] < exact["megaflows"] / 5
        assert exact["memory_mb"] > 5 * wild["memory_mb"]    # memory blow-up


class TestComparison:
    def test_tss_degrades_alternatives_do_not(self, golden_run):
        rows = named_rows(golden_run("comparison"))
        assert rows["tss-cache"]["degradation_x"] > 100
        # The grouped cache inherits the same exploded mask list but keeps
        # probing it in near-constant chain steps.
        assert rows["tuplechain-cache"]["degradation_x"] < rows["tss-cache"]["degradation_x"] / 10
        for name in ("linear", "hierarchical-tries", "hypercuts", "harp"):
            assert rows[name]["degradation_x"] == pytest.approx(1.0, abs=0.05)


class TestBackendSweep:
    def test_backends_agree_and_grouped_stays_bounded(self, golden_run):
        result = golden_run("backendsweep")
        assert any("IDENTICAL" in note for note in result.notes)
        rows = named_rows(result)
        tss, chain = rows["tss"], rows["tuplechain"]
        # Same detonation installed either way; only the scan cost differs.
        assert tss["masks"] == chain["masks"] == 513
        assert tss["benign_after_probe"] > chain["benign_after_probe"] * 2
        assert chain["degradation_x"] < tss["degradation_x"] / 10
        # The netsim time series prices each victim in its backend's probe
        # units: the grouped victim keeps throughput where TSS's starves.
        assert chain["victim_floor_gbps"] > 4 * tss["victim_floor_gbps"]
        assert chain["victim_floor_gbps"] > 0.2 * chain["victim_baseline_gbps"]
        assert tss["scan_cost_units"] == 513.0
        assert chain["scan_cost_units"] < 513.0 / 4



@pytest.mark.slow
class TestTimeSeries:
    """The Fig. 8 simulations and the §8 mitigation run."""

    def test_fig8a_shape(self, golden_run):
        result = golden_run("fig8a")
        baseline = max(window(result, "victim_sum_gbps", 0, 30))
        assert baseline > 9.0                                        # paper: ~9.7 Gbps aggregate
        assert min(window(result, "victim_sum_gbps", 35, 60)) < 0.55  # paper: below 0.5 Gbps
        assert max(window(result, "victim_sum_gbps", 80, 90)) > 0.8 * baseline
        # Recovery is *delayed* ~10 s past attack stop (idle timeout).
        assert window(result, "victim_sum_gbps", 64, 66)[0] < 0.3 * baseline

    def test_fig8b_established_flow_quirk(self, golden_run):
        result = golden_run("fig8b")
        first_attack = min(window(result, "victim_gbps", 33, 60))
        calm = max(window(result, "victim_gbps", 75, 90))
        re_attack = min(window(result, "victim_gbps", 95, 120))
        assert first_attack < 0.1 * calm    # paper: >90% reduction
        assert re_attack > 0.75 * calm      # paper: only ~10% dip on re-attack

    def test_fig8c_three_phases(self, golden_run):
        result = golden_run("fig8c")
        post_acl = window(result, "victim_gbps", 80, 110)
        assert min(window(result, "victim_gbps", 35, 60)) > 0.7           # minor glitch only
        assert 0.05 < min(post_acl) and max(post_acl) < 0.35              # ~80% drop
        assert max(window(result, "victim_gbps", 125, 150)) < 0.05        # full DoS at 2 kpps
        assert max(result.column("mfc_masks")) == 8209
        assert max(result.column("megaflows")) > 8000  # the secondary axis

    def test_mfcguard_restores_service(self, golden_run):
        result = golden_run("mfcguard")
        late_guard = window(result, "victim_gbps_guard", 45, 60)
        late_noguard = window(result, "victim_gbps_noguard", 45, 60)
        assert max(late_guard) > 5 * max(late_noguard)           # service restored
        assert min(window(result, "masks_guard", 45, 60)) < 150  # masks clipped back


class TestSection7:
    def test_expressiveness_ceilings(self, golden_run):
        ceilings = golden_run("section7").column("max_masks")
        assert ceilings[0] == 513          # OpenStack ingress (paper: 512)
        assert ceilings[1] == 8209         # Calico ingress (paper: 8192)
        assert 200_000 < ceilings[2] < 300_000  # Calico egress (~200k)

    def test_expectations_monotone_in_surface(self, golden_run):
        expectations = golden_run("section7").column("expected_masks_50000_random")
        assert expectations == sorted(expectations)


class TestScaleOutSweeps:
    """The follow-up claims, at the sizes ``tests/test_golden.py`` pins.

    ``migrationsweep`` / ``rsssweep`` / ``backendsweep`` are pinned on the
    513-mask SipDp detonation; the 8,209-mask SipSpDp readings (hybrid
    recovery 621x, re-keying 17x, grouped floor 598x) are quoted in README.
    """

    def test_pmdsweep_dilution_and_queue_isolation(self, golden_run):
        result = golden_run("pmdsweep")
        rows = {(row[0], row[1], row[2]): dict(zip(result.columns, row)) for row in result.rows}
        floors = [f"victim{i}_floor_gbps" for i in (1, 2, 3, 4)]
        # Spread dilution: more PMDs, higher aggregate floor.
        spread_1, spread_4 = rows[1, "spread", "serial"], rows[4, "spread", "serial"]
        assert spread_4["sum_floor_gbps"] > 2.0 * spread_1["sum_floor_gbps"]
        # Concentration: the victim sharing queue 0 with the attack
        # collapses; every other core's victims hold ~baseline, and the
        # explosion is confined to the targeted shard.
        queue0 = rows[4, "queue0", "serial"]
        baseline = queue0["sum_baseline_gbps"] / 4
        assert queue0[floors[0]] < 0.5 * baseline
        assert all(queue0[name] >= 0.9 * baseline for name in floors[1:])
        (per_shard,) = [
            [int(m) for m in re.findall(r"\d+", note.split("masks/shard")[1].split("]")[0])]
            for note in result.notes
            if note.startswith("n_pmd=4 queue0 serial")
        ]
        assert per_shard[0] == queue0["masks_max_shard"] > 100
        assert all(masks <= 5 for masks in per_shard[1:])
        # Attack impact is floor-for-floor identical across executors.
        for executor in ("thread", "process"):
            other = rows[4, "spread", executor]
            assert [other[name] for name in floors] == [spread_4[name] for name in floors]

    def test_cloudsweep_concentrated_plan_sinks_its_host_only(self, golden_run):
        rows = named_rows(golden_run("cloudsweep"))
        concentrated, spread = rows["concentrated"], rows["spread"]
        assert concentrated["attacked_floor_p50_gbps"] < 0.5 * concentrated["baseline_p50_gbps"]
        assert concentrated["floor_p50_gbps"] > 0.5 * concentrated["baseline_p50_gbps"]
        # The same budget as a per-host trickle floors the whole fleet's p50.
        assert spread["floor_p50_gbps"] < 0.5 * spread["baseline_p50_gbps"]

    def test_migrationsweep_recovers_during_the_attack(self, golden_run):
        rows = named_rows(golden_run("migrationsweep"))
        none, hybrid = rows["none"], rows["hybrid"]
        assert none["floor_gbps"] < 0.1 * none["baseline_gbps"]  # the detonation bit
        assert hybrid["swaps"] >= 1 and hybrid["final_backend"] == "tuplechain"
        assert hybrid["entries_deleted"] == 0
        # SipDp's 513 masks cost the undefended victim 14x, so the recovery
        # ratio is bounded by that (>= 100x is the 8k-mask figure).
        assert hybrid["recovered_floor_gbps"] >= 5 * none["floor_gbps"]
        assert hybrid["time_to_recover_s"] <= 5.0
        assert hybrid["final_scan_cost"] < none["final_scan_cost"] / 4

    def test_rsssweep_rekeying_lifts_the_round_tail_floor(self, golden_run):
        rows = named_rows(golden_run("rsssweep"))
        static, defended = rows["static"], rows["rebalance"]
        assert static["remaps"] == 0
        assert defended["remaps"] >= defended["rounds"] - 1
        assert defended["entries_moved"] > 0
        # >= 10x at 8k masks; at 513 the static floor is already 0.47 Gbps.
        assert defended["tail_floor_gbps"] >= 2 * static["tail_floor_gbps"]
