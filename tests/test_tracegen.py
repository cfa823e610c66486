"""Unit tests for co-located adversarial trace generation (§5.1)."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.classifier.actions import ALLOW, DENY
from repro.classifier.flowtable import FlowTable
from repro.classifier.rule import FlowRule, Match
from repro.classifier.slowpath import MegaflowGenerator
from repro.core.general import GeneralTraceGenerator
from repro.core.tracegen import AdversarialTrace, ColocatedTraceGenerator
from repro.core.usecases import DP, SIPDP, SIPSPDP, SPDP
from repro.exceptions import ExperimentError, FieldError
from repro.packet.fields import FIELDS, FlowKey
from repro.packet.headers import PROTO_TCP
from repro.switch.datapath import Datapath, DatapathConfig
from tests.conftest import HYP_SHIFT
from tests.packet_oracle import flow_key
from tests.tracegen_oracle import bit_inversion_list, colocated_keys


class TestBitInversion:
    def test_paper_fig1_trace(self):
        """§5.1: the 3-bit trace {001, 101, 011, 000}."""
        assert bit_inversion_list(0b001, 3) == [0b001, 0b101, 0b011, 0b000]

    def test_respects_mask(self):
        values = bit_inversion_list(0b0100, 4, mask=0b1100)
        assert values == [0b0100, 0b1100, 0b0000]

    def test_length_is_width_plus_one(self):
        assert len(bit_inversion_list(80, 16)) == 17


@pytest.mark.usefixtures("slowpath_oracle")
class TestSingleHeader:
    def test_fig1_keys(self, fig1_table):
        generator = ColocatedTraceGenerator(fig1_table)
        trace = generator.generate()
        hyp_values = [key["ip_tos"] >> HYP_SHIFT for key in trace.keys]
        assert hyp_values == [0b001, 0b101, 0b011, 0b000]
        assert trace.expected_masks == 3

    def test_trace_spawns_exactly_fig3(self, fig1_table):
        datapath = Datapath(fig1_table, DatapathConfig(microflow_capacity=0))
        for key in ColocatedTraceGenerator(fig1_table).generate().keys:
            datapath.process(key)
        assert datapath.n_masks == 3
        assert datapath.n_megaflows == 4


@pytest.mark.usefixtures("slowpath_oracle")
class TestMultiHeader:
    def test_fig4_sixteen_paths(self, fig4_table):
        trace = ColocatedTraceGenerator(fig4_table).generate()
        assert len(trace) == 16  # 1 + 3 + 12 decision paths
        assert trace.expected_masks == 13  # the paper's 3*4+1

    def test_use_case_ceilings(self):
        """The paper's mask ceilings: 16 / 257 / 513 / 8209."""
        expectations = {DP: 16, SPDP: 257, SIPDP: 513, SIPSPDP: 8209}
        for use_case, expected in expectations.items():
            table = use_case.build_table()
            trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
            datapath = Datapath(table, DatapathConfig(microflow_capacity=0))
            for key in trace.keys:
                datapath.process(key)
            assert datapath.n_masks == expected, use_case.name
            assert trace.expected_masks == expected, use_case.name

    def test_pinned_base_prunes_scoped_fields(self):
        """Tenant scoping (exact ip_dst) must not multiply masks."""
        table = DP.build_table(ip_dst=0xC0000201)
        trace = ColocatedTraceGenerator(
            table, base={"ip_dst": 0xC0000201, "ip_proto": PROTO_TCP}
        ).generate()
        assert trace.expected_masks == 16

    def test_unpinned_scoped_field_expands(self):
        """Without pinning, ip_dst mismatch paths are legitimately explored
        (the egress-policy scenario of §7)."""
        table = DP.build_table(ip_dst=0xC0000201)
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        assert trace.expected_masks > 16


class TestTraceProperties:
    def test_all_keys_unique(self):
        table = SIPDP.build_table()
        trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
        assert len(set(trace.keys)) == len(trace.keys)

    def test_empty_table_rejected(self):
        with pytest.raises(ExperimentError):
            ColocatedTraceGenerator(FlowTable()).generate()

    def test_keys_exercise_each_action(self, fig4_table):
        trace = ColocatedTraceGenerator(fig4_table).generate()
        actions = {fig4_table.classify(key).is_drop for key in trace.keys}
        assert actions == {True, False}

    def test_trace_label(self, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate(use_case="Demo")
        assert trace.use_case == "Demo"

    def test_packets_materialize_with_noise(self, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate()
        packets = trace.packets()
        assert len(packets) == len(trace)
        ttls = {p.ip.ttl for p in packets}
        assert len(ttls) > 1  # noise varied the TTL

    def test_packets_keep_classification_fields(self, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate()
        for key, packet in zip(trace.keys, trace.packets()):
            assert flow_key(packet)["ip_tos"] == key["ip_tos"]

    def test_to_pcap(self, tmp_path, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate()
        path = tmp_path / "attack.pcap"
        assert trace.to_pcap(path, rate_pps=100) == len(trace)
        assert path.stat().st_size > 24

    def test_iteration(self, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate()
        assert list(iter(trace)) == trace.keys


class TestAdversarialTraceContainer:
    def test_len(self):
        trace = AdversarialTrace(keys=[FlowKey(tp_dst=1)])
        assert len(trace) == 1

    def test_random_trace_counts_no_masks(self):
        trace = GeneralTraceGenerator(fields=("tp_dst",), seed=1).generate(10)
        assert trace.expected_masks == 0


class TestBaseValidation:
    """``base`` is checked once, when the generator is built."""

    def test_unknown_field(self, fig1_table):
        with pytest.raises(FieldError):
            ColocatedTraceGenerator(fig1_table, base={"nope": 1})

    def test_value_out_of_range(self, fig1_table):
        with pytest.raises(FieldError):
            ColocatedTraceGenerator(fig1_table, base={"tp_dst": 1 << 20})


def assert_matches_oracle(table, base=None, include_allow_paths=True):
    trace = ColocatedTraceGenerator(
        table, base=base, include_allow_paths=include_allow_paths
    ).generate()
    assert trace.keys == colocated_keys(table, base, include_allow_paths)


class TestEnumerationMatchesTheOracle:
    """The key sequence, order included, is the recursive walk's."""

    @pytest.mark.parametrize("include_allow_paths", [True, False])
    @pytest.mark.parametrize("use_case", [DP, SPDP, SIPDP, SIPSPDP], ids=lambda uc: uc.name)
    def test_use_cases(self, use_case, include_allow_paths):
        assert_matches_oracle(use_case.build_table(), {"ip_proto": PROTO_TCP}, include_allow_paths)

    @pytest.mark.parametrize("include_allow_paths", [True, False])
    def test_fig1_and_fig4(self, fig1_table, fig4_table, include_allow_paths):
        assert_matches_oracle(fig1_table, include_allow_paths=include_allow_paths)
        assert_matches_oracle(fig4_table, include_allow_paths=include_allow_paths)

    def test_pinned_base_clash_and_retry(self):
        """The tables of the pinned / unpinned scoped-field tests above."""
        table = DP.build_table(ip_dst=0xC0000201)
        assert_matches_oracle(table, {"ip_dst": 0xC0000201, "ip_proto": PROTO_TCP})
        assert_matches_oracle(table, {"ip_proto": PROTO_TCP})

    def test_retry_pins_only_the_deciding_bits(self):
        """A path pins ip_tos bit 2 to 0 (mismatching r1); r2's inversion of
        bit 7 clashes there and retries pinning bit 7 alone, so bit 0 stays
        free and r3 can still match."""
        table = FlowTable()
        table.add_rule(Match(ip_tos=(0b100, 0b100)), ALLOW, priority=30, name="r1")
        table.add_rule(Match(ip_tos=(0b100, 0b10000101)), DENY, priority=20, name="r2")
        table.add_rule(Match(ip_tos=(0b1, 0b1)), ALLOW, priority=10, name="r3")
        table.add_default_deny()
        keys = ColocatedTraceGenerator(table).generate().keys
        assert FlowKey(ip_tos=0b10000001) in keys
        assert_matches_oracle(table)


# Narrow constraints over a few shared fields keep the path count small.
ACL_FIELDS = ("ip_proto", "ip_tos", "tp_src", "tp_dst")


@st.composite
def small_acls(draw):
    """``(table, base, include_allow_paths)``: 1-4 rules of 1-2 constraints
    with 1-3 arbitrary mask bits on shared fields, mixed actions, and a
    base that may pin a field the rules examine (the clash/retry case)."""
    table = FlowTable()
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        constraints = {}
        for name in draw(st.lists(st.sampled_from(ACL_FIELDS), min_size=1, max_size=2, unique=True)):
            width = FIELDS[name].width
            bits = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=3, unique=True))
            mask = sum(1 << bit for bit in bits)
            constraints[name] = (draw(st.integers(0, (1 << width) - 1)) & mask, mask)
        action = draw(st.sampled_from([ALLOW, DENY]))
        priority = draw(st.integers(min_value=0, max_value=3))
        table.add(FlowRule(Match(**constraints), action, priority=priority, name=f"r{index}"))
    if draw(st.booleans()):
        table.add_default_deny()
    base = {}
    for name in draw(st.lists(st.sampled_from(ACL_FIELDS), max_size=2, unique=True)):
        base[name] = draw(st.integers(0, FIELDS[name].max_value))
    return table, base, draw(st.booleans())


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_acls())
def test_small_acls_match_the_oracle(acl):
    table, base, include_allow_paths = acl
    assert_matches_oracle(table, base, include_allow_paths)


class TestMaskCountIsLazy:
    """Crafting classifies nothing; the count is one pass, on first read,
    against the table as it was at ``generate()``.  Counted, not timed."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = {}
        for name in ("__init__", "generate", "generate_batch"):
            original = getattr(MegaflowGenerator, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(MegaflowGenerator, name, counted)
        return calls

    def test_generate_classifies_nothing(self, passes):
        ColocatedTraceGenerator(SIPDP.build_table(), base={"ip_proto": PROTO_TCP}).generate()
        assert passes == {}

    def test_two_reads_make_one_pass(self, passes):
        trace = ColocatedTraceGenerator(SIPDP.build_table(), base={"ip_proto": PROTO_TCP}).generate()
        assert trace.expected_masks == trace.expected_masks == 513
        assert passes == {"__init__": 1, "generate_batch": 1}

    def test_table_mutated_after_generate(self, fig1_table):
        trace = ColocatedTraceGenerator(fig1_table).generate()
        fig1_table.clear()  # the live table would now give every key one miss mask
        assert trace.expected_masks == 3
