"""Unit tests for General TSE random trace generation (§6.1)."""

import pytest

from repro.core.general import GeneralTraceGenerator
from repro.exceptions import ExperimentError
from repro.packet.headers import PROTO_TCP


class TestGeneration:
    def test_targeted_fields_randomized(self):
        generator = GeneralTraceGenerator(fields=("ip_src", "tp_dst"), seed=1)
        keys = list(generator.keys(100))
        assert len({key["ip_src"] for key in keys}) > 90
        assert len({key["tp_dst"] for key in keys}) > 50

    def test_base_fields_fixed(self):
        generator = GeneralTraceGenerator(
            fields=("tp_dst",), base={"ip_proto": PROTO_TCP, "ip_dst": 42}, seed=1
        )
        for key in generator.keys(50):
            assert key["ip_proto"] == PROTO_TCP
            assert key["ip_dst"] == 42

    def test_deterministic_per_seed(self):
        a = list(GeneralTraceGenerator(fields=("ip_src",), seed=7).keys(20))
        b = list(GeneralTraceGenerator(fields=("ip_src",), seed=7).keys(20))
        assert a == b

    def test_seeds_differ(self):
        a = list(GeneralTraceGenerator(fields=("ip_src",), seed=1).keys(20))
        b = list(GeneralTraceGenerator(fields=("ip_src",), seed=2).keys(20))
        assert a != b

    def test_wide_field_random(self):
        generator = GeneralTraceGenerator(fields=("ipv6_src",), seed=5)
        values = [key["ipv6_src"] for key in generator.keys(32)]
        assert any(value > (1 << 64) for value in values)  # uses full width

    def test_uniformity_rough(self):
        generator = GeneralTraceGenerator(fields=("tp_dst",), seed=11)
        values = [key["tp_dst"] for key in generator.keys(2000)]
        top_half = sum(1 for v in values if v >= 1 << 15)
        assert 800 < top_half < 1200

    def test_generate_trace_container(self):
        generator = GeneralTraceGenerator(fields=("tp_dst",), seed=1)
        trace = generator.generate(25, use_case="Dp")
        assert len(trace) == 25
        assert trace.use_case == "Dp"


class TestValidation:
    def test_needs_fields(self):
        with pytest.raises(ExperimentError):
            GeneralTraceGenerator(fields=())

    def test_unknown_field(self):
        with pytest.raises(ExperimentError):
            GeneralTraceGenerator(fields=("nope",))

    def test_field_both_fixed_and_random(self):
        with pytest.raises(ExperimentError):
            GeneralTraceGenerator(fields=("tp_dst",), base={"tp_dst": 80})

    def test_negative_count(self):
        generator = GeneralTraceGenerator(fields=("tp_dst",))
        with pytest.raises(ExperimentError):
            list(generator.keys(-1))
