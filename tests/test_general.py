"""Unit tests for General TSE random trace generation (§6.1)."""

import pytest

from repro.core.general import GeneralTraceGenerator
from repro.exceptions import ExperimentError, FieldError
from repro.packet.headers import PROTO_TCP
from tests.tracegen_oracle import PerCallDraw


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
        """Raised by the call itself, not on first iteration."""
        generator = GeneralTraceGenerator(fields=("tp_dst",))
        with pytest.raises(ExperimentError):
            generator.keys(-1)

    def test_unknown_base_field(self):
        with pytest.raises(FieldError):
            GeneralTraceGenerator(fields=("tp_dst",), base={"nope": 1})

    def test_base_value_out_of_range(self):
        with pytest.raises(FieldError):
            GeneralTraceGenerator(fields=("ip_src",), base={"tp_dst": 1 << 20})


class TestColumnarDraw:
    """One columnar draw per call gives the per-call stream, value for value."""

    @pytest.mark.parametrize(
        "fields",
        [
            ("ip_tos",),  # 8 bits
            ("tp_dst",),  # 16
            ("ip_src",),  # 32
            ("eth_src",),  # 48: a 32- and a 16-bit chunk
            ("ipv6_src",),  # 128: four 32-bit chunks
            ("ip_src", "tp_src", "tp_dst"),
            ("ipv6_src", "tp_dst"),
            ("ip_tos", "eth_src", "tp_src"),
        ],
    )
    def test_matches_the_per_call_draw(self, fields):
        base = {"ip_proto": PROTO_TCP}
        generator = GeneralTraceGenerator(fields=fields, base=base, seed=3)
        oracle = PerCallDraw(fields, base, seed=3)
        for n in (0, 1, 7, 0, 500, 64):
            assert generator.keys(n) == oracle.keys(n), (fields, n)
