"""Unit tests for the field registry, FlowKey and FlowMask."""

import pytest

from repro.exceptions import FieldError
from repro.packet.fields import (
    EXACT_MASK,
    FIELD_ORDER,
    FIELDS,
    WILDCARD_MASK,
    FlowKey,
    FlowMask,
    _FieldVector,
    field,
    field_names,
)


class TestRegistry:
    def test_canonical_order_is_stable(self):
        assert field_names()[0] == "in_port"
        assert "ip_src" in FIELD_ORDER
        assert FIELD_ORDER.index("ip_src") < FIELD_ORDER.index("tp_dst")

    def test_widths(self):
        assert FIELDS["ip_src"].width == 32
        assert FIELDS["tp_dst"].width == 16
        assert FIELDS["ipv6_src"].width == 128
        assert FIELDS["ip_proto"].width == 8

    def test_unknown_field_raises(self):
        with pytest.raises(FieldError, match="unknown field"):
            field("nonexistent")

    def test_max_value_and_full_mask(self):
        tp = FIELDS["tp_dst"]
        assert tp.max_value == 0xFFFF
        assert tp.full_mask == 0xFFFF

    def test_check_value_bounds(self):
        with pytest.raises(FieldError):
            FIELDS["ip_proto"].check_value(256)
        with pytest.raises(FieldError):
            FIELDS["ip_proto"].check_value(-1)
        assert FIELDS["ip_proto"].check_value(255) == 255

    def test_check_value_type(self):
        with pytest.raises(FieldError, match="must be int"):
            FIELDS["ip_proto"].check_value("6")  # type: ignore[arg-type]


class TestPrefixAndBits:
    def test_prefix_mask_msb_anchored(self):
        tp = FIELDS["tp_dst"]
        assert tp.prefix_mask(1) == 0x8000
        assert tp.prefix_mask(16) == 0xFFFF
        assert tp.prefix_mask(0) == 0

    def test_prefix_mask_out_of_range(self):
        with pytest.raises(FieldError):
            FIELDS["tp_dst"].prefix_mask(17)


class TestFlowKey:
    def test_defaults_zero(self):
        key = FlowKey()
        assert key["ip_src"] == 0
        assert all(v == 0 for v in key.values)

    def test_kwargs_set_fields(self):
        key = FlowKey(ip_src=0x0A000001, tp_dst=80)
        assert key["ip_src"] == 0x0A000001
        assert key["tp_dst"] == 80
        assert key["tp_src"] == 0

    def test_value_out_of_range(self):
        with pytest.raises(FieldError):
            FlowKey(tp_dst=1 << 16)

    def test_unknown_kwarg(self):
        with pytest.raises(FieldError):
            FlowKey(bogus=1)

    @pytest.mark.parametrize("cls", [FlowKey, FlowMask])
    def test_kwargs_build_no_throwaway_vector(self, cls, monkeypatch):
        """Keyword construction hashes its value tuple once, for itself."""
        built = []
        init = _FieldVector.__init__

        def counting(self, values):
            built.append(type(self))
            init(self, values)

        monkeypatch.setattr(_FieldVector, "__init__", counting)
        vector = cls(ip_src=0x0A000001, tp_dst=80)
        assert built == [cls]
        assert vector == cls.from_values(vector.values) and hash(vector) == hash(vector.values)

    def test_equality_and_hash(self):
        a = FlowKey(ip_src=1, tp_dst=2)
        b = FlowKey(tp_dst=2, ip_src=1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != FlowKey(ip_src=1, tp_dst=3)

    def test_replace(self):
        key = FlowKey(ip_src=1)
        other = key.replace(tp_dst=80)
        assert other["ip_src"] == 1
        assert other["tp_dst"] == 80
        assert key["tp_dst"] == 0  # original untouched

    def test_from_values_roundtrip(self):
        key = FlowKey(ip_src=5, tp_src=6)
        clone = FlowKey.from_values(key.values)
        assert clone == key

    def test_from_values_length_checked(self):
        with pytest.raises(FieldError):
            FlowKey.from_values((1, 2, 3))

    def test_masked(self):
        key = FlowKey(ip_src=0xAABBCCDD)
        mask = FlowMask(ip_src=0xFF000000)
        masked = key.masked(mask)
        index = list(field_names()).index("ip_src")
        assert masked[index] == 0xAA000000
        assert sum(masked) == 0xAA000000  # every other field zero

    def test_items_nonzero(self):
        key = FlowKey(ip_src=1, tp_dst=2)
        assert dict(key.items_nonzero()) == {"ip_src": 1, "tp_dst": 2}

    def test_repr_mentions_fields(self):
        assert "tp_dst" in repr(FlowKey(tp_dst=80))


class TestFlowMask:
    def test_exact_and_wildcard(self):
        assert WILDCARD_MASK.n_bits() == 0
        assert EXACT_MASK.n_bits() == sum(f.width for f in FIELDS.values())

    def test_union(self):
        a = FlowMask(ip_src=0xFF000000)
        b = FlowMask(tp_dst=0xFFFF)
        union = a.union(b)
        assert union["ip_src"] == 0xFF000000
        assert union["tp_dst"] == 0xFFFF

    def test_wildcarded_bits_complement(self):
        mask = FlowMask(tp_dst=0xFFFF)
        total = sum(f.width for f in FIELDS.values())
        assert mask.wildcarded_bits() == total - 16

    def test_overlap_semantics(self):
        key_a = FlowKey(ip_src=0x0A000000).masked(FlowMask(ip_src=0xFF000000))
        key_b = FlowKey(ip_src=0x0A000001).masked(FlowMask(ip_src=0xFFFFFFFF))
        mask_a = FlowMask(ip_src=0xFF000000)
        mask_b = FlowMask(ip_src=0xFFFFFFFF)
        # 10.x.x.x/8 overlaps 10.0.0.1/32
        assert mask_a.overlaps_key(key_a, mask_b, key_b)
        # but not 11.0.0.1/32
        key_c = FlowKey(ip_src=0x0B000001).masked(mask_b)
        assert not mask_a.overlaps_key(key_a, mask_b, key_c)

    def test_mask_out_of_range(self):
        with pytest.raises(FieldError):
            FlowMask(tp_dst=1 << 16)
