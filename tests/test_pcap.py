"""Unit tests for pcap reading/writing."""

import hashlib
import io
import struct

import pytest

from repro.core.tracegen import AdversarialTrace, ColocatedTraceGenerator
from repro.core.usecases import SIPDP
from repro.exceptions import PcapError
from repro.packet.addresses import ipv4
from repro.packet.builder import PacketBuilder
from repro.packet.fields import FlowKey
from repro.packet.headers import PROTO_TCP
from repro.packet.pcap import LINKTYPE_ETHERNET, PcapWriter, write_pcap
from tests.packet_oracle import PcapReader, flow_key, read_pcap


def sample_packets(n=5):
    builder = PacketBuilder()
    return [
        builder.from_flow_key(FlowKey(ip_proto=PROTO_TCP, ip_src=i, ip_dst=100 + i, tp_dst=80))
        for i in range(n)
    ]


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.pcap"
        packets = sample_packets()
        count = write_pcap(path, packets, rate_pps=100)
        assert count == 5
        loaded = read_pcap(path)
        assert len(loaded) == 5
        for (timestamp, packet), original in zip(loaded, packets):
            assert flow_key(packet) == flow_key(original)
        # 100 pps spacing = 10 ms between packets.
        assert loaded[1][0] - loaded[0][0] == pytest.approx(0.01, abs=1e-6)

    def test_stream_roundtrip(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for packet in sample_packets(3):
            writer.write_packet(packet, timestamp=1.5)
        buffer.seek(0)
        records = list(PcapReader(buffer))
        assert len(records) == 3
        assert records[0].timestamp == pytest.approx(1.5, abs=1e-6)

    def test_timestamps_stay_in_range_at_any_rate(self, tmp_path):
        # At 49 pps packet 49 is stamped 0.99999...: it must carry into the
        # seconds field, never be written as (0 s, 1,000,000 us).
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_packets(1) * 150, rate_pps=49)
        data = path.read_bytes()
        offset, stamps = 24, []  # past the global header
        while offset < len(data):
            ts_sec, ts_usec, incl_len, _orig_len = struct.unpack_from("<IIII", data, offset)
            stamps.append((ts_sec, ts_usec))
            offset += 16 + incl_len
        assert len(stamps) == 150
        assert all(ts_usec < 1_000_000 for _ts_sec, ts_usec in stamps)
        assert stamps == sorted(stamps)
        assert stamps[49] == (1, 0)

    def test_linktype_recorded(self, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_packets(1))
        with PcapReader(path) as reader:
            assert reader.linktype == LINKTYPE_ETHERNET
            assert reader.version == (2, 4)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(PcapError, match="magic"):
            PcapReader(io.BytesIO(b"\x00" * 24))

    def test_truncated_global_header(self):
        with pytest.raises(PcapError, match="truncated"):
            PcapReader(io.BytesIO(b"\xd4\xc3\xb2\xa1"))

    def test_truncated_record(self):
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        writer.write(b"payload", timestamp=0)
        data = buffer.getvalue()[:-3]  # chop the record body
        with pytest.raises(PcapError, match="truncated"):
            list(PcapReader(io.BytesIO(data)))

    def test_implausible_length(self):
        buffer = io.BytesIO()
        PcapWriter(buffer)  # just the global header
        buffer.write(struct.pack("<IIII", 0, 0, 100, 50))  # incl > orig
        buffer.seek(0)
        with pytest.raises(PcapError, match="implausible"):
            list(PcapReader(buffer))

    def test_bad_rate(self, tmp_path):
        with pytest.raises(PcapError):
            write_pcap(tmp_path / "x.pcap", [], rate_pps=0)


class TestSwappedByteOrder:
    def test_big_endian_file(self):
        # Hand-build a byte-swapped capture: magic 0xa1b2c3d4 big-endian.
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack(">IIII", 1, 500000, 4, 4) + b"abcd"
        reader = PcapReader(io.BytesIO(header + record))
        records = list(reader)
        assert len(records) == 1
        assert records[0].data == b"abcd"
        assert records[0].timestamp == pytest.approx(1.5, abs=1e-6)


def test_attack_pcap_bytes_are_pinned(tmp_path):
    # The noise RNG draws each packet's TTL, then its payload, in that
    # order: any change to the draws or to crafting moves this digest.
    table = SIPDP.build_table(ip_dst=ipv4("10.0.0.2"))
    trace = ColocatedTraceGenerator(table, base={"ip_proto": PROTO_TCP}).generate()
    path = tmp_path / "sipdp.pcap"
    assert AdversarialTrace(trace.keys[:64]).to_pcap(path, rate_pps=1000) == 64
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "e7c6a37ffbed779435199aaa0eaa9d910d2d4284370c42c0c8ac3099aa414b4b"
    )
