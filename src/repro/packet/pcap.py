"""Writer for the classic libpcap capture format.

The paper's testbed replays attack traces "via replaying a pcap file"; this
module lets the trace generators export adversarial packet sequences as real
pcap files (microsecond timestamps, Ethernet linktype, 65,535-byte snaplen).  The
reader the tests check them with is ``tests/packet_oracle.py``.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable

from repro.exceptions import PcapError
from repro.packet.packet import Packet

__all__ = [
    "LINKTYPE_ETHERNET",
    "PcapWriter",
    "write_pcap",
]

_MAGIC_US = 0xA1B2C3D4  # microsecond-resolution, native byte order
_VERSION_MAJOR = 2
_VERSION_MINOR = 4

LINKTYPE_ETHERNET = 1
_SNAPLEN = 65535

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


class PcapWriter:
    """Streaming pcap writer.

    Usage::

        with PcapWriter(path) as writer:
            writer.write(packet_bytes, timestamp=0.01)
    """

    def __init__(self, target: str | Path | BinaryIO):
        if isinstance(target, (str, Path)):
            self._file: BinaryIO = open(target, "wb")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self._file.write(
            _GLOBAL_HEADER.pack(_MAGIC_US, _VERSION_MAJOR, _VERSION_MINOR, 0, 0, _SNAPLEN, LINKTYPE_ETHERNET)
        )
        self.packets_written = 0

    def write(self, data: bytes, timestamp: float = 0.0) -> None:
        """Append one packet record.

        Both timestamp fields come from one rounding to whole microseconds,
        so a timestamp just under a second carries into ``ts_sec`` instead
        of writing an out-of-range ``ts_usec`` of 1,000,000.
        """
        captured = data[:_SNAPLEN]
        ts_sec, ts_usec = divmod(round(timestamp * 1_000_000), 1_000_000)
        self._file.write(_RECORD_HEADER.pack(ts_sec, ts_usec, len(captured), len(data)))
        self._file.write(captured)
        self.packets_written += 1

    def write_packet(self, packet: Packet, timestamp: float = 0.0) -> None:
        """Serialize and append a :class:`Packet`."""
        self.write(packet.to_bytes(), timestamp=timestamp)

    def close(self) -> None:
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_pcap(
    path: str | Path,
    packets: Iterable[Packet],
    rate_pps: float = 1000.0,
) -> int:
    """Write ``packets`` to ``path`` spaced at ``rate_pps``; return the count."""
    if rate_pps <= 0:
        raise PcapError(f"rate_pps must be positive, got {rate_pps}")
    interval = 1.0 / rate_pps
    with PcapWriter(path) as writer:
        for i, packet in enumerate(packets):
            writer.write_packet(packet, timestamp=i * interval)
        return writer.packets_written
