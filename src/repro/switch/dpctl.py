"""``ovs-dpctl``-style introspection of the simulated datapath.

MFCGuard's Algorithm 2 reads the mask count "via commands ``ovs-dpctl
dump-flows`` or ``ovs-dpctl show``" (§11.4); this module renders the
simulated datapath in the same spirit, so operators of the simulation can
eyeball a tuple space explosion the way the paper's authors did:

* :func:`show` — the summary block with the ``masks: hit:… total:…`` line
  whose ``total`` is the attack's figure of merit, plus a ``probes:`` line
  per datapath/PMD rendering the backend's probe currency (scans
  performed, native probes spent, current expected scan cost and the
  backend's declared unit cost) — how an operator sees that an exploded
  mask list is, or is not, actually expensive to scan — a ``slow path:``
  line per datapath/PMD (upcalls, installs, flow-limit rejections,
  dead-entry suppressions: the upcall pressure that is the attack's
  actual DoS mechanism) — and per-shard
  ``backend:`` / ``migration:`` lines (backend kind, mask count, expected
  scan cost; idle/rebuilding/swapped with progress and last-swap
  timestamp) for watching a live backend migration as it happens;
* :func:`dump_flows` — one line per megaflow in OVS's ``field(value/mask)``
  syntax with hit statistics and actions;
* :func:`mask_histogram` — mask population by wildcarded-bit count, handy
  for spotting the prefix staircase a TSE attack carves.

``show`` is a renderer: every per-shard figure comes from one
:class:`~repro.switch.datapath.ShardSnapshot` per shard, fetched in one
message per worker (a multi-shard datapath adds one more for the
distinct-mask union), and one line builder renders it both as the
single-datapath block and as a ``pmd`` line.

All three accept a sharded multi-PMD datapath too: ``show`` reports the
execution strategy and scan kernel (``pmd executor: serial, kernel=numpy``
or ``process[4 workers]/shm, kernel=cffi`` — the transport suffix
distinguishes the shared-memory data plane from the pickled-pipe one) and
appends one ``pmd`` line per shard (mask count, megaflow count, hit
statistics — the operator-triage view that reveals a queue-concentrated
explosion),
``dump_flows`` prefixes each shard's flows with its queue header, and
``mask_histogram`` aggregates the staircase across shards.  Single-shard
output is unchanged.
"""

from __future__ import annotations

from collections import Counter

from repro.classifier.backend import MegaflowEntry
from repro.packet.addresses import ipv4_str, ipv6_str
from repro.packet.fields import FIELD_ORDER, FIELDS
from repro.switch.datapath import ShardSnapshot
from repro.switch.sharded import AnyDatapath, ShardedDatapath

__all__ = ["show", "dump_flows", "format_flow", "mask_histogram"]

_INDEX = {name: i for i, name in enumerate(FIELD_ORDER)}

# Render IP-ish fields in address notation like OVS does.
_FORMATTERS = {
    "ip_src": ipv4_str,
    "ip_dst": ipv4_str,
    "ipv6_src": ipv6_str,
    "ipv6_dst": ipv6_str,
}


def _format_field(name: str, value: int, mask: int) -> str:
    width = FIELDS[name].width
    full = FIELDS[name].full_mask
    formatter = _FORMATTERS.get(name)
    if formatter is not None:
        if mask == full:
            return f"{name}={formatter(value)}"
        # Prefix masks render as CIDR; arbitrary masks as value/mask.
        plen = mask.bit_count()
        if mask == ((1 << plen) - 1) << (width - plen) and plen:
            return f"{name}={formatter(value)}/{plen}"
        return f"{name}={formatter(value)}/{formatter(mask)}"
    if mask == full:
        return f"{name}={value}"
    return f"{name}={value:#x}/{mask:#x}"


def format_flow(entry: MegaflowEntry) -> str:
    """One ``dump-flows`` line for a megaflow entry."""
    parts = []
    for name in FIELD_ORDER:
        index = _INDEX[name]
        mask = entry.mask.values[index]
        if mask:
            parts.append(_format_field(name, entry.key[index], mask))
    match = ", ".join(parts) if parts else "(all wildcarded)"
    action = "drop" if entry.action.is_drop else str(entry.action)
    return (
        f"{match}, packets:{entry.hits}, used:{entry.last_used:.3f}s, "
        f"actions:{action}"
    )


def dump_flows(datapath: AnyDatapath, max_flows: int | None = None) -> str:
    """The ``ovs-dpctl dump-flows`` rendering of the megaflow cache(s).

    On a sharded datapath each shard's flows follow a ``pmd queue N:``
    header (``max_flows`` applies per shard, as each PMD dump does).
    """
    sharded = datapath.n_shards > 1
    lines = []
    for shard_id, shard in enumerate(datapath.shards):
        if sharded:
            lines.append(f"pmd queue {shard_id}: flows: {shard.n_megaflows}")
        for count, entry in enumerate(shard.megaflows.entries()):
            if max_flows is not None and count >= max_flows:
                lines.append(f"... ({shard.n_megaflows - max_flows} more)")
                break
            lines.append(format_flow(entry))
    return "\n".join(lines)


def _lookups_line(hits: int, misses: int) -> str:
    return f"lookups: hit:{hits} missed:{misses} total:{hits + misses}"


def _masks_line(inspected: int, packets: int, total: int) -> str:
    return f"masks: hit:{inspected} total:{total} hit/pkt:{inspected / max(packets, 1):.2f}"


def _shard_lines(snapshot: ShardSnapshot) -> tuple[str, ...]:
    """The ``lookups``/``masks``/``probes``/``slow path``/``backend``/
    ``migration`` lines of one (shard) datapath.

    The last two are what an operator watches during a live migration:
    which backend kind serves the shard (and what one full scan of it
    costs), then the migration state — ``rebuilding`` with progress and
    target while a rebuild is in flight, ``swapped`` with the swap count
    and timestamp after, ``idle`` otherwise.
    """
    stats = snapshot.stats
    if snapshot.migration == "rebuilding":
        migration_line = (
            f"migration: rebuilding -> {snapshot.target} "
            f"{snapshot.progress:.0%} ({snapshot.entries_copied} copied, "
            f"{snapshot.journal_replayed} replayed)"
        )
    elif snapshot.migration == "swapped":
        migration_line = (
            f"migration: swapped x{snapshot.swaps} "
            f"(last at {snapshot.last_swap_at:.3f}s)"
        )
    else:
        migration_line = "migration: idle"
    return (
        _lookups_line(snapshot.lookup_hits, snapshot.lookup_misses),
        _masks_line(stats.masks_inspected_total, stats.packets, snapshot.n_masks),
        f"probes: scans:{snapshot.scans} spent:{snapshot.probes_total} "
        f"scan cost:{snapshot.scan_cost:.1f} unit:{snapshot.unit_cost:.2f}",
        # Upcall pressure: the slow path is the paper's actual DoS
        # mechanism, so operators watch it next to the probe currency.
        f"slow path: upcalls:{stats.upcalls} installs:{stats.installs} "
        f"rejected:{stats.install_rejected} dead:{stats.dead_entry_suppressed}",
        f"backend: {snapshot.backend} masks:{snapshot.n_masks} "
        f"scan cost:{snapshot.scan_cost:.1f}",
        migration_line,
    )


def _rebalance_line(datapath: ShardedDatapath) -> str:
    """The datapath-level ``rebalance:`` line (RSS re-map state).

    Unlike ``backend:``/``migration:``, which are per-shard, a re-map is a
    whole-datapath event — the dispatcher is shared — so the line renders
    once in the summary block: how many re-maps have run, when the last
    one was, how many entries moved homes in total and the dispatcher's
    current salt (``salt:0x0`` is the un-re-keyed natural placement).
    """
    salt = getattr(datapath.rss, "salt", 0)
    if datapath.remaps:
        return (
            f"rebalance: remaps:{datapath.remaps} "
            f"(last at {datapath.last_remap_at:.3f}s) "
            f"moved:{datapath.entries_moved} salt:{salt:#x}"
        )
    return f"rebalance: idle salt:{salt:#x}"


def show(datapath: AnyDatapath) -> str:
    """The ``ovs-dpctl show`` summary (the Alg. 2 line-2 data source).

    Rendered from one :class:`ShardSnapshot` per shard, fetched in one
    message per worker.  For a sharded datapath the summary block reports
    aggregates (the ``masks: … total:`` is the distinct-mask union, the
    attack's figure of merit) followed by one ``pmd`` line per shard, so a
    queue-concentrated explosion is visible core by core.
    """
    if datapath.n_shards == 1:
        snapshot = datapath.shards[0].snapshot()
        lookups_line, *rest = _shard_lines(snapshot)
        lines = [
            "datapath@repro:",
            f"  {lookups_line}",
            f"  flows: {snapshot.n_megaflows}",
            *(f"  {line}" for line in rest),
            f"  cache usage: {snapshot.memory_bytes / 1e6:.2f} MB",
        ]
        if snapshot.microflow_capacity:
            lines.append(
                f"  microflows: {snapshot.microflows}/{snapshot.microflow_capacity} "
                f"(hit rate {snapshot.microflow_hit_rate:.0%})"
            )
        return "\n".join(lines)

    snapshots = datapath.executor.call_all("snapshot")
    kernels = "+".join(sorted({snapshot.scan_kernel for snapshot in snapshots}))
    lines = [
        "datapath@repro:",
        "  " + _lookups_line(
            sum(snapshot.lookup_hits for snapshot in snapshots),
            sum(snapshot.lookup_misses for snapshot in snapshots),
        ),
        f"  flows: {sum(snapshot.n_megaflows for snapshot in snapshots)}",
        "  " + _masks_line(
            sum(snapshot.stats.masks_inspected_total for snapshot in snapshots),
            sum(snapshot.stats.packets for snapshot in snapshots),
            datapath.n_masks,
        ),
        f"  mask tables: {sum(snapshot.n_masks for snapshot in snapshots)} "
        f"across {datapath.n_shards} pmds",
        f"  pmd executor: {datapath.executor_name}, kernel={kernels}",
        f"  scan cost: {max(snapshot.scan_cost for snapshot in snapshots):.1f} "
        "probe units (worst pmd)",
        f"  cache usage: {sum(snapshot.memory_bytes for snapshot in snapshots) / 1e6:.2f} MB",
        f"  {_rebalance_line(datapath)}",
    ]
    for shard_id, snapshot in enumerate(snapshots):
        lookups_line, *rest = _shard_lines(snapshot)
        lines.append(
            f"  pmd queue {shard_id}: flows: {snapshot.n_megaflows}; "
            + "; ".join([lookups_line, *rest])
        )
    return "\n".join(lines)


def mask_histogram(datapath: AnyDatapath) -> dict[int, int]:
    """Mask-table count by number of wildcarded bits (the TSE staircase).

    Aggregated across shards: a mask installed in k shards contributes k
    tables (each shard scans its own copy).
    """
    histogram: Counter[int] = Counter()
    for shard in datapath.shards:
        for mask in shard.megaflows.masks():
            histogram[mask.wildcarded_bits()] += 1
    return dict(sorted(histogram.items()))
