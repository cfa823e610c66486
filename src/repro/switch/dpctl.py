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

All three accept a sharded multi-PMD datapath too: ``show`` reports the
execution strategy and scan kernel (``pmd executor: serial, kernel=numpy``
or ``process[4 workers]/shm, kernel=cffi`` — worker-owned shards render
through the same remote handles the management plane drives, and the transport
suffix distinguishes the shared-memory data plane from the pickled-pipe
one) and appends one ``pmd`` line per shard (mask
count, megaflow count, hit statistics — the operator-triage view that
reveals a queue-concentrated explosion),
``dump_flows`` prefixes each shard's flows with its queue header, and
``mask_histogram`` aggregates the staircase across shards.  Single-shard
output is unchanged.
"""

from __future__ import annotations

from collections import Counter

from repro.classifier.backend import MegaflowEntry
from repro.packet.addresses import ipv4_str, ipv6_str
from repro.packet.fields import FIELD_ORDER, FIELDS
from repro.switch.sharded import AnyDatapath

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


def _shard_summary(shard) -> tuple[str, str, str, str, str, str]:
    """The ``lookups``/``masks``/``probes``/``slow path``/``backend``/
    ``migration`` lines of one (shard) datapath."""
    stats = shard.stats
    cache = shard.megaflows
    lookups = cache.stats_hits + cache.stats_misses
    snapshot = cache.probe_cost_snapshot()
    return (
        f"lookups: hit:{cache.stats_hits} missed:{cache.stats_misses} total:{lookups}",
        f"masks: hit:{stats.masks_inspected_total} total:{shard.n_masks} "
        f"hit/pkt:{stats.masks_inspected_total / max(stats.packets, 1):.2f}",
        f"probes: scans:{snapshot.scans} spent:{snapshot.probes_total} "
        f"scan cost:{snapshot.scan_cost:.1f} unit:{snapshot.unit_cost:.2f}",
        # Upcall pressure: the slow path is the paper's actual DoS
        # mechanism, so operators watch it next to the probe currency.
        f"slow path: upcalls:{stats.upcalls} installs:{stats.installs} "
        f"rejected:{stats.install_rejected} dead:{stats.dead_entry_suppressed}",
        *_migration_lines(shard.migration_status()),
    )


def _migration_lines(status: dict) -> tuple[str, str]:
    """The ``backend:`` and ``migration:`` lines from one status record.

    What an operator watches during a live migration: which backend kind
    currently serves the shard (and what one full scan of it costs), then
    the migration state — ``rebuilding`` with progress and target while a
    rebuild is in flight, ``swapped`` with the swap count and timestamp
    after, ``idle`` otherwise.
    """
    backend_line = (
        f"backend: {status['backend']} masks:{status['n_masks']} "
        f"scan cost:{status['scan_cost']:.1f}"
    )
    if status["status"] == "rebuilding":
        migration_line = (
            f"migration: rebuilding -> {status['target']} "
            f"{status['progress']:.0%} ({status['entries_copied']} copied, "
            f"{status['journal_replayed']} replayed)"
        )
    elif status["status"] == "swapped":
        migration_line = (
            f"migration: swapped x{status['swaps']} "
            f"(last at {status['last_swap_at']:.3f}s)"
        )
    else:
        migration_line = "migration: idle"
    return backend_line, migration_line


def _rebalance_line(status: dict) -> str:
    """The datapath-level ``rebalance:`` line (RSS re-map state).

    Unlike ``backend:``/``migration:``, which are per-shard, a re-map is a
    whole-datapath event — the dispatcher is shared — so the line renders
    once in the summary block: how many re-maps have run, when the last
    one was, how many entries moved homes in total and the dispatcher's
    current salt (``salt:0x0`` is the un-re-keyed natural placement).
    """
    if status["remaps"]:
        return (
            f"rebalance: remaps:{status['remaps']} "
            f"(last at {status['last_remap_at']:.3f}s) "
            f"moved:{status['entries_moved']} salt:{status['salt']:#x}"
        )
    return f"rebalance: idle salt:{status['salt']:#x}"


def _kernel_names(datapath: AnyDatapath) -> str:
    """The distinct scan-kernel names across shards (usually one).

    Every backend declares ``scan_kernel_name`` (``none`` for those that
    scan without a pluggable kernel); the worker-owned shards of the
    process executor answer through the same remote handle as the rest of
    the management plane.
    """
    names = sorted({shard.megaflows.scan_kernel_name for shard in datapath.shards})
    return "+".join(names)


def show(datapath: AnyDatapath) -> str:
    """The ``ovs-dpctl show`` summary (the Alg. 2 line-2 data source).

    For a sharded datapath the summary block reports aggregates (the
    ``masks: … total:`` is the distinct-mask union, the attack's figure of
    merit) followed by one ``pmd`` line per shard, so a queue-concentrated
    explosion is visible core by core.
    """
    sharded = datapath.n_shards > 1
    if sharded:
        stats = datapath.stats
        lookup_hits = datapath.executor.call_all("megaflows.stats_hits")
        lookup_misses = datapath.executor.call_all("megaflows.stats_misses")
        memory = datapath.executor.call_all("megaflows.memory_bytes")
        lines = [
            "datapath@repro:",
            f"  lookups: hit:{lookup_hits} missed:{lookup_misses} "
            f"total:{lookup_hits + lookup_misses}",
            f"  flows: {datapath.n_megaflows}",
            f"  masks: hit:{stats.masks_inspected_total} total:{datapath.n_masks} "
            f"hit/pkt:{stats.masks_inspected_total / max(stats.packets, 1):.2f}",
            f"  mask tables: {datapath.n_mask_tables} across {datapath.n_shards} pmds",
            f"  pmd executor: {datapath.executor_name}, kernel={_kernel_names(datapath)}",
            f"  scan cost: {datapath.scan_cost:.1f} probe units (worst pmd)",
            f"  cache usage: {memory / 1e6:.2f} MB",
            f"  {_rebalance_line(datapath.rebalance_status())}",
        ]
        for shard_id, shard in enumerate(datapath.shards):
            (
                lookups_line,
                masks_line,
                probes_line,
                slow_line,
                backend_line,
                migration_line,
            ) = _shard_summary(shard)
            lines.append(
                f"  pmd queue {shard_id}: flows: {shard.n_megaflows}; "
                f"{lookups_line}; {masks_line}; {probes_line}; {slow_line}; "
                f"{backend_line}; {migration_line}"
            )
        return "\n".join(lines)

    shard = datapath.shards[0]
    lookups_line, masks_line, probes_line, slow_line, backend_line, migration_line = (
        _shard_summary(shard)
    )
    lines = [
        "datapath@repro:",
        f"  {lookups_line}",
        f"  flows: {shard.n_megaflows}",
        f"  {masks_line}",
        f"  {probes_line}",
        f"  {slow_line}",
        f"  {backend_line}",
        f"  {migration_line}",
        f"  cache usage: {shard.megaflows.memory_bytes() / 1e6:.2f} MB",
    ]
    if shard.microflows is not None:
        lines.append(
            f"  microflows: {len(shard.microflows)}/{shard.microflows.capacity} "
            f"(hit rate {shard.microflows.hit_rate:.0%})"
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
