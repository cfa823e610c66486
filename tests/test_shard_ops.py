"""The shard-op table: one row per capability, one message, one fan-out.

What ``tests/test_executor.py`` cannot see because it only compares
outcomes: that the stringly-typed table names real members of the declared
kind, that adding a row is all it takes to reach every shard under every
executor, that a name outside the table never reaches a pipe, that the
``by_value`` column — and nothing else — decides which arguments a worker
resolves, that an aggregate costs one message per *worker*, and that every
row has a sender in the program: a member only ever called on a local
object needs no row.
"""

from __future__ import annotations

import pickle
import re
from pathlib import Path

import pytest
from test_executor import build, small_table, staircase_replay

from repro.classifier.backend import MegaflowStore, megaflow_backend_names
from repro.exceptions import SwitchError
from repro.packet.fields import FlowKey
from repro.switch.datapath import Datapath, DatapathConfig
from repro.switch.dpctl import dump_flows, show
from repro.switch.executor import _FOLDS, SHARD_OPS, ShardOp, _apply_op

EXECUTORS = ("serial", "thread", "process")

REPO = Path(__file__).resolve().parent.parent
# Where a row may be sent from: the program, minus the module the table lives in.
SENDER_ROOTS = ("src", "examples", "benchmarks/perf")
EXECUTOR_MODULE = REPO / "src" / "repro" / "switch" / "executor.py"
# A shard as the program reaches it: a ``for shard in ...shards`` variable or an index.
SHARD = r"(?:\bshard|shards\[[^\]]*\])"


def sent_rows(source: str) -> set[str]:
    """The table keys one file sends: ``call_all("key")`` strings, shard
    attributes, and attributes of a shard's store (or a local alias of it,
    such as ``cache = shard.megaflows``)."""
    aliases = re.findall(rf"\b(\w+) = {SHARD}\.megaflows\b", source)
    store = "|".join([rf"{SHARD}\.megaflows", *(rf"\b{alias}" for alias in aliases)])
    sent = set(re.findall(r"call_all\(\s*[\"']([\w.]+)[\"']", source))
    sent.update(re.findall(rf"{SHARD}\.(\w+)", source))
    sent.update(f"megaflows.{name}" for name in re.findall(rf"(?:{store})\.(\w+)", source))
    return sent


def warm_keys(n: int = 48) -> list[FlowKey]:
    return [FlowKey(ip_src=i, tp_dst=80, ip_proto=6) for i in range(n)]


def count_sends(monkeypatch, executor) -> list[tuple]:
    """Record every parent -> worker message of a process executor."""
    sent: list[tuple] = []
    real_send = executor._send

    def counting_send(wid, op):
        sent.append(op)
        real_send(wid, op)

    monkeypatch.setattr(executor, "_send", counting_send)
    return sent


class TestTable:
    @pytest.mark.parametrize("backend", megaflow_backend_names())
    def test_every_row_names_a_real_member_of_its_declared_kind(self, backend):
        datapath = Datapath(small_table(), DatapathConfig(megaflow_backend=backend))
        assert isinstance(datapath.megaflows, MegaflowStore)
        for key, op in SHARD_OPS.items():
            assert key == op.key, key
            assert op.target in ("shard", "backend"), key
            assert op.kind in ("get", "call"), key
            assert op.fold in _FOLDS, key
            target = datapath if op.target == "shard" else datapath.megaflows
            member = getattr(target, op.name)  # AttributeError: the row rotted
            assert callable(member) == (op.kind == "call"), key

    def test_by_value_column_is_exactly_the_single_entry_operations(self):
        assert {key for key, op in SHARD_OPS.items() if op.by_value} == {
            "kill_entries",
            "reinject",
            "megaflows.find_entry",
        }

    def test_every_row_has_a_sender(self):
        sent = set()
        for root in SENDER_ROOTS:
            for path in sorted((REPO / root).rglob("*.py")):
                if path != EXECUTOR_MODULE:
                    sent |= sent_rows(path.read_text())
        assert sorted(set(SHARD_OPS) - sent) == []

    def test_only_by_value_rows_resolve_and_only_their_leading_entry(self, monkeypatch):
        datapath = Datapath(small_table(), DatapathConfig(microflow_capacity=0))
        datapath.process(FlowKey(ip_src=3, tp_dst=80, ip_proto=6))
        installed = next(iter(datapath.megaflows.entries()))
        copy = pickle.loads(pickle.dumps(installed))
        assert copy is not installed
        seen = {}
        for name in ("kill_entries", "reinject", "rebalance_install"):
            monkeypatch.setattr(
                Datapath, name, lambda self, *args, _name=name, **kw: seen.__setitem__(_name, args)
            )
        monkeypatch.setattr(
            type(datapath.megaflows), "find_entry", lambda self, *args: seen.__setitem__("find_entry", args)
        )
        for key in ("kill_entries", "reinject", "megaflows.find_entry"):
            op = SHARD_OPS[key]
            _apply_op(datapath, op, (copy,), {}, remote=True)
            assert seen[op.name][0] is installed, key
            _apply_op(datapath, op, (copy,), {})  # in-process callers hold the real objects
            assert seen[op.name][0] is copy, key
        # A leading list of copies is resolved copy by copy.
        _apply_op(datapath, SHARD_OPS["kill_entries"], ((copy, copy),), {}, remote=True)
        assert [entry is installed for entry in seen["kill_entries"][0]] == [True, True]
        # Entry *lists* are state in flight, adopted as they arrive.
        _apply_op(datapath, SHARD_OPS["rebalance_install"], ([copy], []), {}, remote=True)
        assert seen["rebalance_install"][0][0] is copy

    def test_single_entries_are_value_addressed_through_a_worker(self):
        table, keys = staircase_replay(extra=0)
        with build("process", table, n_shards=2) as datapath:
            datapath.process_batch(keys)
            shard = datapath.shards[0]
            copy = next(iter(shard.megaflows.entries()))
            before = shard.n_megaflows
            assert before > 2
            assert shard.megaflows.find_entry(copy)
            assert shard.kill_entries([copy]) == 1
            assert not shard.megaflows.find_entry(copy)
            assert shard.n_megaflows == before - 1
            # A copy of an installed entry handed over in a list is adopted
            # as a new object: the installed one is refreshed, none stored.
            other = next(iter(shard.megaflows.entries()))
            assert shard.rebalance_install([other], []) == 0
            assert shard.n_megaflows == before - 1

    def test_entry_lists_are_value_addressed_through_a_worker(self):
        """One ``kill_entries`` message carries a list of copies: the worker
        removes the installed ones and dead-marks every one, the copy of an
        entry it no longer holds included (it is marked, not removed)."""
        table, keys = staircase_replay(extra=0)
        with build("process", table, n_shards=2) as datapath:
            batch = datapath.process_batch(keys)
            shard = datapath.shards[0]
            spawned = [
                (key, verdict.installed)
                for key, verdict, shard_id in zip(keys, batch.verdicts, batch.shard_ids)
                if shard_id == 0 and verdict.installed is not None
            ][:4]
            *held, (absent_key, absent) = spawned
            assert shard.kill_entries([absent], permanent=False) == 1  # gone, not dead
            before = shard.n_megaflows
            assert shard.kill_entries([*(entry for _, entry in held), absent]) == len(held)
            assert shard.n_megaflows == before - len(held)
            assert not any(shard.megaflows.find_entry(entry) for _, entry in held)
            for key, _ in [*held, (absent_key, absent)]:
                verdict = datapath.process(key)
                assert verdict.installed is None, key  # dead: never re-sparks
            assert shard.n_megaflows == before - len(held)


class TestOneRowAddsACapability:
    def test_toy_op_answers_alike_through_handles_and_call_all(self, monkeypatch):
        monkeypatch.setattr(
            Datapath, "toy", lambda self, bump=0: self.n_megaflows + bump, raising=False
        )
        monkeypatch.setitem(SHARD_OPS, "toy", ShardOp("toy", fold="sum"))
        answers = {}
        for executor in EXECUTORS:
            with build(executor, small_table(), n_shards=2) as datapath:
                datapath.process_batch(warm_keys())
                per_shard = [shard.toy(bump=1) for shard in datapath.shards]
                assert per_shard == [shard.n_megaflows + 1 for shard in datapath.shards]
                assert datapath.executor.call_all("toy", bump=1) == sum(per_shard)
                answers[executor] = per_shard
        assert answers["thread"] == answers["process"] == answers["serial"]
        assert sum(answers["serial"]) > 2


class TestRefusal:
    def test_unknown_names_fail_in_the_parent_and_send_nothing(self, monkeypatch):
        with build("process", small_table(), n_shards=2) as datapath:
            datapath.process_batch(warm_keys())
            shard = datapath.shards[0]
            copy = next(iter(shard.megaflows.entries()))
            sent = count_sends(monkeypatch, datapath.executor)
            with pytest.raises(SwitchError, match="'megaflows.remove_entries' is not a shard operation"):
                shard.megaflows.remove_entries([copy])
            with pytest.raises(SwitchError, match="'process_batch'"):  # batches are run_batch messages
                shard.process_batch(warm_keys())
            with pytest.raises(SwitchError, match="'warp'"):
                shard.warp
            with pytest.raises(SwitchError, match="'megaflows.warp'"):
                datapath.executor.call_all("megaflows.warp")
            assert not hasattr(shard, "warp")
            assert getattr(shard.megaflows, "n_groups", None) is None
            assert sent == []
            assert datapath.n_megaflows > 0  # the workers never noticed

    def test_worker_checks_again_and_keeps_serving(self):
        with build("process", small_table(), n_shards=2) as datapath:
            datapath.process_batch(warm_keys())
            with pytest.raises(SwitchError, match="pmd worker 0 failed op 'warp'") as excinfo:
                datapath.executor._request(0, ("op", 0, "warp", (), {}))
            assert "not a shard operation" in str(excinfo.value)
            assert datapath.n_megaflows > 0

    @pytest.mark.parametrize("executor", ("serial", "thread"))
    def test_in_process_fan_out_refuses_before_touching_a_shard(self, executor):
        with build(executor, small_table(), n_shards=2) as datapath:
            datapath.process_batch(warm_keys())
            entry = next(datapath.entries())
            with pytest.raises(SwitchError, match="'megaflows.remove_entries'"):
                datapath.executor.call_all("megaflows.remove_entries", [entry])
            assert sorted(datapath.executor.call_all("megaflows.find_entry", entry)) == [False, True]


class TestOneMessagePerWorker:
    def test_aggregates_send_one_message_per_worker_and_match_serial(self, monkeypatch):
        table, keys = staircase_replay(extra=0)
        reference = build("serial", table, n_shards=2)
        reference.process_batch(keys, now=1.0)
        with build("process", table, n_shards=2, workers=2) as datapath:
            datapath.process_batch(keys, now=1.0)
            sent = count_sends(monkeypatch, datapath.executor)
            for read in (
                lambda d: d.stats,
                lambda d: d.n_megaflows,
                lambda d: d.n_mask_tables,
                lambda d: d.scan_cost,
                lambda d: d.now,
                lambda d: d.core_report(),
            ):
                del sent[:]
                value = read(datapath)
                assert [op[:2] for op in sent] == [("op", None)] * 2, sent
                assert value == read(reference)
            assert datapath.stats.packets == len(keys)


class TestDpctlAcrossExecutors:
    def test_show_and_dump_flows_are_byte_identical(self):
        table, keys = staircase_replay(extra=0)
        rendered = {}
        for executor in EXECUTORS:
            with build(executor, table, n_shards=2) as datapath:
                datapath.process_batch(keys, now=1.0)
                lines = show(datapath).splitlines()
                assert sum("pmd executor:" in line for line in lines) == 1
                rendered[executor] = (
                    [line for line in lines if "pmd executor:" not in line],
                    dump_flows(datapath),
                )
        assert rendered["thread"] == rendered["process"] == rendered["serial"]
