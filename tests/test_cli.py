"""Tests for the experiments CLI and the exception hierarchy."""

import re
import sys

import pytest

from repro import exceptions
from repro.experiments.__main__ import main


@pytest.fixture
def cli(monkeypatch):
    """``cli(*args)``: run the CLI's ``main`` as ``python -m repro.experiments *args``."""

    def invoke(*args: str) -> int:
        monkeypatch.setattr(sys, "argv", ["repro.experiments", *args])
        return main()

    return invoke


class TestCli:
    def test_list(self, cli, capsys):
        assert cli("--list") == 0
        out = capsys.readouterr().out
        assert "fig8a" in out
        assert "theorem41" in out

    def test_no_args_lists(self, cli, capsys):
        assert cli() == 0
        assert "fig9b" in capsys.readouterr().out

    def test_run_one(self, cli, capsys):
        assert cli("table1") == 0
        out = capsys.readouterr().out
        assert "Kubernetes" in out
        assert re.search(r"^\[table1 finished in \d+\.\d{3}s\]$", out, re.MULTILINE)

    def test_save(self, cli, tmp_path, capsys):
        assert cli("didactic", "--save", str(tmp_path)) == 0
        assert (tmp_path / "didactic.txt").exists()

    def test_unknown_experiment(self, cli, capsys):
        with pytest.raises(SystemExit):
            cli("nonexistent")


class TestExceptionHierarchy:
    def test_single_root(self):
        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not exceptions.ReproError:
                assert issubclass(obj, exceptions.ReproError), name

    def test_domain_subtrees(self):
        assert issubclass(exceptions.FieldError, exceptions.PacketError)
        assert issubclass(exceptions.PcapError, exceptions.PacketError)
        assert issubclass(exceptions.RuleError, exceptions.ClassifierError)
        assert issubclass(exceptions.CacheInvariantError, exceptions.ClassifierError)
        assert issubclass(exceptions.PolicyError, exceptions.SimulationError)

    def test_catch_all_contract(self):
        """Library failures are catchable with one except clause."""
        from repro.packet.addresses import ipv4

        with pytest.raises(exceptions.ReproError):
            ipv4("not-an-address")
