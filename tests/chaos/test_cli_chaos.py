"""The `repro.bench.cli chaos` subcommand: exit codes and output."""

import pytest

from repro.bench.cli import main


class TestChaosCommand:
    def test_clean_window_exits_zero(self, capsys):
        assert main(["chaos", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 scenario(s), 4 clean, 0 violation(s)" in out

    def test_seed_range_spec(self, capsys):
        assert main(["chaos", "--seeds", "2-4"]) == 0
        assert "3 scenario(s)" in capsys.readouterr().out

    def test_bad_seed_spec_is_a_usage_error(self, capsys):
        assert main(["chaos", "--seeds", "many"]) == 2
        assert "bad --seeds" in capsys.readouterr().err

    def test_intensity_is_forwarded(self, capsys):
        assert main(["chaos", "--seeds", "2", "--intensity", "1"]) == 0
        assert "2 clean" in capsys.readouterr().out

    def test_violations_exit_nonzero_with_report(self, capsys, monkeypatch):
        from repro.core.engine import NmadEngine
        from repro.core.packets import Message

        orig = NmadEngine._account_delivery
        monkeypatch.setattr(
            Message, "register_delivery", lambda self, key: True
        )

        def buggy(self, *delivery):
            orig(self, *delivery)
            orig(self, *delivery)

        monkeypatch.setattr(NmadEngine, "_account_delivery", buggy)
        assert main(["chaos", "--seeds", "7-7", "--shrink"]) == 1
        out = capsys.readouterr().out
        assert "1 violation(s)" in out
        assert "chunk-exactly-once" in out
        assert "chaos seed: 7" in out
        assert "shrunk to 0 episode(s)" in out
