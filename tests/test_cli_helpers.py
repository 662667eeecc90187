"""Tests for the shared CLI validation helpers and their error paths.

The satellite contract: every subcommand reports domain errors through
:mod:`repro.cli.helpers` — exit code 2 and a one-line ``error:`` message,
never a traceback.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.cli.helpers import (
    check_jobs,
    check_min,
    check_seed,
    check_trials,
    parse_fractions,
    parse_mesh,
    parse_model,
)
from repro.utils.validation import ReproError


class TestHelperUnits:
    def test_check_min_message(self):
        with pytest.raises(ReproError, match=r"--cycles must be >= 1, got 0"):
            check_min(0, "--cycles")

    def test_check_min_custom_minimum(self):
        check_min(2, "--foo", minimum=2)
        with pytest.raises(ReproError, match=r"--foo must be >= 2, got 1"):
            check_min(1, "--foo", minimum=2)

    def test_check_jobs(self):
        check_jobs(1)
        with pytest.raises(ReproError, match=r"--jobs must be >= 1, got -3"):
            check_jobs(-3)

    def test_check_trials_allows_none(self):
        check_trials(None)
        check_trials(5)
        with pytest.raises(ReproError, match=r"--trials must be >= 1, got 0"):
            check_trials(0)

    def test_check_seed_allows_none(self):
        check_seed(None)
        check_seed(0)
        check_seed(42)
        with pytest.raises(ReproError, match=r"--seed must be >= 0, got -1"):
            check_seed(-1)

    def test_parse_fractions(self):
        assert parse_fractions("0.2, 0.5,1.0") == [0.2, 0.5, 1.0]

    @pytest.mark.parametrize("text", ["0", "-0.5", "0.2,0,0.8", "inf", "nan"])
    def test_parse_fractions_rejects_nonpositive(self, text):
        with pytest.raises(ReproError, match="positive finite"):
            parse_fractions(text)

    def test_parse_fractions_rejects_garbage(self):
        with pytest.raises(ReproError, match="comma-separated numbers"):
            parse_fractions("0.2,zap")

    def test_parse_fractions_rejects_empty(self):
        with pytest.raises(ReproError, match="at least one fraction"):
            parse_fractions(" , ,")

    def test_parse_mesh(self):
        mesh = parse_mesh("4x6")
        assert (mesh.p, mesh.q) == (4, 6)
        with pytest.raises(ReproError, match="look like '8x8'"):
            parse_mesh("4by6")

    def test_parse_model(self):
        assert parse_model("fig2").p0 == 1.0
        with pytest.raises(ReproError, match="unknown power model"):
            parse_model("orion")


class TestCliErrorPaths:
    """Exit code 2 + message text, through real subcommand invocations."""

    def _expect(self, argv, capsys, *needles):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        for needle in needles:
            assert needle in err
        assert "Traceback" not in err

    def test_figures_bad_jobs(self, capsys):
        self._expect(
            ["figures", "fig7a", "--jobs", "0"],
            capsys,
            "--jobs must be >= 1, got 0",
        )

    def test_figures_bad_trials(self, capsys):
        self._expect(
            ["figures", "fig7a", "--trials", "-2"],
            capsys,
            "--trials must be >= 1, got -2",
        )

    def test_figures_summary_rejects_svg_dir(self, capsys, tmp_path):
        charts = tmp_path / "charts"
        self._expect(
            ["figures", "summary", "--svg-dir", str(charts)],
            capsys,
            "--svg-dir",
        )
        assert not charts.exists()

    def test_scenarios_bad_trials(self, capsys):
        self._expect(
            ["scenarios", "run", "paper-baseline", "--trials", "0"],
            capsys,
            "--trials must be >= 1, got 0",
        )

    def test_scenarios_bad_jobs(self, capsys):
        self._expect(
            ["scenarios", "run", "paper-baseline", "--jobs", "0"],
            capsys,
            "--jobs must be >= 1, got 0",
        )

    def test_noc_sweep_bad_cycles(self, capsys):
        self._expect(
            ["noc", "sweep", "--scenario", "paper-baseline", "--cycles", "0"],
            capsys,
            "--cycles must be >= 1, got 0",
        )

    def test_noc_sweep_bad_fractions(self, capsys):
        self._expect(
            ["noc", "sweep", "r.json", "--fractions", "a,b"],
            capsys,
            "--fractions must be comma-separated numbers",
        )

    def test_noc_sweep_empty_fractions(self, capsys):
        self._expect(
            ["noc", "sweep", "r.json", "--fractions", ","],
            capsys,
            "at least one fraction",
        )

    def test_generate_bad_mesh(self, capsys):
        self._expect(
            ["generate", "--mesh", "8by8"], capsys, "look like '8x8'"
        )

    def test_campaign_bad_jobs(self, capsys):
        self._expect(
            ["campaign", "run", "fig2_example", "--jobs", "0"],
            capsys,
            "--jobs must be >= 1, got 0",
        )

    def test_campaign_bad_trials(self, capsys):
        self._expect(
            ["campaign", "run", "fig2_example", "--trials", "0"],
            capsys,
            "--trials must be >= 1, got 0",
        )

    def test_generate_bad_seed(self, capsys):
        self._expect(
            ["generate", "--seed", "-1"],
            capsys,
            "--seed must be >= 0, got -1",
        )

    def test_scenarios_bad_seed(self, capsys):
        self._expect(
            ["scenarios", "run", "paper-baseline", "--seed", "-7"],
            capsys,
            "--seed must be >= 0, got -7",
        )

    def test_scenarios_unknown_name(self, capsys):
        self._expect(
            ["scenarios", "run", "no-such-scenario"],
            capsys,
            "unknown scenario",
        )

    def test_latency_bad_seed(self, capsys):
        """A saved-routing latency curve checks --seed before any I/O."""
        self._expect(
            ["noc", "sweep", "r.json", "--seed", "-1"],
            capsys,
            "--seed must be >= 0, got -1",
        )

    @pytest.mark.parametrize(
        "flag", ["--cycles", "--buffer-flits", "--packet-flits"]
    )
    def test_simulate_bad_value_before_io(self, flag, capsys):
        """The bad value is reported, not the missing file, and nothing
        is printed before the error."""
        assert main(["simulate", "missing.json", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} must be >= 1, got 0" in captured.err

    def test_noc_sweep_bad_seed(self, capsys):
        self._expect(
            ["noc", "sweep", "--scenario", "paper-baseline", "--seed", "-2"],
            capsys,
            "--seed must be >= 0, got -2",
        )

    def test_noc_sweep_unknown_scenario(self, capsys):
        self._expect(
            ["noc", "sweep", "--scenario", "bogus"],
            capsys,
            "unknown scenario",
        )

    def test_noc_sweep_zero_fraction(self, capsys):
        self._expect(
            ["noc", "sweep", "r.json", "--fractions", "0.5,0"],
            capsys,
            "positive finite",
        )

    def test_apps_bad_seed(self, capsys):
        self._expect(
            ["apps", "--seed", "-4"],
            capsys,
            "--seed must be >= 0, got -4",
        )

    def test_route_remote_bad_polish(self, capsys):
        self._expect(
            ["route", "wl.csv", "--socket", "/tmp/x.sock",
             "--polish", "zap"],
            capsys,
            "unknown polish mode",
        )

    def test_route_remote_bad_seed(self, capsys):
        self._expect(
            ["route", "wl.csv", "--server", "localhost", "--seed", "-1"],
            capsys,
            "--seed must be >= 0, got -1",
        )

    def test_route_remote_bad_server(self, capsys):
        self._expect(
            ["route", "wl.csv", "--server", "host:notaport"],
            capsys,
            "HOST or HOST:PORT",
        )

    def test_serve_bad_jobs(self, capsys):
        self._expect(
            ["serve", "--jobs", "0"],
            capsys,
            "--jobs must be >= 1, got 0",
        )

    def test_serve_bad_port(self, capsys):
        self._expect(
            ["serve", "--port", "70000"],
            capsys,
            "--port must lie in [0, 65535] (0 picks an ephemeral port), "
            "got 70000",
        )

    def test_serve_bad_shards(self, capsys):
        self._expect(
            ["serve", "--shards", "0"],
            capsys,
            "--shards must be >= 1, got 0",
        )
