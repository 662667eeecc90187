"""Tests for ``repro campaign ...`` and ``repro --version``."""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import main
from repro.version import __version__

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        from repro.native import active_tier

        assert out.strip() == f"repro {__version__} (tier: {active_tier()})"

    def test_version_resolves_to_pyproject(self):
        import re

        text = (REPO_ROOT / "pyproject.toml").read_text()
        expected = re.search(
            r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE
        ).group(1)
        assert __version__ == expected


class TestCampaignCli:
    def test_list(self, capsys, cache_dir):
        assert main(["campaign", "list", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "fig2_example" in out
        assert "summary_6_4" in out
        assert "shards cached" in out

    def test_run_writes_byte_identical_artifact(
        self, capsys, cache_dir, tmp_path
    ):
        results = tmp_path / "results"
        rc = main(
            [
                "campaign",
                "run",
                "fig2_example",
                "--cache-dir",
                cache_dir,
                "--results-dir",
                str(results),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "computed 1" in out
        written = (results / "fig2_example.txt").read_text()
        committed = (REPO_ROOT / "results" / "fig2_example.txt").read_text()
        assert written == committed

    def test_run_then_check_ok_and_diff(self, capsys, cache_dir, tmp_path):
        results = tmp_path / "results"
        argv_tail = ["--cache-dir", cache_dir, "--results-dir", str(results)]
        assert main(["campaign", "run", "fig2_example"] + argv_tail) == 0
        assert main(["campaign", "check", "fig2_example"] + argv_tail) == 0
        out = capsys.readouterr().out
        assert "1/1 artifacts byte-identical" in out
        (results / "fig2_example.txt").write_text("drifted\n")
        assert main(["campaign", "check", "fig2_example"] + argv_tail) == 1
        out = capsys.readouterr().out
        assert "DIFF" in out and "first diff" in out

    def test_check_served_from_cache_second_time(self, capsys, cache_dir):
        # against the real committed results/
        argv = [
            "campaign",
            "check",
            "fig2_example",
            "--cache-dir",
            cache_dir,
            "--results-dir",
            str(REPO_ROOT / "results"),
        ]
        assert main(argv) == 0
        assert "computed 1" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cached 1, computed 0" in capsys.readouterr().out

    def test_trials_override_does_not_write_artifact(
        self, capsys, cache_dir, tmp_path
    ):
        results = tmp_path / "results"
        rc = main(
            [
                "campaign",
                "run",
                "theorem1_ratio",
                "--trials",
                "3",
                "--cache-dir",
                cache_dir,
                "--results-dir",
                str(results),
            ]
        )
        # theory table has no trials field: override is an announced
        # no-op, artifact is written normally
        assert rc == 0
        assert "--trials 3 ignored" in capsys.readouterr().out
        assert (results / "theorem1_ratio.txt").exists()

    def test_trials_override_on_monte_carlo_family_skips_artifact(
        self, capsys, cache_dir, tmp_path
    ):
        results = tmp_path / "results"
        rc = main(
            [
                "campaign",
                "run",
                "optimality_gap",
                "--trials",
                "2",
                "--cache-dir",
                cache_dir,
                "--results-dir",
                str(results),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "artifact optimality_gap.txt not written" in out
        assert "2 instances" in out  # the reduced-budget table was printed
        assert not (results / "optimality_gap.txt").exists()

    def test_duplicate_names_run_once(self, capsys, cache_dir, tmp_path):
        results = tmp_path / "results"
        rc = main(
            [
                "campaign",
                "run",
                "fig2_example",
                "fig2_example",
                "--cache-dir",
                cache_dir,
                "--results-dir",
                str(results),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("[fig2_example]") == 1

    def test_clean_fast_subset(self, capsys, cache_dir, tmp_path):
        results = tmp_path / "results"
        main(
            [
                "campaign",
                "run",
                "fig2_example",
                "--cache-dir",
                cache_dir,
                "--results-dir",
                str(results),
            ]
        )
        rc = main(["campaign", "clean", "--fast", "--cache-dir", cache_dir])
        assert rc == 0
        assert "removed 1 cache entries" in capsys.readouterr().out

    def test_clean(self, capsys, cache_dir, tmp_path):
        results = tmp_path / "results"
        main(
            [
                "campaign",
                "run",
                "fig2_example",
                "--cache-dir",
                cache_dir,
                "--results-dir",
                str(results),
            ]
        )
        assert (
            main(["campaign", "clean", "fig2_example", "--cache-dir", cache_dir])
            == 0
        )
        out = capsys.readouterr().out
        assert "removed 1 cache entries" in out
        assert not (pathlib.Path(cache_dir) / "fig2_example").exists()

    def test_unknown_experiment_exits_2(self, capsys, cache_dir):
        rc = main(["campaign", "run", "no-such-thing", "--cache-dir", cache_dir])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no-such-thing" in err

    def test_run_without_names_exits_2(self, capsys, cache_dir):
        rc = main(["campaign", "run", "--cache-dir", cache_dir])
        assert rc == 2
        assert "name at least one experiment" in capsys.readouterr().err

    def test_name_selection_logic(self):
        import argparse

        from repro.cli.campaign import _select_names
        from repro.experiments.campaign import FAST_SUBSET, available_experiments
        from repro.utils.validation import ReproError

        def args(names=(), fast=False, all_=False):
            return argparse.Namespace(
                names=list(names), fast=fast, all=all_
            )

        # --fast selects the CI subset; extra names union in, deduped
        assert _select_names(args(fast=True), default_all=False) == list(
            FAST_SUBSET
        )
        assert _select_names(
            args(names=["fig2_example", "theorem1_ratio", "theorem1_ratio"]),
            default_all=False,
        ) == ["fig2_example", "theorem1_ratio"]
        assert _select_names(
            args(names=["fig2_example"], fast=True), default_all=False
        ) == list(FAST_SUBSET)  # fig2_example already in the subset
        # check defaults to all; run refuses to guess
        assert (
            _select_names(args(), default_all=True) == available_experiments()
        )
        with pytest.raises(ReproError):
            _select_names(args(), default_all=False)
        with pytest.raises(ReproError):
            _select_names(args(names=["nope"]), default_all=False)
