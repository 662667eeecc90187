#!/usr/bin/env python3
"""Regenerate the paper's Figures 7–9 series and the §6.4 summary.

Runs the Monte-Carlo harness for every figure panel and prints the two
series the paper plots per panel — normalised power inverse and failure
ratio — one text table each, plus the Section 6.4 summary statistics.

Trials per point default to the harness default (override with the first
CLI argument; the summary samples ten times as many; the paper used
50 000).  Full run takes minutes at the default; pass a small trial count
for a quick look:

    python examples/paper_figures.py 20        # 20 trials/point
    python examples/paper_figures.py 20 fig7a  # one panel only
"""

import sys

from repro.experiments import (
    fig7a,
    fig7b,
    fig7c,
    fig8a,
    fig8b,
    fig8c,
    fig9a,
    fig9b,
    fig9c,
    summary_statistics,
    sweep_to_text,
)
from repro.experiments.config import DEFAULT_TRIALS

PANELS = {
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig7c": fig7c,
    "fig8a": fig8a,
    "fig8b": fig8b,
    "fig8c": fig8c,
    "fig9a": fig9a,
    "fig9b": fig9b,
    "fig9c": fig9c,
}


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_TRIALS
    wanted = sys.argv[2:] or list(PANELS)
    for name in wanted:
        if name == "summary":
            continue
        if name not in PANELS:
            raise SystemExit(
                f"unknown panel {name!r}; choose from {sorted(PANELS)} or 'summary'"
            )
        print(f"\n##### {name} #####")
        print(sweep_to_text(PANELS[name](trials=trials)))

    if not sys.argv[2:] or "summary" in sys.argv[2:]:
        print("\n##### Section 6.4 summary #####")
        s = summary_statistics(trials=10 * trials)
        print(f"trials: {s.trials}")
        print("success ratios (paper: XY 15%, XYI 46%, PR 50%, BEST 51%):")
        for k, v in s.success_ratio.items():
            print(f"  {k:>5s}: {v:.2f}")
        print(
            "power-inverse vs XY "
            "(paper: XYI 2.44x, PR 2.57x, BEST 2.95x):"
        )
        for k, v in s.inverse_vs_xy.items():
            print(f"  {k:>5s}: {v:.2f}x")
        print(
            f"static power fraction (paper: ~1/7 = 0.143): "
            f"{s.static_fraction:.3f}"
        )
        print("mean runtimes (paper on 2011 hardware: XYI 24 ms, PR 38 ms):")
        for k, v in s.mean_runtime_s.items():
            print(f"  {k:>5s}: {v * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
