"""Diff two ``BENCH_*.json`` baselines and print speedup ratios.

Usage::

    python benchmarks/compare_bench.py BENCH_A.json BENCH_B.json
    python benchmarks/compare_bench.py BENCH_2.json        # self-diff

With two files, A is the *before* side and B the *after* side; their
suites must match.  With one file, the embedded ``before_median_ms``
section (recorded with ``record_baseline.py --before``, or automatically
by the N-SPEED ``noc`` suite) is diffed against the file's own
``median_ms``.  N-SPEED rows are per-point: the keys are offered-load
fractions rather than heuristic names, the before side is the reference
simulator and the after side the array engine.

E-SAT files embed a throughput table instead of a before side: one
saturated-RPS row per serving configuration with the in-run speedup
over the unbatched single front.  One file prints that table (the
latency percentiles stay in ``median_ms``); two files additionally
diff saturated RPS per configuration.

Files recorded on a machine with the native C tier built carry a third
column, ``native_median_ms`` (the same rows timed under
``REPRO_NATIVE=1``); when present it is printed as an extra
python-vs-native table after the main diff.

Exit status is 0 unless the inputs are unusable — the tool reports, it
does not gate.  A file recording a suite this tool does not know (a
typo, or a newer recorder) exits 2 instead of silently diffing it under
generic labels.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: every suite record_baseline.py can emit
KNOWN_SUITES = (
    "heuristic-speed",
    "meta-speed",
    "noc-speed",
    "e-churn",
    "e-soak",
    "e-sat",
)

#: per-suite labels for a file's embedded before/after pair
SUITE_SIDES = {
    "noc-speed": ("reference", "array"),
    "e-churn": ("cold", "warm"),
}


def load(path: pathlib.Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    suite = doc.get("suite")
    if suite not in KNOWN_SUITES:
        print(
            f"{path}: unknown suite {suite!r}; known suites: "
            f"{', '.join(KNOWN_SUITES)}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return doc


def diff(before: dict, after: dict, b_label: str, a_label: str) -> int:
    rows = []
    names = [n for n in before if n in after]
    for name in names:
        b, a = before[name], after[name]
        ratio = b / a if a > 0 else float("inf")
        rows.append((name, b, a, ratio))
    width = max((len(n) for n in names), default=4)
    print(f"{'':{width}}  {b_label:>12}  {a_label:>12}  {'speedup':>8}")
    for name, b, a, ratio in rows:
        print(f"{name:{width}}  {b:10.2f}ms  {a:10.2f}ms  {ratio:7.2f}x")
    only_b = sorted(set(before) - set(after))
    only_a = sorted(set(after) - set(before))
    if only_b:
        print(f"only in {b_label}: {', '.join(only_b)}")
    if only_a:
        print(f"only in {a_label}: {', '.join(only_a)}")
    return 0


def sat_table(doc: dict, name: str) -> None:
    """The embedded E-SAT throughput table of one file."""
    rps = doc.get("saturated_rps", {})
    if not rps:
        return
    speedup = doc.get("speedup_vs_single_unbatched", {})
    width = max(len(n) for n in rps)
    print(f"[{name}: saturated throughput per serving configuration]")
    print(f"{'':{width}}  {'saturated':>12}  {'speedup':>8}")
    for config, value in rps.items():
        ratio = speedup.get(config, float("nan"))
        print(f"{config:{width}}  {value:9.1f}rps  {ratio:7.2f}x")


def sat_diff(doc_b: dict, doc_a: dict, b_name: str, a_name: str) -> None:
    """Saturated-RPS ratios between two E-SAT files (after / before)."""
    before, after = doc_b.get("saturated_rps", {}), doc_a.get(
        "saturated_rps", {}
    )
    names = [n for n in before if n in after]
    if not names:
        return
    width = max(len(n) for n in names)
    print(f"[saturated RPS: {b_name} -> {a_name}]")
    print(f"{'':{width}}  {b_name:>12}  {a_name:>12}  {'speedup':>8}")
    for config in names:
        b, a = before[config], after[config]
        ratio = a / b if b > 0 else float("inf")
        print(f"{config:{width}}  {b:9.1f}rps  {a:9.1f}rps  {ratio:7.2f}x")


def native_table(doc: dict, name: str) -> None:
    """The python-vs-native table of one file, when it records one."""
    if "native_median_ms" not in doc:
        return
    print(f"[{name}: python tier vs native tier (REPRO_NATIVE=1)]")
    diff(doc["median_ms"], doc["native_median_ms"], "python", "native")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=pathlib.Path)
    parser.add_argument("after", type=pathlib.Path, nargs="?", default=None)
    args = parser.parse_args(argv)

    doc_b = load(args.before)
    if args.after is None:
        if "before_median_ms" not in doc_b:
            if doc_b.get("suite") == "e-sat":
                sat_table(doc_b, args.before.name)
                native_table(doc_b, args.before.name)
                return 0
            if "native_median_ms" in doc_b:
                native_table(doc_b, args.before.name)
                return 0
            print(
                f"{args.before} has no embedded before_median_ms or "
                "native_median_ms section; pass a second BENCH file to "
                "compare against",
                file=sys.stderr,
            )
            return 1
        b_label, a_label = SUITE_SIDES.get(
            doc_b.get("suite"), ("before", "after")
        )
        print(f"[{args.before.name}: embedded {b_label} vs {a_label}]")
        rc = diff(
            doc_b["before_median_ms"], doc_b["median_ms"], b_label, a_label
        )
        native_table(doc_b, args.before.name)
        return rc
    doc_a = load(args.after)
    if doc_b.get("suite") != doc_a.get("suite"):
        print(
            f"suite mismatch: {args.before} records "
            f"{doc_b.get('suite')!r}, {args.after} records "
            f"{doc_a.get('suite')!r}",
            file=sys.stderr,
        )
        return 1
    print(f"[{args.before.name} -> {args.after.name}]")
    rc = diff(
        doc_b["median_ms"], doc_a["median_ms"], args.before.stem, args.after.stem
    )
    if doc_a.get("suite") == "e-sat":
        sat_diff(doc_b, doc_a, args.before.stem, args.after.stem)
    native_table(doc_a, args.after.name)
    return rc


if __name__ == "__main__":
    sys.exit(main())
