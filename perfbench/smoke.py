"""Smoke test of the benchmark itself (about half a minute).

    python3 perfbench/smoke.py

Shows, against a live ``repro serve``, that

1. the output checker passes intact response bodies and catches a
   corrupted one, on both the cache-hit and the distinct-seed path;
2. a refused request (HTTP 400) and a transport failure each count as
   failed attempts, so they show in ``failed_frac``;
3. a short ``run.py`` run prints a result line of the agreed shape;
4. without the program's sources, ``run.py`` exits non-zero and prints
   no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import OUT, ROOT, nproc, prepare_source  # noqa: E402


def corrupt(sample):
    """The same response with one count in its body changed."""
    body = json.loads(sample.body)
    body["stats"]["rerouted"] += 1
    return dataclasses.replace(sample, body=json.dumps(body).encode())


def check_outputs(env) -> None:
    from loadgen import Sample
    from serve_docs import Server
    from wl_serve import (CHURN, REPEAT, Checker, Traffic,
                          _send_sequential, tally)

    repeat = Traffic(REPEAT, seed=0)
    churn = Traffic(CHURN, seed=1)
    hit_check = Checker(repeat, "smoke-hit")
    miss_check = Checker(churn, "smoke-miss")
    docs = repeat.pool[:4]
    fresh = [churn.doc(i) for i in range(3)]
    refused_doc = {"problem": {"format": "not-a-problem"}}
    with Server(env, nproc(), "smoke") as server:
        _send_sequential(server.port, docs)  # fill
        hits = _send_sequential(server.port, docs)
        misses = _send_sequential(server.port, fresh)
        refused = _send_sequential(server.port, [refused_doc])
    assert refused[0].status == 400, refused[0].status

    assert tally(hit_check, [(docs, hits)]) == (4, 0, []), "intact hits"
    assert tally(miss_check, [(fresh, misses)]) == (3, 0, []), "intact"
    bad_hits = hits[:1] + [corrupt(hits[1])] + hits[2:]
    assert tally(hit_check, [(docs, bad_hits)])[2], "corrupted hit missed"
    bad_misses = [corrupt(s) for s in misses]
    assert tally(miss_check, [(fresh, bad_misses)])[2], "corruption missed"

    dead = Sample(0, 0.0, 0.0, 0.0, 0.0, 0, b"")  # transport failure
    attempted, failed, problems = tally(
        hit_check, [(docs + [refused_doc], hits + refused),
                    (docs[:1], [dead])])
    assert (attempted, failed, problems) == (6, 2, []), (attempted, failed)
    print(f"checker: corrupted bodies caught; failed_frac "
          f"{failed / attempted:.3f} for 1 refused + 1 dropped of "
          f"{attempted}")


def check_result_shape() -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-repeat",
         "--seed", "3", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (got, want)
    print("result line: shape and units match BENCHMARK.json")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "ran without the program's sources"
    assert "{" not in done.stdout, done.stdout
    print(f"bare directory: exit {done.returncode}, no result printed")


def main() -> int:
    env = prepare_source()
    check_outputs(env)
    check_result_shape()
    check_bare_directory()
    print("smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
