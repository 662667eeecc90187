"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``generate``   draw a workload (random / length-targeted / pattern) to CSV
``route``      route a workload with one heuristic (or BEST/ALL) and report;
               with ``--server``/``--socket`` it submits to a running
               ``repro serve`` instead (``--prev`` warm-starts)
``serve``      run the long-lived routing service (JSON over HTTP on TCP
               or a unix socket, warm-start repair, result cache)
``figures``    regenerate paper figure panels (fig7a..fig9c, summary)
``scenarios``  list or run registered scenarios (faulty / derated / ...)
``campaign``   list / run / check / clean the declarative experiment
               registry behind every committed ``results/*.txt`` artifact
``theory``     print the Theorem 1 / Lemma 2 separation tables
``simulate``   run a saved routing on the flit-level NoC simulator
``noc sweep``  load–latency curve of a saved routing or a registry
               scenario on the array flit engine (``--jobs``)

Every command is a thin shell over the library API; ``main(argv)`` returns
a process exit code so the CLI is unit-testable.  User errors (unknown
scenario, experiment or panel names, out-of-domain ``--jobs`` values,
malformed inputs) exit with code 2 and a one-line ``error:`` message —
never a traceback.  Shared argument validation lives in
:mod:`repro.cli.helpers`; ``repro --version`` prints the package version
(from installed metadata, or pyproject.toml on source-tree runs).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli.campaign import add_campaign_parser
from repro.cli.commands import (
    cmd_apps,
    cmd_figures,
    cmd_generate,
    cmd_noc_sweep,
    cmd_open_problem,
    cmd_route,
    cmd_scenarios,
    cmd_serve,
    cmd_simulate,
    cmd_theory,
)
from repro.utils.validation import ReproError
from repro.version import __version__


class _VersionAction(argparse.Action):
    """``--version`` with the active fast-path tier (REPRO_NATIVE).

    The tier is resolved lazily — only when ``--version`` is actually
    requested — so ordinary subcommands never trigger a native build or
    a ``REPRO_NATIVE=1`` availability check from the parser.
    """

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.native import active_tier

        print(f"repro {__version__} (tier: {active_tier()})")
        parser.exit()


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Power-aware Manhattan routing on chip multiprocessors",
    )
    parser.add_argument(
        "--version", action=_VersionAction,
        help="show the version and the active fast-path tier, then exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="draw a workload to CSV")
    g.add_argument("--mesh", default="8x8")
    g.add_argument(
        "--kind", choices=("random", "length", "transpose", "hotspot"),
        default="random",
    )
    g.add_argument("--n", type=int, default=20)
    g.add_argument("--length", type=int, default=6)
    g.add_argument("--rate-min", type=float, default=100.0)
    g.add_argument("--rate-max", type=float, default=2500.0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("route", help="route a CSV workload")
    r.add_argument("workload", help="workload CSV path")
    r.add_argument("--mesh", default="8x8")
    r.add_argument("--model", default="kim-horowitz")
    r.add_argument("--heuristic", default="ALL",
                   help="XY|SG|IG|TB|XYI|PR|YX|BEST|ALL")
    r.add_argument("--out", default=None, help="save best routing JSON here")
    r.add_argument("--show-map", action="store_true")
    r.add_argument(
        "--svg", default=None, help="save an SVG link-load heat map here"
    )
    remote = r.add_argument_group(
        "remote mode", "submit to a running 'repro serve' instead"
    )
    remote.add_argument(
        "--server", default=None, metavar="HOST[:PORT]",
        help="route on this service endpoint (TCP)",
    )
    remote.add_argument(
        "--socket", default=None, metavar="PATH",
        help="route on the service listening on this unix socket",
    )
    remote.add_argument(
        "--prev", default=None, metavar="ROUTING_JSON",
        help="previous routing to warm-start the service from",
    )
    remote.add_argument(
        "--polish", default="anneal",
        help="service polish mode: anneal|descent|none (default: anneal)",
    )
    remote.add_argument(
        "--seed", type=int, default=None,
        help="polish-burst / cold RNG seed (default: 0)",
    )
    remote.add_argument(
        "--no-cache", action="store_true",
        help="ask the service not to consult/fill its result cache",
    )
    r.set_defaults(func=cmd_route)

    srv = sub.add_parser(
        "serve", help="run the long-lived routing service"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=None)
    srv.add_argument(
        "--socket", default=None, metavar="PATH",
        help="listen on a unix socket instead of TCP",
    )
    srv.add_argument(
        "--jobs", type=int, default=1,
        help="routing worker processes (1 = inline, strictly serial)",
    )
    srv.add_argument(
        "--cache-dir", default=None,
        help="artifact-store root for the result cache "
        "(default: .repro-cache / REPRO_CACHE_DIR)",
    )
    srv.add_argument(
        "--no-cache", action="store_true",
        help="disable the cross-request result cache",
    )
    srv.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="admission control: route requests computing at once "
        "(default: 8)",
    )
    srv.add_argument(
        "--queue-depth", type=int, default=32, metavar="N",
        help="admission control: waiting requests beyond --max-inflight "
        "before answering 429 (default: 32)",
    )
    srv.add_argument(
        "--compute-timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-request compute deadline; overruns answer 504 "
        "(default: 300)",
    )
    srv.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-shutdown deadline for in-flight requests on "
        "SIGTERM/SIGINT (default: 10)",
    )
    srv.add_argument(
        "--verbose", action="store_true",
        help="log one structured line per request to stderr",
    )
    srv.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="prefork N accept-loop processes sharing the port via "
        "SO_REUSEPORT (unix sockets share one inherited fd); a "
        "supervisor restarts dead shards and /stats aggregates the "
        "fleet (default: 1 = classic single process)",
    )
    srv.set_defaults(func=cmd_serve)

    sc = sub.add_parser(
        "scenarios", help="list or run registered scenarios"
    )
    sc_sub = sc.add_subparsers(dest="action", required=True)
    sc_list = sc_sub.add_parser("list", help="show every registered scenario")
    sc_list.set_defaults(func=cmd_scenarios)
    sc_run = sc_sub.add_parser("run", help="run one scenario and report")
    sc_run.add_argument("name", help="registry name (see 'scenarios list')")
    sc_run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the Monte-Carlo trials (default: serial)",
    )
    sc_run.add_argument(
        "--trials", type=int, default=None,
        help="override the scenario's default trial count",
    )
    sc_run.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's default seed",
    )
    sc_run.add_argument(
        "--json", default=None,
        help="also save the exact (hex-float) snapshot to this path",
    )
    sc_run.set_defaults(func=cmd_scenarios)

    add_campaign_parser(sub)

    f = sub.add_parser("figures", help="regenerate paper figures")
    f.add_argument("panel", help="fig7a..fig9c or 'summary'")
    f.add_argument("--trials", type=int, default=None)
    f.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the Monte-Carlo sweep (default: serial)",
    )
    f.add_argument(
        "--svg-dir",
        default=None,
        help="also render the sweep to SVG charts in this directory",
    )
    f.set_defaults(func=cmd_figures)

    t = sub.add_parser("theory", help="Theorem 1 / Lemma 2 tables")
    t.add_argument("--sizes", type=int, nargs="*", default=None)
    t.set_defaults(func=cmd_theory)

    s = sub.add_parser("simulate", help="flit-simulate a saved routing")
    s.add_argument("routing", help="routing JSON path")
    s.add_argument("--cycles", type=int, default=20000)
    s.add_argument("--buffer-flits", type=int, default=4)
    s.add_argument("--packet-flits", type=int, default=8)
    s.set_defaults(func=cmd_simulate)

    n = sub.add_parser(
        "noc", help="flit-engine NoC evaluation (load-latency sweeps)"
    )
    n_sub = n.add_subparsers(dest="action", required=True)
    n_sweep = n_sub.add_parser(
        "sweep",
        help="load-latency curve of a saved routing or a registry scenario",
    )
    n_sweep.add_argument(
        "routing", nargs="?", default=None,
        help="routing JSON path (omit when using --scenario)",
    )
    n_sweep.add_argument(
        "--scenario", default=None,
        help="sweep a registry scenario's trial-0 instance instead "
        "(see 'scenarios list')",
    )
    n_sweep.add_argument(
        "--heuristic", default="BEST",
        help="heuristic deployed for --scenario (default: BEST)",
    )
    n_sweep.add_argument("--fractions", default="0.2,0.5,0.8,1.0,1.5,2.0")
    n_sweep.add_argument("--cycles", type=int, default=4000)
    n_sweep.add_argument(
        "--injection",
        choices=("deterministic", "bernoulli", "burst"),
        default="bernoulli",
    )
    n_sweep.add_argument("--seed", type=int, default=None)
    n_sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, one sweep point each (default: serial)",
    )
    n_sweep.add_argument(
        "--json", default=None,
        help="also save the exact (hex-float) latency curve to this path",
    )
    n_sweep.set_defaults(func=cmd_noc_sweep)

    a = sub.add_parser(
        "apps", help="route the published multimedia task graphs"
    )
    a.add_argument("--apps", default="vopd,mpeg4,mwd,pip",
                   help="comma-separated: vopd,mpeg4,mwd,pip")
    a.add_argument("--mesh", default="8x8")
    a.add_argument("--model", default="kim-horowitz")
    a.add_argument("--scale", type=float, default=3.0,
                   help="Mb/s per published MB/s")
    a.add_argument(
        "--mapping",
        choices=("annealed", "greedy", "row-major"),
        default="annealed",
    )
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(func=cmd_apps)

    o = sub.add_parser(
        "open-problem",
        help="shared-endpoint ladder: XY vs exact 1-MP vs max-MP",
    )
    o.add_argument("--mesh", default="8x8")
    o.add_argument("--rates", default="500,500,500,500",
                   help="comma-separated Mb/s, all corner-to-corner")
    o.add_argument("--alpha", type=float, default=2.95)
    o.set_defaults(func=cmd_open_problem)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # unwritable --out/--json/--svg paths, unreadable inputs, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
