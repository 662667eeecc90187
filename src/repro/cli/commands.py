"""Implementations of the non-campaign subcommands.

Each ``cmd_*`` function is a thin shell over the library API; argument
validation goes through :mod:`repro.cli.helpers` so every subcommand
reports domain errors identically (exit code 2, one-line message).
"""

from __future__ import annotations

import argparse

from repro import RoutingProblem
from repro.cli.helpers import (
    check_jobs,
    check_min,
    check_seed,
    check_trials,
    parse_fractions,
    parse_mesh,
    parse_model,
    save_json,
)
from repro.utils.validation import ReproError


# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    from repro.io import workload_to_csv
    from repro.workloads import (
        hotspot_pattern,
        length_targeted_workload,
        transpose_pattern,
        uniform_random_workload,
    )

    mesh = parse_mesh(args.mesh)
    check_seed(args.seed)
    if args.kind == "random":
        comms = uniform_random_workload(
            mesh, args.n, args.rate_min, args.rate_max, rng=args.seed
        )
    elif args.kind == "length":
        comms = length_targeted_workload(
            mesh, args.n, args.length, args.rate_min, args.rate_max,
            rng=args.seed,
        )
    elif args.kind == "transpose":
        comms = transpose_pattern(mesh, args.rate_max)
    elif args.kind == "hotspot":
        comms = hotspot_pattern(mesh, args.rate_max, rng=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown workload kind {args.kind!r}")
    text = workload_to_csv(comms, args.out)
    if args.out:
        print(f"wrote {len(comms)} communications to {args.out}")
    else:
        print(text, end="")
    return 0


def _route_remote(args: argparse.Namespace) -> int:
    """``repro route --server/--socket``: route on a running service."""
    from repro.io import load_routing, save_routing, workload_from_csv
    from repro.io.jsonio import problem_to_dict, routing_from_dict, routing_to_dict
    from repro.service import (
        DEFAULT_HOST,
        DEFAULT_PORT,
        DEFAULT_SOLVER,
        POLISH_MODES,
        ServiceClient,
    )

    check_seed(args.seed)
    if args.polish not in POLISH_MODES:
        raise ReproError(
            f"unknown polish mode {args.polish!r}; choose from "
            f"{', '.join(POLISH_MODES)}"
        )
    mesh = parse_mesh(args.mesh)
    power = parse_model(args.model)
    if args.socket:  # endpoint flags validate before any workload I/O
        client = ServiceClient(socket_path=args.socket)
    else:
        host, _, port_text = args.server.partition(":")
        try:
            port = int(port_text) if port_text else DEFAULT_PORT
        except ValueError:
            raise ReproError(
                f"--server must look like HOST or HOST:PORT, "
                f"got {args.server!r}"
            ) from None
        client = ServiceClient(host or DEFAULT_HOST, port)
    comms = workload_from_csv(args.workload)
    problem = RoutingProblem(mesh, power, comms)
    doc = {
        "problem": problem_to_dict(problem),
        # ALL is the local-mode default; remotely it means the service's
        # default cold solver
        "solver": DEFAULT_SOLVER if args.heuristic == "ALL" else args.heuristic,
        "polish": args.polish,
        "seed": args.seed if args.seed is not None else 0,
        "cache": not args.no_cache,
    }
    if args.prev:
        doc["prev"] = routing_to_dict(load_routing(args.prev))
    try:
        resp = client.route(doc)
    except OSError as exc:
        raise ReproError(f"cannot reach the routing service: {exc}") from None
    stats = resp.get("stats", {})
    power = f"power {resp['power']:.2f}" if resp["valid"] else "INVALID"
    print(f"{resp['mode']} route: {power}")
    print(
        f"cache_hit={resp['cache_hit']}  "
        f"elapsed {resp.get('elapsed_ms', 0.0):.1f} ms  "
        f"(matched {stats.get('matched', 0)}, rerouted "
        f"{stats.get('rerouted', 0)}, polish flips "
        f"{stats.get('polish_flips', 0)})"
    )
    if args.out:
        save_routing(routing_from_dict(resp["routing"]), args.out)
        print(f"routing saved to {args.out}")
    return 0 if resp["valid"] else 1


def cmd_route(args: argparse.Namespace) -> int:
    from typing import Sequence

    from repro.heuristics import PAPER_HEURISTICS, BestOf, get_heuristic
    from repro.io import save_routing, workload_from_csv
    from repro.utils.tables import format_table

    if args.server or args.socket:
        return _route_remote(args)
    mesh = parse_mesh(args.mesh)
    power = parse_model(args.model)
    comms = workload_from_csv(args.workload)
    problem = RoutingProblem(mesh, power, comms)

    names: Sequence[str]
    if args.heuristic == "ALL":
        names = PAPER_HEURISTICS
    elif args.heuristic == "BEST":
        names = ()
    else:
        names = (args.heuristic,)

    rows = []
    best_result = None
    if args.heuristic == "BEST":
        best_result = BestOf().solve(problem)
        rows.append(
            [
                "BEST",
                "yes" if best_result.valid else "NO",
                f"{best_result.power:.2f}" if best_result.valid else "-",
                f"{best_result.runtime_s * 1e3:.1f}",
            ]
        )
    else:
        for name in names:
            res = get_heuristic(name).solve(problem)
            rows.append(
                [
                    name,
                    "yes" if res.valid else "NO",
                    f"{res.power:.2f}" if res.valid else "-",
                    f"{res.runtime_s * 1e3:.1f}",
                ]
            )
            if best_result is None or (
                res.valid
                and (not best_result.valid or res.power < best_result.power)
            ):
                best_result = res
    print(format_table(["heuristic", "valid", "power", "ms"], rows))

    assert best_result is not None
    if args.show_map:
        from repro.viz import load_legend, render_loads

        print()
        print(render_loads(mesh, best_result.routing.link_loads(), power=power))
        print(load_legend())
    if args.out:
        save_routing(best_result.routing, args.out)
        print(f"routing saved to {args.out}")
    if args.svg:
        from repro.viz import mesh_heatmap_svg, save_svg

        save_svg(
            args.svg,
            mesh_heatmap_svg(
                mesh,
                best_result.routing.link_loads(),
                power,
                title=f"{best_result.name} link loads",
            ),
        )
        print(f"heat map saved to {args.svg}")
    return 0 if best_result.valid else 1


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import figures, sweep_to_text

    check_jobs(args.jobs)
    if args.panel != "summary" and args.panel not in figures.PANELS:
        raise ReproError(
            f"unknown panel {args.panel!r}; choose from "
            f"{', '.join(figures.PANELS)} or 'summary'"
        )
    # pass trials explicitly rather than through REPRO_TRIALS — mutating
    # os.environ would leak into everything else running in this process
    check_trials(args.trials)
    kw = {}
    if args.trials:
        kw["trials"] = args.trials
    if args.panel == "summary":
        if args.trials:
            # historical CLI semantics: summary always sampled 10x the
            # per-point trial budget (it averages over ~100 instance
            # families, so it needs the larger pool)
            kw["trials"] = 10 * args.trials
        s = figures.summary_statistics(jobs=args.jobs, **kw)
        for name, ratio in s.success_ratio.items():
            print(f"success {name:>5s}: {ratio:.2f}")
        print(f"static fraction: {s.static_fraction:.3f}")
        return 0
    sweep = getattr(figures, args.panel)(jobs=args.jobs, **kw)
    print(sweep_to_text(sweep))
    if args.svg_dir:
        import pathlib

        from repro.viz import save_svg, sweep_to_svg

        out_dir = pathlib.Path(args.svg_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for metric in ("norm_power_inverse", "failure_ratio"):
            path = out_dir / f"{args.panel}_{metric}.svg"
            save_svg(path, sweep_to_svg(sweep, metric))
            print(f"chart saved to {path}")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import available_scenarios, get_scenario, run_scenario

    if args.action == "list":
        for name in available_scenarios():
            sc = get_scenario(name)
            print(f"{name:>16}  [{sc.mesh.describe()}]  {sc.description}")
        return 0
    # run
    check_jobs(args.jobs)
    check_trials(args.trials)
    check_seed(args.seed)
    result = run_scenario(
        args.name, jobs=args.jobs, trials=args.trials, seed=args.seed
    )
    print(result.to_text())
    if args.json:
        save_json(args.json, result.to_jsonable(), "snapshot")
    return 0


def cmd_theory(args: argparse.Namespace) -> int:
    from repro.theory import lemma2_powers, theorem1_powers
    from repro.utils.tables import format_table

    sizes = args.sizes or [4, 8, 16, 32]
    rows1 = []
    rows2 = []
    for p in sizes:
        if p % 2 == 0:
            r = theorem1_powers(p)
            rows1.append([p, f"{r['p_xy']:.1f}", f"{r['p_manhattan']:.3f}",
                          f"{r['ratio']:.2f}"])
        r = lemma2_powers(p)
        rows2.append([p, f"{r['p_xy']:.0f}", f"{r['p_yx']:.0f}",
                      f"{r['ratio']:.1f}"])
    print("Theorem 1 (single pair, max-MP construction):")
    print(format_table(["p", "P_XY", "P_maxMP", "ratio"], rows1))
    print("\nLemma 2 (staircase, YX vs XY):")
    print(format_table(["p", "P_XY", "P_YX", "ratio"], rows2))
    return 0


def cmd_noc_sweep(args: argparse.Namespace) -> int:
    from repro.noc import latency_sweep, points_table, saturation_fraction

    check_jobs(args.jobs)
    check_min(args.cycles, "--cycles")
    check_seed(args.seed)
    fractions = parse_fractions(args.fractions)
    if bool(args.routing) == bool(args.scenario):
        raise ReproError(
            "pass exactly one input: a routing JSON path or --scenario NAME"
        )
    if args.scenario:
        from repro.scenarios import scenario_latency_curve

        result = scenario_latency_curve(
            args.scenario,
            heuristic=args.heuristic,
            fractions=fractions,
            cycles=args.cycles,
            warmup=args.cycles // 5,
            injection=args.injection,
            seed=args.seed,
            jobs=args.jobs,
        )
        print(result.to_text())
        doc = result.to_jsonable()
    else:
        from repro.io import load_routing

        routing = load_routing(args.routing)
        points = latency_sweep(
            routing,
            fractions,
            cycles=args.cycles,
            warmup=args.cycles // 5,
            injection=args.injection,
            seed=args.seed if args.seed is not None else 0,
            jobs=args.jobs,
        )
        print(points_table(points))
        sat = saturation_fraction(points)
        print(
            f"saturation fraction: {sat:.2f}"
            if sat != float("inf")
            else "no saturation inside the sweep"
        )
        doc = {
            "routing": args.routing,
            # the schema every saved curve shares (see
            # ScenarioLatencyResult.to_jsonable)
            "engine": "array",
            "injection": args.injection,
            "cycles": args.cycles,
            "seed": args.seed if args.seed is not None else 0,
            "points": [pt.to_jsonable() for pt in points],
        }
    if args.json:
        save_json(args.json, doc, "latency curve")
    return 0


def cmd_apps(args: argparse.Namespace) -> int:
    from repro.heuristics import PAPER_HEURISTICS, get_heuristic
    from repro.utils.tables import format_table
    from repro.workloads import (
        annealed_placement,
        bandwidth_aware_placement,
        map_applications,
        published_app,
        region_split,
    )

    mesh = parse_mesh(args.mesh)
    power = parse_model(args.model)
    check_seed(args.seed)
    apps = [published_app(n, scale=args.scale) for n in args.apps.split(",")]
    regions = region_split(mesh, [a.num_tasks for a in apps])
    placements = []
    for app, region in zip(apps, regions):
        if args.mapping == "annealed":
            placements.append(
                annealed_placement(
                    mesh, app, region=region, iterations=2000, seed=args.seed
                )
            )
        elif args.mapping == "greedy":
            placements.append(
                bandwidth_aware_placement(
                    mesh, app, region=region, rng=args.seed
                )
            )
        else:  # row-major
            placements.append(list(region[: app.num_tasks]))
    comms = map_applications(apps, placements)
    problem = RoutingProblem(mesh, power, comms)
    print(
        f"{', '.join(a.name for a in apps)}: {len(comms)} communications, "
        f"total {problem.total_rate:.0f} Mb/s ({args.mapping} mapping)"
    )
    rows = []
    for name in PAPER_HEURISTICS:
        res = get_heuristic(name).solve(problem)
        rows.append(
            [
                name,
                "yes" if res.valid else "NO",
                f"{res.power:.1f}" if res.valid else "-",
                f"{res.runtime_s * 1e3:.1f}",
            ]
        )
    print(format_table(["heuristic", "valid", "power mW", "ms"], rows))
    return 0


def cmd_open_problem(args: argparse.Namespace) -> int:
    from repro import PowerModel
    from repro.core.problem import Communication
    from repro.optimal import same_endpoint_gap
    from repro.utils.tables import format_table

    mesh = parse_mesh(args.mesh)
    power = PowerModel.dynamic_only(alpha=args.alpha, bandwidth=float("inf"))
    rates = [float(r) for r in args.rates.split(",")]
    problem = RoutingProblem(
        mesh,
        power,
        [
            Communication((0, 0), (mesh.p - 1, mesh.q - 1), r)
            for r in rates
        ],
    )
    gap = same_endpoint_gap(problem)
    rows = [
        ["XY", f"{gap.xy_power:.4g}"],
        ["optimal 1-MP (exact DP)", f"{gap.single_path_power:.4g}"],
        ["max-MP upper (flow LP)", f"{gap.flow_upper:.4g}"],
        ["max-MP lower (certified)", f"{gap.flow_lower:.4g}"],
        ["ideal-spread bound", f"{gap.ideal_bound:.4g}"],
    ]
    print(
        f"shared-endpoint ladder on {mesh.p}x{mesh.q}, rates {rates}, "
        f"alpha={args.alpha} (dynamic power only)"
    )
    print(format_table(["routing", "power"], rows))
    print(
        f"XY / optimal-1MP = {gap.xy_vs_single:.2f};  "
        f"optimal-1MP / maxMP = {gap.single_vs_multi:.3f}"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the routing service until SIGTERM/SIGINT.

    Shutdown is graceful: the first SIGTERM/SIGINT stops accepting,
    finishes in-flight requests under ``--drain-timeout``, then closes
    the worker pool.  A fault plan in ``REPRO_FAULTS`` (chaos testing)
    is honoured.  ``--shards N`` preforks N accept-loop processes under
    a restarting supervisor.
    """
    import asyncio
    import signal

    from repro.service import DEFAULT_PORT, FaultPlan, RoutingServer
    from repro.service.prefork import run_prefork

    check_jobs(args.jobs)
    if args.port is None:
        args.port = DEFAULT_PORT
    if args.socket is None and not 0 <= args.port < 65536:
        raise ReproError(
            "--port must lie in [0, 65535] (0 picks an ephemeral port), "
            f"got {args.port}"
        )
    check_min(args.max_inflight, "--max-inflight")
    check_min(args.queue_depth, "--queue-depth", 0)
    check_min(args.shards, "--shards")
    if args.compute_timeout is not None and not args.compute_timeout > 0:
        raise ReproError(
            f"--compute-timeout must be > 0 seconds, got {args.compute_timeout}"
        )
    if not args.drain_timeout >= 0:
        raise ReproError(
            f"--drain-timeout must be >= 0 seconds, got {args.drain_timeout}"
        )
    server_kwargs = dict(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        compute_timeout=args.compute_timeout,
        verbose=args.verbose,
    )
    if args.shards > 1:
        return run_prefork(
            shards=args.shards,
            host=args.host,
            port=args.port,
            socket_path=args.socket,
            drain_timeout=args.drain_timeout,
            **server_kwargs,
        )
    server = RoutingServer(fault_plan=FaultPlan.from_env(), **server_kwargs)

    async def _run() -> None:
        if args.socket:
            srv = await server.start_unix(args.socket)
            where = f"unix:{args.socket}"
        else:
            srv = await server.start_tcp(args.host, args.port)
            port = srv.sockets[0].getsockname()[1]
            where = f"http://{args.host}:{port}"
        cache = "off" if args.no_cache else (args.cache_dir or "default")
        print(
            f"repro service listening on {where} "
            f"(jobs={args.jobs}, cache={cache}, "
            f"max_inflight={args.max_inflight}, "
            f"queue_depth={args.queue_depth})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        async with srv:
            await stop.wait()
            print("draining (finishing in-flight requests)", flush=True)
            drained = await server.drain(srv, timeout=args.drain_timeout)
            print(
                "drained cleanly" if drained
                else "drain deadline hit; abandoning in-flight work",
                flush=True,
            )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        print("shutting down")
    except OSError as exc:
        raise ReproError(f"cannot start the routing service: {exc}") from None
    finally:
        server.close()
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.io import load_routing
    from repro.noc import (
        ArrayFlitSimulator,
        direction_class_vc,
        is_deadlock_free,
    )

    check_min(args.cycles, "--cycles")  # validate before any I/O
    check_min(args.buffer_flits, "--buffer-flits")
    check_min(args.packet_flits, "--packet-flits")
    routing = load_routing(args.routing)
    free = is_deadlock_free(routing, direction_class_vc)
    print(f"deadlock-free under direction-class VCs: {free}")
    sim = ArrayFlitSimulator(
        routing,
        num_vcs=4,
        buffer_flits=args.buffer_flits,
        packet_flits=args.packet_flits,
    )
    rep = sim.run(args.cycles, warmup=args.cycles // 10)
    ach = [f.achieved_fraction for f in rep.flows]
    head = (
        f"delivered {rep.total_delivered_flits} flits over {args.cycles} "
        "cycles; "
    )
    if not ach:
        print(head + "the routing has no flows")
        return 0
    print(
        head + f"throughput achieved: min {min(ach):.2f} mean "
        f"{sum(ach) / len(ach):.2f}"
    )
    return 0
