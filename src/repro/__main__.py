"""Command-line interface: ``python -m repro <command> …``.

Commands
--------

classify FORMULA [--props p,q]        place a formula in the hierarchy
classify FORMULA --explain            …and say *why*: deciding view, route,
                                      per-class reasons, automaton evidence
classify --batch FILE                 classify a whole spec corpus at once
lint FORMULA [FORMULA …]              check a specification for coverage gaps
automaton FORMULA [--dot]             print (or DOT-render) the automaton
omega EXPRESSION --alphabet ab        classify an ω-regular expression
engine FILE [--executor …]            batch-evaluate a spec file through the
                                      caching engine; report classes, cache
                                      stats and timings
serve [--port P | --socket S]         run the long-lived classification
      [--store F] [--window-ms N]     service: JSON-lines protocol, request
      [--max-inflight N] [--quota N]  batching, persistent shared cache
      [--telemetry-port P] [--trace]  …plus the telemetry plane: an HTTP
                                      sidecar (/metrics /healthz /readyz
                                      /spans/recent /stats /recorder/dump),
                                      per-request span trees with wire
                                      propagation, and a flight recorder
                                      (dump on SIGUSR1)
serve --smoke SPEC --store F          two-phase restart-durability smoke
serve --telemetry-smoke SPEC --store F  telemetry-plane smoke: traced
                                      traffic, sidecar endpoints, recorder
                                      dump, stitched client→server spans
stats --remote HOST:PORT              one dashboard frame from a running
stats --telemetry URL [--watch]       server (stats verb or sidecar URL);
                                      --watch polls and redraws live
classify FORMULA --remote HOST:PORT   classify against a running server
                                      (--trace prints the stitched span
                                      tree: client root → server stages)
trace FILE [--jsonl F] [--prometheus] run a spec file with span tracing on;
                                      print the span tree and top spans,
                                      optionally export JSONL / Prometheus
fuzz [--seed N] [--budget N]          differential fuzzing of the four views;
                                      shrinks and reports any disagreement
bench [--quick] [--out F] [--check F] time the dense fastpath kernels against
                                      the reference routes; write/gate a
                                      JSON report (see docs/PERFORMANCE.md)
bench --obs [--out F]                 measure span-tracing overhead on
                                      classify, nonempty_states and a product
                                      emptiness check; gate it below 5%
bench --obs --serve                   …plus the end-to-end telemetry A/B
                                      (tracing + sidecar + recorder vs
                                      off); gate it below 10%
bench --serve [--out F] [--check F]   end-to-end service benchmark: rps and
                                      p50/p99 latency over a warm store
bench --fleet [--out F] [--check F]   vectorized monitor fleet vs a scalar
                                      monitor loop (streams·events/sec)
monitor FORMULA --streams N           run a monitor fleet over JSONL event
        [--stream F] [--backend B]    batches (file or stdin); exit 1 if any
                                      stream ends VIOLATED
census PATH... [--jobs N]             classify a whole .ltl corpus through a
       [--timeout S] [--out CSV]      crash-isolated worker pool; one CSV row
       [--check BASELINE]             per formula (class, Wagner index,
       [--summary-out JSON]           liveness flags, automaton sizes per
                                      route); --check gates against the
                                      committed baseline census
census --emit-corpus DIR              regenerate the curated formulas/ corpus
zoo                                   print the canonical Figure-1 witnesses

Global flags: ``--version``, ``--seed N`` (seeds ``random`` for
reproducible randomized runs).
"""

from __future__ import annotations

import argparse
import random
import sys

from repro import __version__
from repro.core import classify_formula, formula_to_automaton
from repro.errors import ReproError
from repro.core.canonical import figure_1_zoo
from repro.logic import parse_formula
from repro.omega.classify import classify as classify_automaton
from repro.omega.omega_regex import omega_language
from repro.omega.reduce import quotient_reduce
from repro.omega.render import describe, to_dot
from repro.systems import lint_specification
from repro.words import Alphabet


def _alphabet_from(props: str | None):
    if props is None:
        return None
    return Alphabet.powerset_of_propositions([p.strip() for p in props.split(",") if p.strip()])


def _parse_remote(remote: str) -> tuple[str, int]:
    host, sep, port_text = remote.rpartition(":")
    if not sep or not port_text.isdigit():
        raise ValueError(f"--remote wants HOST:PORT, got {remote!r}")
    return host or "127.0.0.1", int(port_text)


def cmd_classify(args: argparse.Namespace) -> int:
    if args.remote:
        from repro.serve.client import ServeClient
        from repro.serve.protocol import render_payload

        if args.formula is None:
            print("error: --remote needs a FORMULA", file=sys.stderr)
            return 2
        host, port = _parse_remote(args.remote)
        props = None
        if args.props:
            props = [p.strip() for p in args.props.split(",") if p.strip()]
        if args.trace:
            from repro.obs.spans import TRACER

            TRACER.enable()
            TRACER.clear()
        try:
            with ServeClient.connect(host, port) as client:
                if args.explain:
                    payload = client.explain(args.formula, props=props)
                else:
                    payload = client.classify(args.formula, props=props)
        finally:
            if args.trace:
                TRACER.disable()
        print(render_payload(payload))
        if args.trace:
            from repro.obs.export import render_span_tree

            print()
            print(render_span_tree(TRACER.finished()))
            TRACER.clear()
        return 0
    if args.batch:
        from repro.engine.session import EngineSession, SpecSyntaxError

        session = EngineSession.create(executor=args.executor, max_workers=args.jobs)
        try:
            with session.engine:
                report = session.run_file(args.batch)
        except (OSError, SpecSyntaxError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(session.render_results(report))
        print()
        print(session.render(report))
        if args.explain:
            print()
            _explain_batch(report)
        return 1 if report.failures else 0
    if args.formula is None:
        print("error: provide a FORMULA or --batch FILE", file=sys.stderr)
        return 2
    if args.explain:
        from repro.obs.provenance import explain_formula

        explanation = explain_formula(
            parse_formula(args.formula), _alphabet_from(args.props)
        )
        print(explanation.render())
        return 0
    report = classify_formula(parse_formula(args.formula), _alphabet_from(args.props))
    print(report.summary())
    return 0


def _explain_batch(report) -> None:
    """One explanation block per successful classify job in the batch."""
    from repro.obs.provenance import explain_expression, explain_formula

    first = True
    for result in report.results:
        if not result.ok:
            continue
        job = result.job
        if job.kind == "classify-formula":
            alphabet = None
            if getattr(job, "props", None):
                alphabet = _alphabet_from(",".join(job.props))
            explanation = explain_formula(job.formula, alphabet)
        elif job.kind == "classify-omega":
            explanation = explain_expression(job.expression, job.letters)
        else:  # monitor jobs have no class verdict to explain
            continue
        if not first:
            print()
        first = False
        print(explanation.render())


def cmd_engine(args: argparse.Namespace) -> int:
    from repro.engine.session import EngineSession, SpecSyntaxError

    if args.repeat < 1:
        print("error: --repeat must be at least 1", file=sys.stderr)
        return 2
    session = EngineSession.create(
        executor=args.executor, max_workers=args.jobs, dedupe=not args.no_dedupe
    )
    report = None
    try:
        with session.engine:
            for _ in range(args.repeat):
                report = session.run_file(args.file)
    except (OSError, SpecSyntaxError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    assert report is not None
    if args.results:
        print(session.render_results(report))
        print()
    print(session.render(report, verbose=args.verbose))
    return 1 if report.failures else 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.engine.metrics import METRICS
    from repro.engine.session import EngineSession, SpecSyntaxError
    from repro.obs.export import (
        prometheus_text,
        render_span_tree,
        render_top_spans,
        validate_jsonl_file,
        write_jsonl,
    )
    from repro.obs.spans import TRACER

    session = EngineSession.create(executor=args.executor, max_workers=args.jobs)
    TRACER.enable()
    TRACER.clear()
    try:
        with session.engine:
            report = session.run_file(args.file)
    except (OSError, SpecSyntaxError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        TRACER.disable()
    spans = TRACER.finished()
    print(render_span_tree(spans))
    print()
    print(render_top_spans(spans, limit=args.top))
    if args.jsonl:
        count = write_jsonl(spans, args.jsonl)
        errors = validate_jsonl_file(args.jsonl)
        if errors:
            for error in errors:
                print(f"schema error: {error}", file=sys.stderr)
            return 1
        print(f"\nwrote {count} spans to {args.jsonl} (schema valid)")
    if args.prometheus:
        print()
        print(prometheus_text(METRICS))
    TRACER.clear()
    return 1 if report.failures else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.engine.metrics import METRICS
    from repro.qa.fuzz import run_fuzz
    from repro.qa.oracles import ORACLES

    if args.budget < 1:
        print("error: --budget must be at least 1", file=sys.stderr)
        return 2
    for name in args.oracle or ():
        if name not in ORACLES:
            known = ", ".join(sorted(ORACLES))
            print(f"error: unknown oracle '{name}' (known: {known})", file=sys.stderr)
            return 2
    report = run_fuzz(
        seed=args.fuzz_seed,
        budget=args.budget,
        oracles=args.oracle or None,
        shrink=not args.no_shrink,
        write_corpus=args.write_corpus,
    )
    print(report.summary())
    if args.verbose:
        print()
        print(METRICS.report())
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import (
        BENCHMARKS,
        WORKLOADS,
        regressions_against,
        render_table,
        report_json,
        run_benchmarks,
    )

    if args.repeat < 1:
        print("error: --repeat must be at least 1", file=sys.stderr)
        return 2
    kernels = WORKLOADS if args.obs else BENCHMARKS
    for name in args.kernel or ():
        if name not in kernels:
            known = ", ".join(kernels)
            print(f"error: unknown kernel '{name}' (known: {known})", file=sys.stderr)
            return 2
    if args.obs:
        return _bench_obs(args)
    if args.serve:
        return _bench_serve(args)
    if args.fleet:
        return _bench_fleet(args)
    results = run_benchmarks(
        quick=args.quick, repeat=args.repeat, kernels=args.kernel or None
    )
    print(render_table(results))
    if args.out:
        report = report_json(results, quick=args.quick, repeat=args.repeat)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    if args.check:
        try:
            with open(args.check, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read baseline {args.check}: {error}", file=sys.stderr)
            return 1
        failures = regressions_against(results, baseline, expect_all=not args.kernel)
        for failure in failures:
            print(f"regression: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"no kernel regressed more than 2x against {args.check}")
    return 0


def _bench_obs(args: argparse.Namespace) -> int:
    from repro.bench.obs import (
        MAX_OVERHEAD,
        overhead_failures,
        run_overhead_benchmarks,
    )
    from repro.bench.obs import render_table as render_obs_table
    from repro.bench.obs import report_json as obs_report_json

    limit = args.limit if args.limit is not None else MAX_OVERHEAD
    results = run_overhead_benchmarks(
        quick=args.quick, repeat=args.repeat, kernels=args.kernel or None
    )
    print(render_obs_table(results))
    serve_telemetry = None
    failures = overhead_failures(results, limit=limit)
    if args.serve:
        from repro.bench.serve import (
            TELEMETRY_OVERHEAD_LIMIT,
            run_telemetry_overhead,
            telemetry_failures,
        )

        serve_telemetry = run_telemetry_overhead(
            quick=args.quick, repeat=args.repeat
        )
        print(
            f"\n{serve_telemetry.workload}: {serve_telemetry.off_rps:.0f} req/s off"
            f" → {serve_telemetry.on_rps:.0f} req/s on"
            f" ({serve_telemetry.overhead:+.1%}, budget"
            f" {TELEMETRY_OVERHEAD_LIMIT:.0%}, A/A noise"
            f" {serve_telemetry.noise:.1%}); traced client"
            f" {serve_telemetry.traced_rps:.0f} req/s"
            f" ({serve_telemetry.traced_overhead:+.1%}, informational)"
        )
        failures.extend(telemetry_failures(serve_telemetry))
    if args.out:
        report = obs_report_json(
            results,
            quick=args.quick,
            repeat=args.repeat,
            limit=limit,
            serve_telemetry=serve_telemetry,
        )
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    for failure in failures:
        print(f"overhead: {failure}", file=sys.stderr)
    if failures:
        return 1
    scope = "every kernel" if serve_telemetry is None else (
        "every kernel, and the end-to-end telemetry plane within"
        " its 10% budget"
    )
    print(f"tracing overhead within the {limit:.0%} budget on {scope}")
    return 0


def _bench_serve(args: argparse.Namespace) -> int:
    import json

    from repro.bench.serve import (
        regressions_against as serve_regressions,
        render_table as render_serve_table,
        report_json as serve_report_json,
        run_serve_benchmarks,
    )

    results = run_serve_benchmarks(quick=args.quick, repeat=args.repeat)
    print(render_serve_table(results))
    if args.out:
        report = serve_report_json(results, quick=args.quick, repeat=args.repeat)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    if args.check:
        try:
            with open(args.check, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read baseline {args.check}: {error}", file=sys.stderr)
            return 1
        failures = serve_regressions(results, baseline)
        for failure in failures:
            print(f"regression: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"no serve workload regressed more than 4x against {args.check}")
    return 0


def _bench_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.bench.fleet import (
        regressions_against as fleet_regressions,
        render_table as render_fleet_table,
        report_json as fleet_report_json,
        run_fleet_benchmarks,
    )

    results = run_fleet_benchmarks(
        quick=args.quick, repeat=args.repeat, backend=args.backend
    )
    print(render_fleet_table(results))
    if args.out:
        report = fleet_report_json(results, quick=args.quick, repeat=args.repeat)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    if args.check:
        try:
            with open(args.check, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read baseline {args.check}: {error}", file=sys.stderr)
            return 1
        failures = fleet_regressions(results, baseline)
        for failure in failures:
            print(f"regression: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"no fleet workload regressed more than 4x against {args.check}")
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    from repro.fleet import MonitorFleet, run_stream
    from repro.fleet.compile import CompiledMonitor, VIOLATED

    if args.streams < 1:
        print("error: --streams must be at least 1", file=sys.stderr)
        return 2
    if args.omega:
        alphabet = Alphabet.from_letters(args.alphabet)
        compiled = CompiledMonitor(
            quotient_reduce(omega_language(args.formula, alphabet))
        )
    else:
        compiled = CompiledMonitor.for_formula(
            parse_formula(args.formula), _alphabet_from(args.props)
        )
    fleet = MonitorFleet(compiled, args.streams, backend=args.backend)
    classification = compiled.classification()
    print(
        f"property:   {args.formula}  [{classification.canonical.value};"
        f" can_violate={compiled.can_violate} can_satisfy={compiled.can_satisfy}]"
    )

    def per_batch(index: int, current: MonitorFleet) -> None:
        print(f"batch {index:4d}: {current.counts().line()}")

    callback = per_batch if args.per_batch else None
    if args.stream == "-":
        report = run_stream(fleet, sys.stdin, on_batch=callback)
    else:
        with open(args.stream, encoding="utf-8") as handle:
            report = run_stream(fleet, handle, on_batch=callback)
    print(report.render())
    if args.verdicts:
        marks = {0: "?", 1: "V", 2: "S"}
        print("".join(marks[code] for code in fleet.verdict_codes()))
    return 1 if report.counts.violated else 0


def cmd_census(args: argparse.Namespace) -> int:
    from repro.census import (
        check_against_baseline,
        load_corpus,
        read_census_csv,
        run_census,
        summary_json,
        write_census_csv,
        write_corpus,
    )

    if args.emit_corpus:
        paths = write_corpus(args.emit_corpus, seed=args.corpus_seed)
        for path in paths:
            print(f"wrote {path}")
        return 0
    if not args.paths:
        print("error: provide corpus PATHs (or --emit-corpus DIR)", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    if args.limit is not None and args.limit < 1:
        print("error: --limit must be at least 1", file=sys.stderr)
        return 2
    entries = load_corpus(args.paths)
    if args.limit is not None:
        entries = entries[: args.limit]
    report = run_census(
        entries,
        jobs=args.jobs,
        timeout=args.timeout,
        serial=args.serial,
        start_method=args.start_method,
    )
    print(report.render())
    if args.out:
        count = write_census_csv(report.rows, args.out)
        print(f"wrote {count} rows to {args.out}")
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as handle:
            handle.write(summary_json(report, [str(p) for p in args.paths]))
        print(f"wrote {args.summary_out}")
    exit_code = 0 if report.ok else 1
    if args.check:
        baseline = read_census_csv(args.check)
        check = check_against_baseline(report.rows, baseline)
        print(check.render())
        if not check.ok:
            exit_code = 1
    return exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import ClassificationServer, ServerConfig

    if args.window_ms < 0:
        print("error: --window-ms must be non-negative", file=sys.stderr)
        return 2
    if args.max_inflight < 1 or args.quota < 1:
        print("error: --max-inflight and --quota must be at least 1", file=sys.stderr)
        return 2
    if args.smoke:
        from repro.serve.smoke import run_smoke

        if not args.store:
            print("error: --smoke needs --store FILE", file=sys.stderr)
            return 2
        report = run_smoke(
            args.smoke, args.store, executor=args.executor, window_ms=args.window_ms
        )
        print(report.render())
        return 0 if report.ok else 1
    if args.telemetry_smoke:
        from repro.serve.smoke import run_telemetry_smoke

        if not args.store:
            print("error: --telemetry-smoke needs --store FILE", file=sys.stderr)
            return 2
        report = run_telemetry_smoke(
            args.telemetry_smoke, args.store, window_ms=args.window_ms
        )
        print(report.render())
        return 0 if report.ok else 1
    config = ServerConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        store_path=args.store,
        window_ms=args.window_ms,
        max_inflight=args.max_inflight,
        client_quota=args.quota,
        executor=args.executor,
        max_workers=args.jobs,
        telemetry_port=args.telemetry_port,
        telemetry_host=args.telemetry_host,
        trace=args.trace,
    )

    async def _main() -> None:
        import signal

        server = ClassificationServer(config)
        await server.start()
        print(f"serving on {server.address}  (Ctrl-C to stop)")
        if server.telemetry_port is not None:
            print(
                f"telemetry sidecar on http://{config.telemetry_host}:"
                f"{server.telemetry_port}  (/metrics /healthz /readyz"
                " /spans/recent /stats /recorder/dump)"
            )
        if hasattr(signal, "SIGUSR1"):
            def _dump() -> None:
                count = server.dump_recorder(args.recorder_dump)
                print(f"flight recorder: wrote {count} spans to {args.recorder_dump}")

            try:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGUSR1, _dump
                )
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal support run without it
        if hasattr(signal, "SIGTERM"):
            # Ctrl-C arrives as KeyboardInterrupt; SIGTERM (init systems,
            # `kill`, shells where background jobs ignore SIGINT) must get
            # the same graceful drain, not an abrupt exit.
            try:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGTERM,
                    lambda: asyncio.ensure_future(server.stop()),
                )
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await server.wait_stopped()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("interrupted — server shut down", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.telemetry.watch import (
        http_stats_fetcher,
        render_dashboard,
        render_progress,
        watch,
    )

    if bool(args.remote) == bool(args.telemetry):
        print(
            "error: pick one stats door: --remote HOST:PORT or --telemetry URL",
            file=sys.stderr,
        )
        return 2
    if args.telemetry:
        base = args.telemetry
        if "://" not in base:
            base = f"http://{base}"
        fetch = http_stats_fetcher(base)
    else:
        host, port = _parse_remote(args.remote)

        def fetch() -> dict:
            from repro.serve.client import ServeClient

            # One connection per poll: a dashboard must survive server
            # restarts, which a held socket would not.
            with ServeClient.connect(host, port) as client:
                return client.stats()

    if args.watch:
        clear = sys.stdout.isatty()
        try:
            successes = watch(
                fetch,
                interval=args.interval,
                iterations=args.iterations,
                clear=clear,
            )
        except KeyboardInterrupt:
            return 0
        return 0 if successes else 1
    try:
        stats = fetch()
    except Exception as error:  # noqa: BLE001 — one-shot: report and exit
        print(f"error: stats unavailable: {error}", file=sys.stderr)
        return 1
    print(render_dashboard(stats))
    if args.progress and args.telemetry:
        import json as json_module
        from urllib.request import urlopen

        base = args.telemetry
        if "://" not in base:
            base = f"http://{base}"
        with urlopen(base.rstrip("/") + "/progress", timeout=5.0) as response:
            payload = json_module.loads(response.read().decode("utf-8"))
        print()
        print(render_progress(payload.get("jobs", {})))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    report = lint_specification(list(args.formulas))
    print(report.table())
    return 1 if report.warnings() else 0


def cmd_automaton(args: argparse.Namespace) -> int:
    automaton = formula_to_automaton(parse_formula(args.formula), _alphabet_from(args.props))
    automaton = quotient_reduce(automaton)
    print(to_dot(automaton) if args.dot else describe(automaton))
    return 0


def cmd_omega(args: argparse.Namespace) -> int:
    alphabet = Alphabet.from_letters(args.alphabet)
    automaton = quotient_reduce(omega_language(args.expression, alphabet))
    verdict = classify_automaton(automaton)
    print(f"expression: {args.expression}")
    print(f"class:      {verdict.canonical.value} ({verdict.canonical.borel_name})")
    print(f"liveness:   {verdict.is_liveness}")
    print(describe(automaton))
    return 0


def cmd_zoo(_args: argparse.Namespace) -> int:
    print(f"{'witness':26s} {'class':12s} {'Borel':5s} source")
    for example in figure_1_zoo():
        cls = example.expected_class
        print(f"{example.name:26s} {cls.value:12s} {cls.borel_name:5s} {example.source}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="The Manna-Pnueli safety-progress hierarchy toolkit."
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed the global random module (reproducible randomized runs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a temporal formula")
    p_classify.add_argument("formula", nargs="?", default=None)
    p_classify.add_argument("--props", help="comma-separated proposition universe")
    p_classify.add_argument(
        "--batch", metavar="FILE", help="classify every spec in FILE through the engine"
    )
    p_classify.add_argument(
        "--executor", choices=["serial", "process"], default="serial"
    )
    p_classify.add_argument("--jobs", type=int, default=None, help="pool size for --batch")
    p_classify.add_argument(
        "--explain",
        action="store_true",
        help="print classification provenance: deciding view, route, evidence",
    )
    p_classify.add_argument(
        "--remote",
        metavar="HOST:PORT",
        default=None,
        help="send the request to a running classification server instead",
    )
    p_classify.add_argument(
        "--trace",
        action="store_true",
        help="with --remote: propagate a trace on the wire and print the"
        " stitched span tree (client root → server request → stages)",
    )
    p_classify.set_defaults(func=cmd_classify)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived classification service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7911, help="TCP port (0 = ephemeral; default 7911)"
    )
    p_serve.add_argument(
        "--socket", metavar="PATH", default=None, help="serve on a unix socket instead"
    )
    p_serve.add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help="persistent SQLite result store shared across restarts/processes",
    )
    p_serve.add_argument(
        "--window-ms",
        type=float,
        default=10.0,
        help="batching window: how long the first request waits for company (default 10)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="server-wide admitted-request cap; beyond it clients get a"
        " retryable 'overloaded' frame (default 256)",
    )
    p_serve.add_argument(
        "--quota",
        type=int,
        default=64,
        help="per-connection inflight cap (retryable 'quota' frame; default 64)",
    )
    p_serve.add_argument(
        "--executor", choices=["serial", "process"], default="serial"
    )
    p_serve.add_argument("--jobs", type=int, default=None, help="engine pool size")
    p_serve.add_argument(
        "--smoke",
        metavar="SPEC",
        default=None,
        help="run the two-phase restart-durability smoke over SPEC and exit",
    )
    p_serve.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="P",
        help="serve the HTTP telemetry sidecar on this port (0 = ephemeral;"
        " default: no sidecar)",
    )
    p_serve.add_argument(
        "--telemetry-host",
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for the telemetry sidecar (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree per request (wire propagation, flight"
        " recorder capture, response echo for traced clients)",
    )
    p_serve.add_argument(
        "--recorder-dump",
        metavar="FILE",
        default="repro-recorder.jsonl",
        help="where SIGUSR1 dumps the flight recorder"
        " (default repro-recorder.jsonl)",
    )
    p_serve.add_argument(
        "--telemetry-smoke",
        metavar="SPEC",
        default=None,
        help="run the telemetry-plane smoke (traced traffic, sidecar"
        " endpoints, recorder dump, stitched spans) over SPEC and exit",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_stats = sub.add_parser(
        "stats", help="dashboard over a running classification server"
    )
    p_stats.add_argument(
        "--remote",
        metavar="HOST:PORT",
        default=None,
        help="poll the JSON-lines stats verb on this server",
    )
    p_stats.add_argument(
        "--telemetry",
        metavar="URL",
        default=None,
        help="poll a telemetry sidecar instead (e.g. http://127.0.0.1:9100)",
    )
    p_stats.add_argument(
        "--watch",
        action="store_true",
        help="poll and redraw until interrupted instead of printing one frame",
    )
    p_stats.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch polls (default 2)",
    )
    p_stats.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop --watch after N polls (default: run until Ctrl-C)",
    )
    p_stats.add_argument(
        "--progress",
        action="store_true",
        help="with --telemetry: also show the /progress job heartbeats",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="run a spec file with span tracing and print the span tree"
    )
    p_trace.add_argument("file", help="spec file: one formula / omega / monitor line each")
    p_trace.add_argument(
        "--executor", choices=["serial", "process"], default="serial"
    )
    p_trace.add_argument("--jobs", type=int, default=None, help="worker pool size")
    p_trace.add_argument(
        "--top", type=int, default=10, help="rows in the top-spans profile (default 10)"
    )
    p_trace.add_argument(
        "--jsonl",
        metavar="FILE",
        default=None,
        help="export spans as JSONL to FILE and schema-check the result",
    )
    p_trace.add_argument(
        "--prometheus",
        action="store_true",
        help="also print the metrics registry in Prometheus text format",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_engine = sub.add_parser(
        "engine", help="batch-evaluate a spec file through the caching engine"
    )
    p_engine.add_argument("file", help="spec file: one formula / omega / monitor line each")
    p_engine.add_argument(
        "--executor", choices=["serial", "process"], default="serial"
    )
    p_engine.add_argument("--jobs", type=int, default=None, help="worker pool size")
    p_engine.add_argument(
        "--repeat", type=int, default=1, help="run the batch N times (shows warm-cache effect)"
    )
    p_engine.add_argument(
        "--no-dedupe", action="store_true", help="disable structural job deduplication"
    )
    p_engine.add_argument(
        "--results", action="store_true", help="print one line per job before the summary"
    )
    p_engine.add_argument(
        "--verbose", "-v", action="store_true", help="also print the metrics registry"
    )
    p_engine.set_defaults(func=cmd_engine)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of the four views with shrinking"
    )
    p_fuzz.add_argument(
        "--seed", dest="fuzz_seed", type=int, default=1990, help="generator seed (default 1990)"
    )
    p_fuzz.add_argument(
        "--budget", type=int, default=300, help="number of cases to run (default 300)"
    )
    p_fuzz.add_argument(
        "--oracle",
        action="append",
        metavar="NAME",
        help="restrict to one oracle (repeatable); default: all",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true", help="report raw counterexamples unshrunk"
    )
    p_fuzz.add_argument(
        "--write-corpus",
        metavar="DIR",
        default=None,
        help="persist shrunk counterexamples as JSON artifacts in DIR",
    )
    p_fuzz.add_argument(
        "--verbose", "-v", action="store_true", help="also print the metrics registry"
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_bench = sub.add_parser(
        "bench", help="benchmark the dense fastpath kernels against the reference routes"
    )
    p_bench.add_argument(
        "--quick", action="store_true", help="smaller workloads (the CI smoke sizes)"
    )
    p_bench.add_argument(
        "--repeat", type=int, default=5, help="best-of-N interleaved runs (default 5)"
    )
    p_bench.add_argument(
        "--kernel",
        action="append",
        metavar="NAME",
        help="restrict to one kernel (repeatable); default: all",
    )
    p_bench.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the JSON report to FILE (e.g. BENCH_fastpath.json)",
    )
    p_bench.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="exit 1 if any kernel regressed >2x vs this baseline JSON",
    )
    p_bench.add_argument(
        "--obs",
        action="store_true",
        help="measure span-tracing overhead instead of route speedups",
    )
    p_bench.add_argument(
        "--serve",
        action="store_true",
        help="benchmark the classification service end to end (rps, p50/p99)",
    )
    p_bench.add_argument(
        "--fleet",
        action="store_true",
        help="benchmark the vectorized monitor fleet vs a scalar monitor loop",
    )
    p_bench.add_argument(
        "--backend",
        choices=["auto", "numpy", "pure"],
        default="auto",
        help="fleet backend for --fleet (default auto)",
    )
    p_bench.add_argument(
        "--limit",
        type=float,
        default=None,
        help="overhead budget for --obs as a fraction (default 0.05)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_lint = sub.add_parser("lint", help="lint a property-list specification")
    p_lint.add_argument("formulas", nargs="+")
    p_lint.set_defaults(func=cmd_lint)

    p_automaton = sub.add_parser("automaton", help="show a formula's automaton")
    p_automaton.add_argument("formula")
    p_automaton.add_argument("--props")
    p_automaton.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p_automaton.set_defaults(func=cmd_automaton)

    p_omega = sub.add_parser("omega", help="classify an ω-regular expression")
    p_omega.add_argument("expression")
    p_omega.add_argument("--alphabet", default="ab", help="letters, e.g. 'abc'")
    p_omega.set_defaults(func=cmd_omega)

    p_monitor = sub.add_parser(
        "monitor", help="run a vectorized monitor fleet over JSONL event batches"
    )
    p_monitor.add_argument("formula", help="temporal formula (or ω-regex with --omega)")
    p_monitor.add_argument("--props", help="comma-separated proposition universe")
    p_monitor.add_argument(
        "--omega",
        action="store_true",
        help="treat FORMULA as an ω-regular expression over --alphabet",
    )
    p_monitor.add_argument(
        "--alphabet", default="ab", help="letters for --omega (default 'ab')"
    )
    p_monitor.add_argument(
        "--streams", type=int, default=1, help="number of concurrent streams"
    )
    p_monitor.add_argument(
        "--stream",
        metavar="FILE",
        default="-",
        help="JSONL batch file, '-' for stdin (default)",
    )
    p_monitor.add_argument(
        "--backend", choices=["auto", "numpy", "pure"], default="auto"
    )
    p_monitor.add_argument(
        "--per-batch",
        action="store_true",
        help="print the verdict tally after every batch",
    )
    p_monitor.add_argument(
        "--verdicts",
        action="store_true",
        help="print one character per stream at the end (V/S/?)",
    )
    p_monitor.set_defaults(func=cmd_monitor)

    p_census = sub.add_parser(
        "census", help="classify a .ltl corpus through a crash-isolated pool"
    )
    p_census.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=".ltl files and/or directories of .ltl files",
    )
    p_census.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: cpu count, max 8)"
    )
    p_census.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-formula wall-clock budget in seconds (default 60)",
    )
    p_census.add_argument(
        "--serial",
        action="store_true",
        help="run in-process (no isolation/timeout; for debugging and tests)",
    )
    p_census.add_argument(
        "--start-method",
        choices=["fork", "spawn", "forkserver"],
        default=None,
        help="multiprocessing start method (default: fork where available)",
    )
    p_census.add_argument(
        "--limit", type=int, default=None, help="census only the first N formulas"
    )
    p_census.add_argument(
        "--out", metavar="CSV", default=None, help="write the per-formula census CSV"
    )
    p_census.add_argument(
        "--summary-out",
        metavar="JSON",
        default=None,
        help="write the deterministic summary (e.g. BENCH_census.json)",
    )
    p_census.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="exit 1 if any class/size column deviates from this baseline CSV",
    )
    p_census.add_argument(
        "--emit-corpus",
        metavar="DIR",
        default=None,
        help="regenerate the curated corpus files into DIR and exit",
    )
    p_census.add_argument(
        "--corpus-seed",
        type=int,
        default=1990,
        help="generator seed for --emit-corpus (default 1990)",
    )
    p_census.set_defaults(func=cmd_census)

    p_zoo = sub.add_parser("zoo", help="print the canonical Figure-1 witnesses")
    p_zoo.set_defaults(func=cmd_zoo)

    args = parser.parse_args(argv)
    if args.seed is not None:
        random.seed(args.seed)
    # Every failure a user can cause from the command line — a formula that
    # does not parse, a missing file, a refused connection — exits nonzero
    # with one line on stderr.  Tracebacks are for bugs, not for typos.
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ReproError, OSError, ValueError) as error:
        message = str(error).splitlines()[0] if str(error) else type(error).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
