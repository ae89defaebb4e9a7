"""Command-line interface: ``python -m repro.cli <command> …``.

Six subcommands expose the library's main workflows:

* ``check``   — evaluate a string formula on explicit strings::

      python -m repro.cli check --alphabet ab \\
          "([x,y]l(x = y))* . [x,y]l(x = y = eps)" x=abab y=abab

* ``query``   — run an alignment calculus query against a database
  stored as JSON (``{"relation": [["col1", "col2"], …], …}``)::

      python -m repro.cli query --alphabet acgt --db db.json \\
          --head x "exists y: R1(y, x) & [y]l(y = 'a') . [y]l(y = eps)"

* ``compile`` — show the Theorem 3.1 machine for a string formula
  (text listing or Graphviz DOT);
* ``limit``   — run the Theorem 5.2 limitation analysis;
* ``serve``   — run the long-lived query daemon (:mod:`repro.service`)
  over one database, with a session pool, cost-based admission
  control and per-request deadlines::

      python -m repro.cli serve --alphabet ab --db db.json --port 7094

* ``client``  — query a running daemon (or probe it with ``--health``
  / ``--stats`` / ``--explain``, or mutate it with ``--update``)::

      python -m repro.cli client --port 7094 --head x "R2(x)" --length 3
      python -m repro.cli client --port 7094 \
          --update '{"insert": {"R2": [["bb"]]}}'

  See ``docs/service.md`` for the wire protocol and the operations
  runbook.

``query`` exposes the observability layer
(:mod:`repro.observability`): ``--stats`` prints the legacy
cache/engine/parallel summary (including plan-rejection counts),
``--profile`` a per-stage time profile, ``--trace`` the full span
tree, and ``--metrics-out PATH`` writes the schema-stable JSON
:class:`~repro.observability.TraceReport`.  ``--explain`` prints the
normalized :mod:`repro.ir` plan — cost estimates, fired rewrite rules
and the optimized algebra expression — instead of evaluating.
``--storage ngram`` (optionally with ``--index-dir``) loads relations
into the positional n-gram index backend (:mod:`repro.storage`) the
plan's join steps probe for pushed-down selection factors; ``--storage slp``
holds every cell as a straight-line program (:mod:`repro.slp`).
All human-readable instrumentation goes to stderr so stdout stays a
clean tuple stream.

Formulas use the concrete syntax of :mod:`repro.core.parser`.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.alphabet import Alphabet
from repro.core.database import Database
from repro.core.parser import parse_formula, parse_string_formula
from repro.core.query import Query
from repro.core.semantics import check_string_formula
from repro.core.syntax import string_variables
from repro.engine import QueryEngine, available_engines
from repro.errors import ReproError
from repro.observability import Tracer
from repro.storage import STORAGE_KINDS, storage_factory


def _alphabet(text: str) -> Alphabet:
    return Alphabet(text)


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_bindings(pairs: list[str]) -> dict[str, str]:
    bindings: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"binding {pair!r} must look like var=string")
        name, _, value = pair.partition("=")
        bindings[name] = value
    return bindings


def cmd_check(args: argparse.Namespace) -> int:
    alphabet = _alphabet(args.alphabet)
    formula = parse_string_formula(args.formula)
    env = _parse_bindings(args.bindings)
    missing = string_variables(formula) - set(env)
    if missing:
        raise ReproError(f"missing bindings for {sorted(missing)}")
    for value in env.values():
        alphabet.validate_string(value)
    verdict = check_string_formula(formula, env)
    print("satisfied" if verdict else "not satisfied")
    return 0 if verdict else 1


def cmd_query(args: argparse.Namespace) -> int:
    """Run one query; print answers to stdout, instrumentation to stderr."""
    alphabet = _alphabet(args.alphabet)
    factory = None
    if args.storage != "memory" or args.index_dir:
        factory = storage_factory(args.storage, index_dir=args.index_dir)
    database = Database.from_json(args.db, alphabet, storage_factory=factory)
    formula = parse_formula(args.formula)
    query = Query(tuple(args.head), formula, alphabet)
    tracing = bool(args.trace or args.profile or args.metrics_out)
    session = QueryEngine(tracer=Tracer() if tracing else None)
    if args.explain:
        from repro.ir.explain import explain_query

        print(explain_query(session, query, database, length=args.length))
        return 0
    answers = session.evaluate(
        query,
        database,
        length=args.length,
        engine=args.engine,
        workers=args.workers,
    )
    for row in sorted(answers):
        print("\t".join(value if value else "ε" for value in row))
    print(f"-- {len(answers)} tuple(s)", file=sys.stderr)
    report = session.trace_report()
    if args.stats:
        print(report.summary(), file=sys.stderr)
    if args.profile:
        print(report.describe(), file=sys.stderr)
    if args.trace:
        print(report.tree(), file=sys.stderr)
    if args.metrics_out:
        report.write(args.metrics_out)
        print(f"-- metrics written to {args.metrics_out}", file=sys.stderr)
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.fsa.compile import compile_string_formula
    from repro.fsa.render import to_dot, to_text

    alphabet = _alphabet(args.alphabet)
    formula = parse_string_formula(args.formula)
    compiled = compile_string_formula(formula, alphabet)
    if args.dot:
        print(to_dot(compiled.fsa))
    else:
        print(f"tapes: {', '.join(compiled.variables)}")
        print(to_text(compiled.fsa))
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    from repro.safety.limitation import formula_limitation

    alphabet = _alphabet(args.alphabet)
    formula = parse_string_formula(args.formula)
    report = formula_limitation(
        formula, args.inputs, args.outputs, alphabet
    )
    print(f"limited: {report.limited}")
    print(f"reason:  {report.reason}")
    if report.crossing_size is not None:
        print(f"|A″|:    {report.crossing_size}")
    if report.limited:
        print(f"bound:   {report.limit.describe()}")
    return 0 if report.limited else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the query daemon until SIGINT/SIGTERM, then drain."""
    import asyncio
    import signal

    from repro.service import QueryService

    alphabet = _alphabet(args.alphabet)
    factory = None
    if args.storage != "memory" or args.index_dir:
        factory = storage_factory(args.storage, index_dir=args.index_dir)
    database = Database.from_json(args.db, alphabet, storage_factory=factory)

    async def run() -> None:
        service = QueryService(
            database,
            host=args.host,
            port=args.port,
            pool_size=args.pool_size,
            max_cost=args.max_cost,
            max_queue=args.max_queue,
            default_deadline=args.deadline,
            default_workers=args.workers,
            report_log=args.report_log,
        )
        await service.start()
        host, port = service.address
        print(f"-- serving {args.db} on {host}:{port}", file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        print("-- draining", file=sys.stderr)
        await service.drain()
        print("-- drained, bye", file=sys.stderr)

    asyncio.run(run())
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """One request against a running daemon; rows to stdout."""
    import json as _json

    from repro.errors import ServiceError
    from repro.service import ServiceClient

    try:
        connection = ServiceClient(args.host, args.port, timeout=args.timeout)
    except OSError as error:
        raise ServiceError(
            f"cannot reach {args.host}:{args.port}: {error}"
        ) from error
    with connection as client:
        if args.health:
            print(_json.dumps(client.health(), indent=2, sort_keys=True))
            return 0
        if args.stats:
            print(_json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.update is not None:
            try:
                delta = _json.loads(args.update)
            except _json.JSONDecodeError as error:
                raise ReproError(
                    f"--update must be a JSON object: {error}"
                ) from error
            if not isinstance(delta, dict):
                raise ReproError(
                    "--update must be a JSON object with 'insert' "
                    "and/or 'delete' keys"
                )
            result = client.update(
                insert=delta.get("insert"),
                delete=delta.get("delete"),
                deadline=args.deadline,
            )
            print(_json.dumps(result, indent=2, sort_keys=True))
            return 0
        if not args.formula:
            raise ReproError(
                "a formula is required unless --health, --stats or "
                "--update is given"
            )
        if args.explain:
            print(
                client.explain(
                    args.formula,
                    args.head,
                    length=args.length,
                    deadline=args.deadline,
                )
            )
            return 0
        rows = client.query(
            args.formula,
            args.head,
            length=args.length,
            engine=args.engine,
            workers=args.workers,
            deadline=args.deadline,
        )
        for row in rows:
            print("\t".join(value if value else "ε" for value in row))
        print(f"-- {len(rows)} tuple(s)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Alignment calculus for string databases "
        "(Grahne, Nykänen & Ukkonen, PODS 1994).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate a string formula")
    check.add_argument("--alphabet", required=True, help="e.g. 'acgt'")
    check.add_argument("formula", help="string formula (concrete syntax)")
    check.add_argument("bindings", nargs="+", help="var=string pairs")
    check.set_defaults(handler=cmd_check)

    query = sub.add_parser("query", help="run a query against a JSON database")
    query.add_argument("--alphabet", required=True)
    query.add_argument("--db", required=True, help="JSON file of relations")
    query.add_argument(
        "--head",
        required=True,
        type=_comma_list,
        help="answer variables, comma separated, in order",
    )
    query.add_argument(
        "--length",
        type=int,
        default=None,
        help="truncation bound (default: certified by the safety analysis)",
    )
    query.add_argument(
        "--engine",
        choices=available_engines(),
        default="auto",
        help="evaluation engine from the repro.engine registry "
        "(default: auto — executes the normalized plan at --length "
        "or the certified bound, naive fallback for plans that "
        "degrade; naive and algebra are the paper's reference "
        "routes)",
    )
    query.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for sharded evaluation by the auto "
        "engine (default: one per CPU this process may use; auto "
        "pools only expensive plan branches and candidate spaces, 1 "
        "forces sequential, the other engines ignore it). Answers are "
        "identical for every worker count.",
    )
    query.add_argument(
        "--storage",
        choices=STORAGE_KINDS,
        default="memory",
        help="relation storage backend (default: memory — plain "
        "frozensets; ngram builds positional n-gram indexes the "
        "plan's join steps probe for pushed-down selection factors; slp "
        "compresses cells into straight-line programs with "
        "grammar-extracted prefilters). Answers are identical for "
        "every backend.",
    )
    query.add_argument(
        "--index-dir",
        metavar="DIR",
        default=None,
        help="with --storage ngram: persist the index artifacts under "
        "DIR (built once, mmap'd read-only on later runs and shared "
        "by parallel workers)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the normalized plan (with cost estimates and "
        "fired rewrite rules) and the optimized algebra expression "
        "instead of evaluating",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print engine cache/timing and parallel-execution "
        "instrumentation to stderr",
    )
    query.add_argument(
        "--trace",
        action="store_true",
        help="record the evaluation as hierarchical spans and print "
        "the span tree to stderr",
    )
    query.add_argument(
        "--profile",
        action="store_true",
        help="record spans and print a per-pipeline-stage time "
        "profile (plus counters and gauges) to stderr",
    )
    query.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="record spans and write the JSON TraceReport "
        "(schema repro.trace-report/3) to PATH",
    )
    query.add_argument("formula")
    query.set_defaults(handler=cmd_query)

    compile_ = sub.add_parser("compile", help="show the Theorem 3.1 machine")
    compile_.add_argument("--alphabet", required=True)
    compile_.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    compile_.add_argument("formula")
    compile_.set_defaults(handler=cmd_compile)

    limit = sub.add_parser("limit", help="Theorem 5.2 limitation analysis")
    limit.add_argument("--alphabet", required=True)
    limit.add_argument(
        "--inputs",
        type=_comma_list,
        default=[],
        help="input variables, comma separated",
    )
    limit.add_argument(
        "--outputs",
        type=_comma_list,
        required=True,
        help="output variables, comma separated",
    )
    limit.add_argument("formula")
    limit.set_defaults(handler=cmd_limit)

    from repro.service.pool import DEFAULT_POOL_SIZE
    from repro.service.protocol import DEFAULT_PORT

    serve = sub.add_parser(
        "serve", help="run the query daemon (see docs/service.md)"
    )
    serve.add_argument("--alphabet", required=True)
    serve.add_argument("--db", required=True, help="JSON file of relations")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port (default {DEFAULT_PORT}; 0 picks a free port)",
    )
    serve.add_argument(
        "--pool-size",
        type=int,
        default=DEFAULT_POOL_SIZE,
        help="concurrently evaluating requests "
        f"(default {DEFAULT_POOL_SIZE}); all share one warm session",
    )
    serve.add_argument(
        "--max-cost",
        type=float,
        default=None,
        help="admission ceiling on the IR cost estimate (default: "
        "no cost-based rejection)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="max requests waiting for a slot before 'queue-full' "
        "rejections (default 64)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request deadline in seconds, queue wait "
        "included (default: none; clients may set their own)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="default worker processes for sharded evaluation",
    )
    serve.add_argument(
        "--storage", choices=STORAGE_KINDS, default="memory"
    )
    serve.add_argument("--index-dir", metavar="DIR", default=None)
    serve.add_argument(
        "--report-log",
        metavar="PATH",
        default=None,
        help="append one JSON TraceReport line per request to PATH",
    )
    serve.set_defaults(handler=cmd_serve)

    client = sub.add_parser(
        "client", help="query a running daemon (see docs/service.md)"
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=DEFAULT_PORT)
    client.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="socket timeout in seconds (default 30)",
    )
    client.add_argument(
        "--head",
        type=_comma_list,
        default=[],
        help="answer variables, comma separated, in order",
    )
    client.add_argument("--length", type=int, default=None)
    client.add_argument(
        "--engine", choices=available_engines(), default=None
    )
    client.add_argument("--workers", type=int, default=None)
    client.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="server-side deadline in seconds for this request",
    )
    client.add_argument(
        "--explain",
        action="store_true",
        help="print the server's plan explanation instead of rows",
    )
    client.add_argument(
        "--health", action="store_true", help="print the health document"
    )
    client.add_argument(
        "--stats", action="store_true", help="print service statistics"
    )
    client.add_argument(
        "--update",
        metavar="JSON",
        default=None,
        help="apply a delta: a JSON object with 'insert' and/or "
        "'delete' mapping relation names to row lists, e.g. "
        '\'{"insert": {"R": [["ab", "b"]]}}\'',
    )
    client.add_argument("formula", nargs="?", default=None)
    client.set_defaults(handler=cmd_client)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The consumer closed stdout early (e.g. `repro client … | head`);
        # park stdout on devnull so the interpreter's shutdown flush
        # doesn't raise again, and exit quietly like other filters do.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
