"""Command-line front end: boundary resolution, change feeds, harvest,
compliance audits, registrar lookups, reconciliation, and the self-test
fixture server.

Conventions: structured output (JSON or XML) goes to stdout, diagnostics
to stderr. Exit 0 on success, 1 when verification fails (incomplete
harvest, failed audit, bibliographic mismatch, no entry page), 2 on bad
usage, 3 when the network or the store lets us down.

Settings resolve in order: command-line flag, environment (SGP_API_BASE,
SGP_STORE), ``--config`` JSON file, built-in default.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

from .auditor import Auditor, render_report
from .bibliography import (
    MalformedEntry,
    UnknownFormat,
    parse_bibtex,
    parse_crossref_json,
    parse_ris,
    reconcile,
)
from .codec import DECODE_ERRORS, SCHEMA_VERSION
from .crossref import (
    DEFAULT_API_BASE,
    CrossRefClient,
    CrossRefError,
    InvalidDoi,
    MalformedJson,
    MissingDoi,
    NotAWork,
    metadata_uri_for,
    normalize_doi,
    parse_work,
)
from .fixtures import FixtureSpec, serve
from .harvester import (  # noqa: F401 - perfbench/tracing.py wraps ingest here
    IngestMode,
    IngestStore,
    StoreFailure,
    SubstancePolicy,
    ingest,
    ingest_all,
    plan_from_feed,
)
from .links import MalformedLinkField, link_to_json
from .navigator import HttpError, NavigationError, SignpostClient
from .resources import DEFAULT_POLICY, NoEntryPage, ScholarlyObject
from .resourcesync import (
    ChangeDumpIndex,
    ChangeEvent,
    ChangeKind,
    ChangeList,
    ChangeListError,
    emit_change_list,
    emit_publisher_event,
    parse_change_list,
)
from .rfc3339 import format_rfc3339, parse_rfc3339, utcnow

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_UNAVAILABLE = 3

_REGISTRAR_FEED_PATH = "/registrar/changelist.xml"


class _Usage(Exception):
    """Operator error found after argparse: bad file, bad value."""


# a works-API answer that is no work document (DOI arguments are checked earlier)
_NOT_A_WORK = (MalformedJson, NotAWork, MissingDoi, InvalidDoi, MalformedEntry)


@contextlib.contextmanager
def _naming(uri: str):
    """Prefix ``uri`` to the message of a no-work error raised inside."""
    try:
        yield
    except _NOT_A_WORK as exc:
        raise type(exc)(f"{uri}: {exc}") from exc


# ------------------------------------------------------------- settings


def _pick(flag: str | None, env: str, config: dict, key: str) -> str | None:
    if flag is not None:
        return flag
    return os.environ.get(env) or (str(config[key]) if key in config else None)


def _settle(args: argparse.Namespace) -> None:
    """Settle ``--api-base`` and, where taken, ``--store``. The config file
    is read first, so an unreadable one is a usage error whatever the
    other flags say; ``api_base`` stays None when nothing names one."""
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise _Usage(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise _Usage(f"config {args.config} must hold a JSON object")
    args.api_base = _pick(args.api_base, "SGP_API_BASE", config, "api_base")
    if "store" in args:
        args.store = _pick(args.store, "SGP_STORE", config, "store")


def _api_base(args: argparse.Namespace) -> str:
    return DEFAULT_API_BASE if args.api_base is None else args.api_base


def _origin(uri: str) -> str:
    parts = urlsplit(uri)
    return f"{parts.scheme}://{parts.netloc}"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# -------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgp",
        description=(
            "Typed-link navigation, change feeds, and archival "
            "verification for scholarly objects."
        ),
    )
    sub = parser.add_subparsers(required=True, metavar="command")
    # options that several commands take, each declared once
    prefix = argparse.ArgumentParser(add_help=False)
    prefix.add_argument(
        "--persistent-prefix",
        action="append",
        default=[],
        metavar="PREFIX",
        help="extra URI prefix treated as a persistent identifier (repeatable)",
    )
    registrar = argparse.ArgumentParser(add_help=False)
    registrar.add_argument("--api-base", default=None, metavar="URI")
    registrar.add_argument("--config", default=None, metavar="FILE")

    p = sub.add_parser(
        "resolve",
        parents=[prefix],
        help="discover an object's boundary starting from any of its URIs",
    )
    p.add_argument("uri")
    p.set_defaults(run=_cmd_resolve)

    feed = sub.add_parser("feed", help="parse or emit change feeds")
    feed_sub = feed.add_subparsers(required=True, metavar="action")
    fp = feed_sub.add_parser("parse", help="normalize a change feed to JSON")
    fp.add_argument("source", help="file path or http(s) URI")
    fp.set_defaults(run=_cmd_feed_parse)
    fe = feed_sub.add_parser(
        "emit", help="render a one-event change feed for an object"
    )
    fe.add_argument(
        "--object",
        required=True,
        metavar="FILE",
        help="object description as JSON (the `resolve` output)",
    )
    fe.add_argument(
        "--change", choices=[kind.value for kind in ChangeKind], default="created"
    )
    fe.add_argument(
        "--when", default=None, metavar="RFC3339", help="event timestamp (default: now)"
    )
    fe.set_defaults(run=_cmd_feed_emit)

    h = sub.add_parser(
        "harvest",
        parents=[prefix, registrar],
        help="ingest every object a feed announces",
    )
    h.add_argument("--feed", required=True, metavar="URI")
    h.add_argument("--store", default=None, metavar="DIR")
    h.add_argument(
        "--policy", default=None, metavar="FILE", help="substance thresholds as JSON"
    )
    h.add_argument("--filter", dest="filter_tag", default=None, metavar="TAG")
    h.add_argument(
        "--dump",
        default=None,
        metavar="ZIP",
        help="replay from a change dump instead of fetching live",
    )
    h.add_argument(
        "--verify-live",
        action="store_true",
        help="with --dump, compare the dump against the live boundary",
    )
    h.set_defaults(run=_cmd_harvest)

    a = sub.add_parser(
        "audit",
        parents=[prefix, registrar],
        help="score an endpoint against the twelve recommendations",
    )
    a.add_argument("--entry", required=True, metavar="URI")
    a.add_argument("--publisher-feed", default=None, metavar="URI")
    a.add_argument("--registrar-feed", default=None, metavar="URI")
    a.add_argument("--format", choices=["text", "json"], default="text")
    a.set_defaults(run=_cmd_audit)

    c = sub.add_parser("crossref", help="registrar lookups")
    c_sub = c.add_subparsers(required=True, metavar="action")
    cw = c_sub.add_parser(
        "works", parents=[registrar], help="print the registrar's work document for a DOI"
    )
    cw.add_argument("doi")
    cw.set_defaults(run=_cmd_crossref_works)

    r = sub.add_parser(
        "reconcile",
        parents=[registrar],
        help="compare a bibliographic file against the registrar record",
    )
    r.add_argument("bibfile", help=".bib or .ris file")
    r.add_argument("doi")
    r.set_defaults(run=_cmd_reconcile)

    f = sub.add_parser("fixture", help="self-test web server")
    f_sub = f.add_subparsers(required=True, metavar="action")
    fs = f_sub.add_parser(
        "serve", help="serve the objects described by a spec file until interrupted"
    )
    fs.add_argument("spec", help="JSON file holding one server spec or a list of them")
    fs.add_argument("--port", type=int, default=0)
    fs.set_defaults(run=_cmd_fixture_serve)

    return parser


# ------------------------------------------------------------- commands


def _read_source(source: str, client: SignpostClient) -> bytes:
    if source.startswith(("http://", "https://")):
        return client.fetch_resource(source).body or b""
    try:
        return Path(source).read_bytes()
    except OSError as exc:
        raise _Usage(f"cannot read {source}: {exc}") from exc


def _event_json(event: ChangeEvent) -> dict:
    data = {
        "loc": event.loc,
        "change": event.kind.value,
        "datetime": format_rfc3339(event.datetime),
        "links": [link_to_json(link) for link in event.links],
    }
    if event.fixity is not None:
        data["fixity"] = event.fixity.token
    return data


def _cmd_resolve(args: argparse.Namespace) -> int:
    client = SignpostClient()
    policy = DEFAULT_POLICY.resolving_at(args.uri, *args.persistent_prefix)
    try:
        obj = client.discover_object(args.uri, policy=policy)
    except NoEntryPage as exc:
        _note(f"NoEntryPage: {exc}")
        return EXIT_VERIFICATION
    _emit_json({"schema_version": SCHEMA_VERSION, **obj.to_json_dict()})
    return EXIT_OK


def _cmd_feed_parse(args: argparse.Namespace) -> int:
    feed = parse_change_list(_read_source(args.source, SignpostClient()))
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "capability": feed.capability,
        "events": [_event_json(event) for event in feed.events],
    }
    if feed.from_time is not None:
        payload["from"] = format_rfc3339(feed.from_time)
    if feed.until_time is not None:
        payload["until"] = format_rfc3339(feed.until_time)
    _emit_json(payload)
    return EXIT_OK


def _cmd_feed_emit(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.object).read_text(encoding="utf-8"))
        obj = ScholarlyObject.from_json_dict(data)
    except (OSError, *DECODE_ERRORS) as exc:
        raise _Usage(f"cannot load object from {args.object}: {exc}") from exc
    if args.when:
        try:
            when = parse_rfc3339(args.when)
        except ValueError as exc:
            raise _Usage(f"bad --when: {exc}") from exc
    else:
        when = utcnow()
    event = emit_publisher_event(obj, ChangeKind(args.change), when)
    xml = emit_change_list(ChangeList(events=(event,)))
    sys.stdout.write(xml if xml.endswith("\n") else xml + "\n")
    return EXIT_OK


def _cmd_harvest(args: argparse.Namespace) -> int:
    if not args.store:
        raise _Usage("no store directory; pass --store or set SGP_STORE")

    substance = None
    if args.policy:
        try:
            substance = SubstancePolicy.from_json_dict(
                json.loads(Path(args.policy).read_text(encoding="utf-8"))
            )
        except (OSError, *DECODE_ERRORS) as exc:
            raise _Usage(f"cannot load policy {args.policy}: {exc}") from exc
    try:
        opened = ChangeDumpIndex(args.dump) if args.dump else contextlib.nullcontext()
    except OSError as exc:
        raise _Usage(f"cannot read dump {args.dump}: {exc}") from exc

    with opened as dump:
        client = SignpostClient()
        policy = DEFAULT_POLICY.resolving_at(args.feed, *args.persistent_prefix)
        feed = parse_change_list(client.fetch_resource(args.feed).body or b"")
        mode = IngestMode.DUMP if dump is not None else IngestMode.HARVEST
        tasks = plan_from_feed(feed, mode=mode, filter_tag=args.filter_tag, dump=dump)
        records = ingest_all(
            tasks,
            client,
            IngestStore(args.store),
            substance,
            CrossRefClient(client, _api_base(args)),
            resource_policy=policy,
            verify_live=args.verify_live,
        )
    # what _emit_json would print, with each record's stored text as its
    # entry instead of a second encoding of the same record
    print(
        '{"records": [%s], "schema_version": %s, "store": %s}'
        % (
            ", ".join(record.json_text for record in records),
            json.dumps(SCHEMA_VERSION),
            json.dumps(args.store),
        )
    )
    bad = [
        record
        for record in records
        if not record.tombstone
        and (
            not record.completeness.passed
            or not record.substance.passed
            or record.bibliography.matched is False
        )
    ]
    return EXIT_VERIFICATION if bad else EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    policy = DEFAULT_POLICY.resolving_at(args.entry, *args.persistent_prefix)
    # a stated feed is audited as given; the conventional locations are
    # only adopted when they answer, else the registrar side is scored
    # not-applicable
    candidates = []
    if args.registrar_feed is None:
        if args.api_base:
            candidates.append(args.api_base.rstrip("/") + _REGISTRAR_FEED_PATH)
        candidates.append(_origin(args.entry) + _REGISTRAR_FEED_PATH)
    report = Auditor(policy=policy).audit(
        args.entry,
        publisher_feed=args.publisher_feed,
        registrar_feed=args.registrar_feed,
        registrar_candidates=candidates,
    )
    print(render_report(report, fmt=args.format))
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def _works_uri(args: argparse.Namespace) -> tuple[str, str]:
    """The DOI argument, normalised, and its works-API URI."""
    try:
        doi = normalize_doi(args.doi)
    except InvalidDoi as exc:
        raise _Usage(f"bad DOI: {exc}") from exc
    return doi, metadata_uri_for(doi, api_base=_api_base(args))


def _cmd_crossref_works(args: argparse.Namespace) -> int:
    doi, uri = _works_uri(args)
    try:
        body = SignpostClient().fetch_resource(uri).body or b""
    except HttpError as exc:
        if exc.result.status == 404:
            _note(f"no work registered for {doi}")
            return EXIT_VERIFICATION
        raise
    with _naming(uri):
        try:
            document = json.loads(body)
        except ValueError as exc:
            raise MalformedJson(str(exc)) from exc
        parse_work(document)
    _emit_json(document)
    return EXIT_OK


_BIB_PARSERS = {".bib": parse_bibtex, ".ris": parse_ris}


def _cmd_reconcile(args: argparse.Namespace) -> int:
    path = Path(args.bibfile)
    parser = _BIB_PARSERS.get(path.suffix.lower())
    if parser is None:
        raise _Usage(
            f"cannot tell the format of {path.name}; expected .bib or .ris"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _Usage(f"cannot read {args.bibfile}: {exc}") from exc
    try:
        publisher = parser(text, source_uri=path.name)
    except (MalformedEntry, UnknownFormat) as exc:
        raise _Usage(f"cannot parse {args.bibfile}: {exc}") from exc
    _, uri = _works_uri(args)
    body = SignpostClient().fetch_resource(uri).body or b""
    with _naming(uri):
        registrar = parse_crossref_json(body, source_uri=uri)
    report = reconcile(publisher, registrar)
    _emit_json(report.to_json_dict())
    return EXIT_OK if report.matched else EXIT_VERIFICATION


def _cmd_fixture_serve(args: argparse.Namespace) -> int:
    try:
        data = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        raw = data if isinstance(data, list) else [data]
        specs = [FixtureSpec.from_json_dict(entry) for entry in raw]
    except (OSError, *DECODE_ERRORS) as exc:
        raise _Usage(f"cannot load fixture spec {args.spec}: {exc}") from exc
    if not specs:
        raise _Usage(f"{args.spec} describes no objects")
    # a shell starts background jobs with SIGINT ignored, and Python then
    # raises no KeyboardInterrupt; this command must stop on SIGINT anyway
    signal.signal(signal.SIGINT, signal.default_int_handler)
    endpoint = serve(*specs, port=args.port)
    try:
        # a SIGINT sent as soon as this line is read must still exit cleanly
        print(endpoint.base_uri, flush=True)
        while True:
            time.sleep(0.25)
    except KeyboardInterrupt:
        pass
    finally:
        endpoint.close()
    return EXIT_OK


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse wrote its own message; --help exits 0, errors 2
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if "config" in args:
            _settle(args)
        return args.run(args)
    except _Usage as exc:
        _note(f"usage error: {exc}")
        return EXIT_USAGE
    except (
        NavigationError,
        MalformedLinkField,
        ChangeListError,
        CrossRefError,
        StoreFailure,
        OSError,
        *_NOT_A_WORK,
    ) as exc:
        _note(f"error: {exc}")
        return EXIT_UNAVAILABLE


def main() -> None:
    sys.exit(run())
