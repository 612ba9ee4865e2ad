"""Ingest pipeline: feeds in, verified records out.

Change feeds become ingest tasks. One pipeline runs every task over a
byte source: ``_LiveSource`` discovers the object's boundary and fetches
its members over HTTP, ``_DumpSource`` reconstructs both from a Change
Dump. Either way the pipeline fetches every publication resource,
answers the three ingest questions (manifest, completeness,
bibliography), applies substance thresholds, and persists a versioned
record with content-addressed payloads.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import io
import json
import os
import threading
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence
from urllib.parse import quote, unquote

from .bibliography import (
    BibRecord,
    MalformedEntry,
    ReconciliationReport,
    UnknownFormat,
    from_crossref,
    parse_crossref_json,
    parser_for,
    reconcile,
)
from .codec import DECODE_ERRORS, OMIT, SCHEMA_VERSION, Record
from .crossref import (
    CROSSREF_PROFILE,
    CrossRefError,
    CrossRefWork,
    InvalidDoi,
    MalformedJson,
    normalize_doi,
)
from .fixity import (
    FixityInfo,
    FixityVerdict,
    UnsupportedAlgorithm,
    verify_fixity,
)
from .links import MalformedLinkField
from .navigator import HttpError, NavigationError
from .resources import (
    DEFAULT_POLICY,
    NoEntryPage,
    ResourceDescriptor,
    ResourcePolicy,
    ResourceRole,
    ScholarlyObject,
    entry_is_content,
    object_from_links,
    validate_object,
)
from .resourcesync import (  # noqa: F401 - perfbench/tracing.py wraps unpack_change_dump here
    ChangeDumpIndex,
    ChangeEvent,
    ChangeKind,
    ChangeList,
    CorruptArchive,
    emit_publisher_event,
    emit_resource_event,
    pack_change_dump,
    unpack_change_dump,
)
from .rfc3339 import format_rfc3339, utcnow

__all__ = [
    "IngestMode",
    "IngestTask",
    "FetchSummary",
    "CompletenessReport",
    "BibliographyReport",
    "SubstanceRule",
    "SubstancePolicy",
    "SubstanceReport",
    "IngestRecord",
    "IngestStore",
    "StoreFailure",
    "UnknownKey",
    "plan_from_feed",
    "ingest",
    "ingest_all",
    "REGISTRAR_WINDOW",
    "pack_object_dump",
]


class StoreFailure(RuntimeError):
    pass


class UnknownKey(KeyError):
    pass


class IngestMode(enum.Enum):
    HARVEST = "harvest"
    DUMP = "dump"


@dataclass(frozen=True)
class IngestTask:
    """One unit of work derived from a feed event.

    ``dump`` is an open ChangeDumpIndex, which every task of one replay
    can share, or the raw bytes of a dump holding this task's object.
    """

    trigger: ChangeEvent
    mode: IngestMode = IngestMode.HARVEST
    filter_tag: str | None = None
    dump: ChangeDumpIndex | bytes | None = None

    @property
    def tombstone(self) -> bool:
        return self.trigger.kind == ChangeKind.DELETED


def plan_from_feed(
    feed: ChangeList,
    *,
    mode: IngestMode = IngestMode.HARVEST,
    filter_tag: str | None = None,
    dump: ChangeDumpIndex | bytes | None = None,
) -> list[IngestTask]:
    """One task per event; Deleted events become tombstone tasks. Order
    follows the feed."""
    return [
        IngestTask(
            trigger=event,
            mode=mode,
            filter_tag=filter_tag,
            dump=dump if mode is IngestMode.DUMP else None,
        )
        for event in feed.events
    ]


# --------------------------------------------------------- record pieces


@dataclass(frozen=True)
class FetchSummary(Record):
    """What one fetch attempt produced; status None means no response."""

    uri: str
    status: int | None
    sha256: str | None = field(default=None, metadata=OMIT)
    length: int | None = field(default=None, metadata=OMIT)
    media_type: str | None = field(default=None, metadata=OMIT)
    fetched_at: datetime | None = field(default=None, metadata=OMIT)

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300


@dataclass(frozen=True)
class CompletenessReport(Record):
    """Was everything that should have been ingested ingested?

    ``violations`` are structural findings over the boundary;
    ``failures`` are (uri, reason) pairs for resources that could not be
    ingested intact.
    """

    passed: bool
    violations: tuple[str, ...] = ()
    failures: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class BibliographyReport(Record):
    """Reconciliation outcome plus the record chosen as authoritative.

    The registrar record is the baseline; a missing publisher record is
    a note, not a failure. ``matched`` is None when there was nothing to
    compare.
    """

    matched: bool | None
    report: ReconciliationReport | None = None
    record: BibRecord | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SubstanceRule(Record):
    min_pdf_count: int = 0
    min_html_count: int = 0
    min_pdf_bytes: int = 0
    min_html_bytes: int = 0

    def __post_init__(self) -> None:
        for name in ("min_pdf_count", "min_html_count", "min_pdf_bytes", "min_html_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def _rules_to_json(rules: tuple[tuple[str, SubstanceRule], ...]) -> dict:
    return {name: rule.to_json_dict() for name, rule in rules}


def _rules_from_json(data: dict) -> tuple[tuple[str, SubstanceRule], ...]:
    return tuple((name, SubstanceRule.from_json_dict(rule)) for name, rule in data.items())


@dataclass(frozen=True)
class SubstancePolicy(Record):
    """Per-tag expectations on how much content an object should carry."""

    rules: tuple[tuple[str, SubstanceRule], ...] = field(
        default=(), metadata={"encode": _rules_to_json, "decode": _rules_from_json}
    )
    default: SubstanceRule | None = None

    def rule_for(self, tag: str | None) -> SubstanceRule | None:
        if tag is not None:
            for name, rule in self.rules:
                if name == tag:
                    return rule
        return self.default


@dataclass(frozen=True)
class SubstanceReport(Record):
    passed: bool
    configured: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class IngestRecord(Record):
    """Everything one ingest run learned about one object."""

    object: ScholarlyObject
    trigger_loc: str = field(metadata={"key": ("trigger", "loc")})
    trigger_kind: ChangeKind = field(metadata={"key": ("trigger", "change")})
    trigger_datetime: datetime = field(metadata={"key": ("trigger", "datetime")})
    mode: IngestMode
    completeness: CompletenessReport
    bibliography: BibliographyReport
    substance: SubstanceReport
    fetches: tuple[FetchSummary, ...] = ()
    filter_tag: str | None = None
    tombstone: bool = False
    created_at: datetime = field(default_factory=utcnow)
    schema_version: int = SCHEMA_VERSION

    @property
    def key(self) -> str:
        return self.object.identifying_uri or self.object.entry_page.uri

    @cached_property
    def json_text(self) -> str:
        """The record as one line of sorted JSON, encoded once: the
        store writes it as the version file, the CLI copies it into the
        harvest document."""
        return json.dumps(self.to_json_dict(), sort_keys=True)


# --------------------------------------------------------- persistence


class IngestStore:
    """Directory-backed store: content-addressed payloads, versioned
    JSON records, append-only journal.

    Layout: ``payloads/<aa>/<sha256>``, ``records/<quoted-key>/<n>.json``,
    ``journal.log``. Records are never overwritten, also by concurrent
    writers: each version file is created exclusively, and re-ingest
    takes the next free version. Payload and record files are created
    with ``O_CREAT|O_EXCL``; each journal line is one ``O_APPEND`` write.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        try:
            (self.root / "payloads").mkdir(parents=True, exist_ok=True)
            (self.root / "records").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreFailure(f"cannot initialise store at {root}: {exc}") from exc
        # the write path joins and opens str paths with os calls
        self._payloads = os.path.join(self.root, "payloads")
        self._records = os.path.join(self.root, "records")
        self._journal = os.path.join(self.root, "journal.log")
        self._journal_lock = threading.Lock()

    # -- payloads

    def payload_path(self, digest: str) -> Path:
        return Path(self._payloads, digest[:2], digest)

    def store_payload(self, data: bytes) -> str:
        digest = hashlib.sha256(data).hexdigest()
        shard = f"{self._payloads}/{digest[:2]}"
        path = f"{shard}/{digest}"
        try:
            try:
                _write(path, _NEW, data)
            except FileNotFoundError:
                # first payload in this shard
                with contextlib.suppress(FileExistsError):
                    os.mkdir(shard)
                _write(path, _NEW, data)
        except FileExistsError:
            pass  # content-addressed: the same bytes are already stored
        except OSError as exc:
            raise StoreFailure(f"cannot store payload {digest}: {exc}") from exc
        return digest

    def load_payload(self, digest: str) -> bytes:
        path = self.payload_path(digest)
        if not path.exists():
            raise UnknownKey(digest)
        return path.read_bytes()

    # -- records

    def _record_dir(self, key: str) -> str:
        return f"{self._records}/{quote(key, safe='')}"

    def _key_dir(self, key: str) -> Path:
        return Path(self._record_dir(key))

    def keys(self) -> list[str]:
        return sorted(unquote(p.name) for p in (self.root / "records").iterdir())

    def versions(self, key: str) -> list[int]:
        directory = self._key_dir(key)
        if not directory.is_dir():
            return []
        return sorted(int(p.stem) for p in directory.glob("*.json"))

    def save_record(self, record: IngestRecord) -> str:
        key = record.key
        directory = self._record_dir(key)
        data = f"{record.json_text}\n".encode()
        try:
            try:
                os.mkdir(directory)
                version = 1
            except FileExistsError:
                version = (self.versions(key) or [0])[-1] + 1
            # the listing may be stale under concurrent writers: exclusive
            # creation decides, and only a taken version moves us on
            while True:
                try:
                    _write(f"{directory}/{version:04d}.json", _NEW, data)
                    break
                except FileExistsError:
                    version += 1
            kind = "tombstone" if record.tombstone else record.mode.value
            line = f"{format_rfc3339(record.created_at)}\t{key}\t{version}\t{kind}\n"
            with self._journal_lock:
                _write(self._journal, _APPEND, line.encode())
        except OSError as exc:
            raise StoreFailure(f"cannot save record for {key}: {exc}") from exc
        return key

    def load_record(self, key: str, version: int | None = None) -> IngestRecord:
        versions = self.versions(key)
        if not versions:
            raise UnknownKey(key)
        if version is None:
            version = versions[-1]
        elif version not in versions:
            raise UnknownKey(f"{key} version {version}")
        path = self._key_dir(key) / f"{version:04d}.json"
        return IngestRecord.from_json_dict(json.loads(path.read_text(encoding="utf-8")))

    def journal_entries(self) -> list[tuple[str, str, int, str]]:
        path = self.root / "journal.log"
        if not path.exists():
            return []
        text = path.read_bytes().decode("utf-8")
        entries = []
        # "\n" alone ends a line: a key may hold U+0085 (from a Location) or U+2028
        for line in text.removesuffix("\n").split("\n") if text else ():
            stamp, key, version, kind = line.split("\t")
            entries.append((stamp, key, int(version), kind))
        return entries

    def fsck(self) -> list[str]:
        """Recompute every payload digest and re-parse every record;
        returns a list of problems, empty when the store is clean."""
        problems: list[str] = []
        for entry in _files_in_path_order(self._payloads):
            digest = hashlib.sha256(_read(entry.path)).hexdigest()
            if digest != entry.name:
                problems.append(f"payload {entry.name}: content digest {digest}")
        for directory in sorted((self.root / "records").iterdir()):
            for path in sorted(directory.glob("*.json")):
                try:
                    text = _read(path).decode("utf-8")
                    if "\r" in text:
                        # newlines as a text-mode read gives them, so the
                        # positions in a parse error are the same
                        text = text.replace("\r\n", "\n").replace("\r", "\n")
                    IngestRecord.from_json_dict(json.loads(text))
                except DECODE_ERRORS as exc:
                    problems.append(f"record {directory.name}/{path.name}: {exc}")
        return problems


# store files are created exclusively, never opened again for writing;
# the journal only grows
_NEW = os.O_WRONLY | os.O_CREAT | os.O_EXCL
_APPEND = os.O_WRONLY | os.O_CREAT | os.O_APPEND


def _write(path: str, flags: int, data: bytes) -> None:
    """Open ``path`` with ``flags`` and write all of ``data``: one
    ``os.write`` may write less than it is given."""
    fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


def _read(path: str | os.PathLike) -> bytes:
    with open(path, "rb", buffering=0) as handle:
        return handle.readall()


def _files_in_path_order(directory: str | os.PathLike) -> Iterator[os.DirEntry]:
    """Every file below ``directory`` in the order ``sorted(rglob("*"))``
    gives: depth first, each directory's entries by name, symlinked
    directories not entered."""
    with os.scandir(directory) as listing:
        entries = sorted(listing, key=attrgetter("name"))
    for entry in entries:
        if entry.is_dir(follow_symlinks=False):
            yield from _files_in_path_order(entry.path)
        elif entry.is_file():
            yield entry


# --------------------------------------------------------- verdicts


def _substance(
    fetches: tuple[FetchSummary, ...],
    tag: str | None,
    policy: SubstancePolicy | None,
) -> SubstanceReport:
    rule = policy.rule_for(tag) if policy is not None else None
    if rule is None:
        return SubstanceReport(True, False, ("no substance thresholds configured",))

    def count(media: str, floor: int) -> int:
        return sum(
            1
            for f in fetches
            if f.ok and f.media_type == media and (f.length or 0) >= floor
        )

    pdfs = count("application/pdf", rule.min_pdf_bytes)
    htmls = count("text/html", rule.min_html_bytes)
    notes = (
        f"pdf: {pdfs} of >= {rule.min_pdf_count} (each >= {rule.min_pdf_bytes} bytes)",
        f"html: {htmls} of >= {rule.min_html_count} (each >= {rule.min_html_bytes} bytes)",
    )
    passed = pdfs >= rule.min_pdf_count and htmls >= rule.min_html_count
    return SubstanceReport(passed, True, notes)


def _completeness(
    obj: ScholarlyObject,
    fetches: list[FetchSummary],
    failures: list[tuple[str, str]],
    policy: ResourcePolicy,
) -> CompletenessReport:
    violations = validate_object(obj, policy=policy)
    rendered = tuple(
        f"{v.severity}: {v.kind.value}"
        + (f" at {v.uri}" if v.uri else "")
        + (f" ({v.detail})" if v.detail else "")
        for v in violations
    )
    pub_uris = set(obj.publication_uris)
    summaries = {f.uri: f for f in fetches}
    pubs_ok = all(
        uri in summaries and summaries[uri].ok for uri in pub_uris
    )
    failed_pubs = any(uri in pub_uris for uri, _ in failures)
    major = any(v.severity == "major" for v in violations)
    return CompletenessReport(
        passed=pubs_ok and not failed_pubs and not major,
        violations=rendered,
        failures=tuple(failures),
    )


# --------------------------------------------------------- ingest


def _doi_from_identifying(uri: str, policy: ResourcePolicy) -> str | None:
    candidate = policy.identifier_in(uri)
    if candidate is None:
        return None
    try:
        return normalize_doi(candidate)
    except InvalidDoi:
        return None


def _registrar_target(obj: ScholarlyObject) -> str | None:
    for bib in obj.bibliographic_resources:
        if bib.profile == CROSSREF_PROFILE:
            return bib.uri
    return None


def _minimal_object(loc: str) -> ScholarlyObject:
    return ScholarlyObject(
        entry_page=ResourceDescriptor(uri=loc, role=ResourceRole.ENTRY_PAGE)
    )


def _base_record(
    task: IngestTask,
    obj: ScholarlyObject,
    fetches: list[FetchSummary],
    completeness: CompletenessReport,
    bibliography: BibliographyReport,
    substance: SubstanceReport,
) -> IngestRecord:
    return IngestRecord(
        object=obj,
        trigger_loc=task.trigger.loc,
        trigger_kind=task.trigger.kind,
        trigger_datetime=task.trigger.datetime,
        mode=task.mode,
        completeness=completeness,
        bibliography=bibliography,
        substance=substance,
        fetches=tuple(fetches),
        filter_tag=task.filter_tag,
    )


# at most this many tasks wait for one works-list request
REGISTRAR_WINDOW = 100


def ingest_all(
    tasks: Sequence[IngestTask],
    nav,
    store: IngestStore,
    policy: SubstancePolicy | None = None,
    registrar=None,
    *,
    resource_policy: ResourcePolicy = DEFAULT_POLICY,
    verify_live: bool = False,
) -> list[IngestRecord]:
    """Run every task, tombstones included, and persist the outcomes in
    task order.

    Tasks go in windows of at most ``REGISTRAR_WINDOW``. Each task of a
    window is gathered first: boundary, payloads, publisher metadata.
    Then one works-list request looks up, through ``registrar``, every
    DOI the window's live tasks need (see ``_registrar_lookup``): that of
    a describedby link to the registrar's own works document, which is
    then not fetched (``CrossRefClient.doi_at``), else that of the
    identifying URI. Each record is finished and saved in order. A
    harvest task reads its bytes over HTTP through ``nav``; a dump task
    reads them from ``task.dump`` and makes no registrar lookup, so a
    replay stays offline unless ``verify_live`` asks ``nav`` to check
    the dump's boundary against the live one. Per-resource trouble is
    recorded in the returned records, not raised; only store trouble
    (and misuse, like a dump task without a dump) raises.
    """
    records: list[IngestRecord] = []
    for start in range(0, len(tasks), REGISTRAR_WINDOW):
        window = tasks[start : start + REGISTRAR_WINDOW]
        gathered = [
            _tombstone(task)
            if task.tombstone
            else _gather(task, nav, store, policy, registrar, resource_policy, verify_live)
            for task in window
        ]
        lookup = _registrar_lookup(
            registrar, [g.doi for g in gathered if isinstance(g, _Gathered)]
        )
        for got in gathered:
            record = got if isinstance(got, IngestRecord) else _finish(got, lookup)
            store.save_record(record)
            records.append(record)
    return records


def ingest(
    task: IngestTask,
    nav,
    store: IngestStore,
    policy: SubstancePolicy | None = None,
    registrar=None,
    *,
    resource_policy: ResourcePolicy = DEFAULT_POLICY,
    verify_live: bool = False,
) -> IngestRecord:
    """Run one task end to end and persist the outcome: ``ingest_all``
    with a window of one, so a registrar lookup is one ``fetch_work``
    and a Deleted event is recorded as a tombstone."""
    (record,) = ingest_all(
        [task],
        nav,
        store,
        policy,
        registrar,
        resource_policy=resource_policy,
        verify_live=verify_live,
    )
    return record


def _gather(
    task: IngestTask,
    nav,
    store: IngestStore,
    policy: SubstancePolicy | None,
    registrar,
    resource_policy: ResourcePolicy,
    verify_live: bool,
) -> IngestRecord | _Gathered:
    if task.mode is IngestMode.HARVEST:
        source = _LiveSource(nav, task.trigger)
        return _collect(task, source, store, policy, registrar, resource_policy)
    if task.dump is None:
        raise ValueError("dump-mode task without dump bytes")
    opened = (
        contextlib.nullcontext(task.dump)
        if isinstance(task.dump, ChangeDumpIndex)
        else ChangeDumpIndex(io.BytesIO(task.dump))
    )
    with opened as index:
        source = _DumpSource(index, task.trigger, nav if verify_live else None)
        return _collect(task, source, store, policy, None, resource_policy)


class _Got(NamedTuple):
    """What a source gives for one URI: the body, or why there is none.

    ``fixity`` is what the source knows the body should hash to.
    """

    status: int | None
    body: bytes | None = None
    reason: str | None = None
    media_type: str | None = None
    fetched_at: datetime | None = None
    fixity: FixityInfo | None = None


class _LiveSource:
    """Bytes over HTTP through a navigator memoised for this one task:
    discovery GETs each item, and the start too when the event types it
    as content, and the fetch stage's GETs of the same URIs are answered
    from the memo, so every member is requested once."""

    def __init__(self, nav, trigger: ChangeEvent):
        self._nav = nav.memoised()
        self._trigger = trigger

    def boundary(self, policy: ResourcePolicy) -> ScholarlyObject:
        # an entry the event types as content is downloaded anyway, so
        # one GET serves both its links and its body
        trigger = self._trigger
        return self._nav.discover_object(
            trigger.loc,
            policy=policy,
            get_items=True,
            get_start=entry_is_content(trigger.links, policy),
        )

    def get(self, uri: str) -> _Got:
        try:
            result = self._nav.fetch_resource(uri)
        except HttpError as err:
            return _Got(
                err.result.status,
                reason=f"HTTP {err.result.status}",
                media_type=err.result.media_type,
                fetched_at=err.result.fetched_at,
            )
        except NavigationError as err:
            return _Got(None, reason=str(err))
        fixity = self._trigger.fixity if uri == self._trigger.loc else None
        return _Got(
            result.status,
            result.body,
            media_type=result.media_type,
            fetched_at=result.fetched_at,
            fixity=fixity,
        )


class _DumpSource:
    """Bytes from a Change Dump: the boundary comes from the event's
    links, each member's fixity from its manifest entry. With ``verify``
    (a navigator), the boundary is also checked against the live one."""

    def __init__(self, index: ChangeDumpIndex, trigger: ChangeEvent, verify):
        self._index = index
        self._trigger = trigger
        self._verify = verify
        self._stamp = utcnow()

    def boundary(self, policy: ResourcePolicy) -> ScholarlyObject:
        loc = self._trigger.loc
        links = self._trigger.links
        own = self._index.entry(loc)
        if not links and own is not None:
            links = own[1].links
        obj = object_from_links(
            loc, links, policy=policy, entry_media_type=self._index.entry_media_type(loc)
        )
        if self._verify is None:
            return obj
        try:
            live = self._verify.discover_object(loc, policy=policy)
        except (NoEntryPage, NavigationError, MalformedLinkField) as exc:
            failure = (loc, f"live verification failed: {exc}")
        else:
            if set(live.publication_uris) == set(obj.publication_uris):
                return obj
            failure = (loc, "live boundary differs from dump manifest")
        return replace(obj, failures=obj.failures + (failure,))

    def get(self, uri: str) -> _Got:
        found = self._index.entry(uri)
        if found is None or found[0] is None:
            return _Got(None, reason="missing from dump")
        path, event = found
        try:
            body = self._index.read(path)
        except CorruptArchive as exc:
            return _Got(None, reason=f"unreadable in dump: {exc}")
        return _Got(200, body, fetched_at=self._stamp, fixity=event.fixity)


def _bibliography_verdict(
    registrar_record: BibRecord | None,
    publisher_record: BibRecord | None,
    notes: list[str],
) -> BibliographyReport:
    if registrar_record is not None and publisher_record is not None:
        report = reconcile(publisher_record, registrar_record)
        return BibliographyReport(
            matched=report.matched,
            report=report,
            record=registrar_record,
            notes=tuple(notes),
        )
    if registrar_record is not None:
        notes.append("publisher metadata unavailable; registrar record kept")
        return BibliographyReport(
            matched=None, record=registrar_record, notes=tuple(notes)
        )
    if publisher_record is not None:
        notes.append("no registrar baseline; publisher record kept")
        return BibliographyReport(
            matched=None, record=publisher_record, notes=tuple(notes)
        )
    notes.append("no bibliographic metadata found")
    return BibliographyReport(matched=None, notes=tuple(notes))


class _Gathered(NamedTuple):
    """One task's outcome short of its works-API lookup of ``doi``. It
    holds verdicts and parsed records, never payload bytes, so a window
    of them stays small. ``notes`` are the publisher metadata's;
    ``works_target`` is the object's link to the DOI's works document,
    None when the DOI came from the identifying URI."""

    task: IngestTask
    obj: ScholarlyObject
    fetches: list[FetchSummary]
    completeness: CompletenessReport
    substance: SubstanceReport
    publisher_record: BibRecord | None
    notes: list[str]
    doi: str
    works_target: str | None


def _collect(
    task: IngestTask,
    source: _LiveSource | _DumpSource,
    store: IngestStore,
    policy: SubstancePolicy | None,
    registrar,
    resource_policy: ResourcePolicy,
) -> IngestRecord | _Gathered:
    """Everything but the works-API lookup: a record when none is
    needed, else what ``_finish`` completes once the lookup is made."""
    trigger = task.trigger
    fetches: list[FetchSummary] = []
    failures: list[tuple[str, str]] = []
    notes: list[str] = []

    try:
        obj = source.boundary(resource_policy)
    except (NoEntryPage, NavigationError, MalformedLinkField) as exc:
        failures.append((trigger.loc, str(exc)))
        return _base_record(
            task,
            _minimal_object(trigger.loc),
            fetches,
            CompletenessReport(
                passed=False,
                violations=(f"boundary discovery failed: {exc}",),
                failures=tuple(failures),
            ),
            BibliographyReport(
                matched=None, notes=("no object boundary; bibliography skipped",)
            ),
            _substance((), task.filter_tag, policy),
        )

    failures.extend(obj.failures)
    bodies: dict[str, bytes] = {}

    def fetch(uri: str, fallback_media: str | None) -> FetchSummary:
        got = source.get(uri)
        if got.body is None:
            failures.append((uri, got.reason))
            summary = FetchSummary(
                uri=uri,
                status=got.status,
                media_type=got.media_type,
                fetched_at=got.fetched_at,
            )
        else:
            # stored whatever its fixity: a mismatch is recorded as a failure
            digest = store.store_payload(got.body)
            if got.fixity is not None:
                try:
                    verdict = verify_fixity(got.body, got.fixity, sha256=digest)
                except UnsupportedAlgorithm as exc:
                    verdict = FixityVerdict(False, f"unsupported algorithm {exc}")
                if not verdict:
                    failures.append((uri, f"fixity: {verdict.reason}"))
            bodies[uri] = got.body
            summary = FetchSummary(
                uri=uri,
                status=got.status,
                sha256=digest,
                length=len(got.body),
                media_type=got.media_type or fallback_media,
                fetched_at=got.fetched_at,
            )
        fetches.append(summary)
        return summary

    for desc in obj.publication_resources:
        fetch(desc.uri, desc.media_type)

    registrar_record: BibRecord | None = None
    doi: str | None = None
    works_target = _registrar_target(obj)
    if works_target is not None:
        # a link to the registrar's own document for a DOI is looked up
        # with the window, not fetched: that document is not preserved
        doi = registrar.doi_at(works_target) if registrar is not None else None
        if doi is None:
            summary = fetch(works_target, "application/json")
            if summary.ok:
                try:
                    registrar_record = parse_crossref_json(
                        bodies[works_target], source_uri=works_target
                    )
                except (MalformedJson, MalformedEntry, ValueError) as exc:
                    notes.append(f"registrar metadata unreadable: {exc}")
            else:
                notes.append(f"registrar metadata fetch failed: {works_target}")
    elif registrar is not None and obj.identifying_uri:
        doi = _doi_from_identifying(obj.identifying_uri, resource_policy)
        if doi is None:
            notes.append("identifying URI yields no registry identifier")
    else:
        notes.append("no registrar metadata link")

    publisher_record: BibRecord | None = None
    for bib in obj.bibliographic_resources:
        if bib.uri == works_target or bib.profile == CROSSREF_PROFILE:
            continue
        try:
            parser = parser_for(bib.profile, bib.media_type)
        except UnknownFormat:
            notes.append(f"no parser for {bib.uri}")
            continue
        summary = fetch(bib.uri, bib.media_type)
        if not summary.ok:
            notes.append(f"publisher metadata fetch failed: {bib.uri}")
            continue
        try:
            publisher_record = parser(
                bodies[bib.uri].decode("utf-8", "replace"), source_uri=bib.uri
            )
            break
        except MalformedEntry as exc:
            notes.append(f"publisher metadata unreadable at {bib.uri}: {exc}")

    completeness = _completeness(obj, fetches, failures, resource_policy)
    substance = _substance(tuple(fetches), task.filter_tag, policy)
    if doi is not None:
        return _Gathered(
            task, obj, fetches, completeness, substance, publisher_record, notes, doi, works_target
        )
    return _base_record(
        task,
        obj,
        fetches,
        completeness,
        _bibliography_verdict(registrar_record, publisher_record, notes),
        substance,
    )


def _registrar_lookup(registrar, dois: list[str]) -> Callable[[str], CrossRefWork]:
    """``doi -> work`` for one window. One works-list request answers
    every DOI it can name; ``fetch_work`` answers the rest one by one: a
    lone DOI, a DOI holding ``,``, one the list leaves out, and all of
    them when the list request fails. Each DOI thus ends with the work,
    or the error, that its own lookup gives."""
    listed = [doi for doi in dict.fromkeys(dois) if "," not in doi]
    works: dict[str, CrossRefWork] = {}
    if len(listed) > 1:
        with contextlib.suppress(CrossRefError, ValueError):
            works = registrar.fetch_works(listed)

    def lookup(doi: str) -> CrossRefWork:
        work = works.get(doi)
        return work if work is not None else registrar.fetch_work(doi)

    return lookup


def _finish(gathered: _Gathered, lookup: Callable[[str], CrossRefWork]) -> IngestRecord:
    registrar_record: BibRecord | None = None
    notes = gathered.notes
    try:
        registrar_record = from_crossref(
            lookup(gathered.doi), source_uri=gathered.works_target
        )
    except (CrossRefError, MalformedEntry, ValueError) as exc:
        # the registrar's note comes before the publisher metadata's
        notes.insert(0, f"registrar lookup failed for {gathered.doi}: {exc}")
    return _base_record(
        gathered.task,
        gathered.obj,
        gathered.fetches,
        gathered.completeness,
        _bibliography_verdict(registrar_record, gathered.publisher_record, notes),
        gathered.substance,
    )


def _tombstone(task: IngestTask) -> IngestRecord:
    """Mark an object deleted. Payloads stay; only the record history
    says the publisher withdrew it."""
    trigger = task.trigger
    obj = (
        object_from_links(trigger.loc, trigger.links)
        if trigger.links
        else _minimal_object(trigger.loc)
    )
    return replace(
        _base_record(
            task,
            obj,
            [],
            CompletenessReport(passed=True),
            BibliographyReport(matched=None, notes=("tombstone",)),
            SubstanceReport(True, False, ("tombstone; no content expected",)),
        ),
        tombstone=True,
    )


# --------------------------------------------------------- dump building


def pack_object_dump(
    obj: ScholarlyObject,
    bodies: Mapping[str, bytes],
    when: datetime,
    *,
    kind: ChangeKind = ChangeKind.CREATED,
) -> tuple[ChangeEvent, bytes]:
    """Build a Change Dump holding one object: the publisher event for
    the entry page plus one per-resource event per other payload.

    ``bodies`` maps resource URIs to payload bytes and must cover every
    publication resource; bibliographic resources are included when
    present. Returns (trigger event, dump bytes).
    """
    entry_uri = obj.entry_page.uri
    missing = [desc.uri for desc in obj.publication_resources if desc.uri not in bodies]
    if missing:
        raise ValueError(f"bodies missing for publication resources: {missing}")
    trigger = emit_publisher_event(obj, kind, when)
    entries: list[tuple[ChangeEvent, bytes | None]] = []
    if entry_uri in bodies:
        entries.append((trigger, bodies[entry_uri]))
    for desc in (*obj.publication_resources, *obj.bibliographic_resources):
        if desc.uri != entry_uri and desc.uri in bodies:
            event = emit_resource_event(
                desc.uri,
                entry_uri=entry_uri,
                kind=kind,
                when=when,
                identifying_uri=obj.identifying_uri,
                sem_type=desc.sem_type,
            )
            entries.append((event, bodies[desc.uri]))
    return trigger, pack_change_dump(entries)
