"""Change feeds: change lists and change dumps.

Sitemap-dialect XML with the rs extension namespace. Lenient parsing
warns about sloppy-but-usable feeds (unsorted events, odd capability);
strict mode turns those warnings into errors.

Change lists and dump manifests are read as a stream: each ``<url>``
becomes its event when the element ends and is dropped then, so a parse
holds the events it returns and one chunk's elements, not the whole
tree. The text itself is held whole: the feed body, the manifest's bytes
and, in a ``ChangeDumpIndex``, each member as it is read.
"""

from __future__ import annotations

import enum
import io
import os
import warnings
import zipfile
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import lru_cache
from operator import attrgetter
from typing import IO, Iterable, Iterator, Sequence
from xml.etree import ElementTree as ET

from .codec import OMIT, Record
from .crossref import (
    CrossRefWork,
    MissingDoi,
    metadata_uri_for,
    normalize_doi,
    works_api_link,
)
from .fixity import FixityInfo, compute_fixity
from .links import (
    COLLECTION,
    DESCRIBEDBY,
    ITEM,
    PERSISTENT_ID,
    TYPE,
    DEFAULT_VOCABULARY,
    LinkAttributes,
    LinkSet,
    TypedLink,
    Vocabulary,
    _BAD_TARGET,
    _MEDIA_TYPE_RE,
    link_attributes,
    relation_type,
)
from .resources import ScholarlyObject
from .rfc3339 import format_rfc3339, parse_rfc3339

__all__ = [
    "SITEMAP_NS",
    "RS_NS",
    "ChangeKind",
    "ChangeEvent",
    "ChangeList",
    "ChangeDumpManifest",
    "ChangeDumpIndex",
    "ChangeListError",
    "MalformedXml",
    "MissingChangeAttribute",
    "UnknownChangeKind",
    "FeedViolation",
    "FeedWarning",
    "MissingPayload",
    "CorruptArchive",
    "ManifestPathCollision",
    "parse_change_list",
    "emit_change_list",
    "emit_registrar_event",
    "emit_publisher_event",
    "emit_resource_event",
    "pack_change_dump",
    "unpack_change_dump",
]

SITEMAP_NS = "http://www.sitemaps.org/schemas/sitemap/0.9"
RS_NS = "http://www.openarchives.org/rs/terms/"

ET.register_namespace("", SITEMAP_NS)
ET.register_namespace("rs", RS_NS)


class ChangeListError(ValueError):
    pass


class MalformedXml(ChangeListError):
    pass


class MissingChangeAttribute(ChangeListError):
    pass


class UnknownChangeKind(ChangeListError):
    pass


class FeedViolation(ChangeListError):
    """Feed-shape rule broken: ordering, capability, deleted-with-items."""


class FeedWarning(UserWarning):
    pass


class MissingPayload(ChangeListError):
    pass


class CorruptArchive(ChangeListError):
    pass


class ManifestPathCollision(ChangeListError):
    pass


class ChangeKind(enum.Enum):
    CREATED = "created"
    UPDATED = "updated"
    DELETED = "deleted"


@dataclass(frozen=True)
class ChangeEvent(Record):
    """One change to one resource, with typed links giving context.

    ``links`` follow the link-header vocabulary exactly; link parameters
    without a value serialize as empty XML attributes. The JSON form
    holds the links as a list and the fixity as its token.
    """

    loc: str
    kind: ChangeKind = field(metadata={"key": "change"})
    datetime: datetime
    links: LinkSet = field(default=LinkSet(), metadata={"inline": True})
    fixity: FixityInfo | None = field(
        default=None,
        metadata={**OMIT, "encode": attrgetter("token"), "decode": FixityInfo.from_token},
    )

    def __post_init__(self) -> None:
        if not self.loc:
            raise ValueError("event loc must be non-empty")


@dataclass(frozen=True)
class ChangeList(Record):
    """Events plus the covered interval. Ordering by datetime is
    enforced on emit and warned about on parse, not enforced here
    (parsed feeds may be sloppy)."""

    events: tuple[ChangeEvent, ...] = ()
    from_time: datetime | None = field(default=None, metadata={**OMIT, "key": "from"})
    until_time: datetime | None = field(default=None, metadata={**OMIT, "key": "until"})
    capability: str = "changelist"


@dataclass(frozen=True)
class ChangeDumpManifest:
    """Per-entry archive paths and events for one dump; Deleted entries
    carry no path."""

    entries: tuple[tuple[str | None, ChangeEvent], ...] = ()


# bounded: a hostile document may name any number of distinct tags
@lru_cache(maxsize=64)
def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


_KNOWN_LN_ATTRS = frozenset(("rel", "href", "profile"))
_BAD_TARGET_TEXT = "whitespace or a control character or a non-XML character"


def _link_from_ln(
    elem: ET.Element, source: str, strict: bool, vocabulary: Vocabulary
) -> list[TypedLink]:
    attrib = elem.attrib
    rel_value = attrib.get("rel")
    href = attrib.get("href")
    if not rel_value or not href:
        raise MalformedXml("rs:ln needs rel and href attributes")
    if _BAD_TARGET.search(href):
        raise MalformedXml(f"rs:ln href holds {_BAD_TARGET_TEXT}: {href!r}")
    media_type = sem_type = None
    extras = []
    for name, value in attrib.items():
        if name in _KNOWN_LN_ATTRS:
            continue
        if name == "type":
            # as in a Link header: lenient keeps a bad value as an extra
            if _MEDIA_TYPE_RE.fullmatch(value):
                media_type = value
            elif strict:
                raise MalformedXml(f"{source}: rs:ln type is not a media type: {value!r}")
            else:
                extras.append((name, value))
        elif sem_type is None and vocabulary.is_sem_type_param(name):
            sem_type = value
        else:
            extras.append((name, value))
    attrs = link_attributes(media_type, attrib.get("profile"), sem_type, tuple(extras))
    return [
        TypedLink(
            target=href,
            rel=relation_type(vocabulary.canonical_rel_token(token)),
            attrs=attrs,
            source=source,
        )
        for token in rel_value.split()
    ]


def _event_from_url(
    url: ET.Element, strict: bool, vocabulary: Vocabulary
) -> tuple[ChangeEvent, str | None]:
    # one pass over the children: the first loc, the first md, every ln
    loc_elem = md = None
    lns: list[ET.Element] = []
    for child in url:
        name = _local(child.tag)
        if name == "ln":
            lns.append(child)
        elif name == "loc":
            if loc_elem is None:
                loc_elem = child
        elif name == "md" and md is None:
            md = child
    if loc_elem is None or not (loc_elem.text or "").strip():
        raise MalformedXml("url element without loc")
    loc = loc_elem.text.strip()
    if _BAD_TARGET.search(loc):
        raise MalformedXml(f"loc holds {_BAD_TARGET_TEXT}: {loc!r}")

    if md is None:
        raise MissingChangeAttribute(f"{loc}: url without rs:md")
    change = md.get("change")
    if change is None:
        raise MissingChangeAttribute(f"{loc}: rs:md without change attribute")
    try:
        kind = ChangeKind(change)
    except ValueError:
        raise UnknownChangeKind(f"{loc}: change={change!r}") from None
    dt_text = md.get("datetime")
    if dt_text is None:
        raise MalformedXml(f"{loc}: rs:md without datetime attribute")
    try:
        when = parse_rfc3339(dt_text)
    except ValueError as exc:
        raise MalformedXml(f"{loc}: bad datetime {dt_text!r}") from exc

    fixity = None
    hash_attr = md.get("hash")
    if hash_attr:
        length_attr = md.get("length")
        try:
            fixity = FixityInfo.from_token(
                hash_attr, length=int(length_attr) if length_attr else None
            )
        except ValueError as exc:
            raise MalformedXml(f"{loc}: bad hash attribute") from exc
    path = md.get("path")

    links: list[TypedLink] = []
    for ln in lns:
        links.extend(_link_from_ln(ln, loc, strict, vocabulary))

    event = ChangeEvent(
        loc=loc, kind=kind, datetime=when, links=LinkSet(tuple(links)), fixity=fixity
    )
    return event, path


def _complain(message: str, strict: bool) -> None:
    if strict:
        raise FeedViolation(message)
    warnings.warn(message, FeedWarning, stacklevel=3)


# text fed to the parser at a time: the elements a chunk completes are
# read and dropped before the next chunk goes in
_CHUNK = 1 << 16


def _root_children(xml_text: str | bytes) -> Iterator[ET.Element]:
    """The root element, then each child of the root once it has ended,
    detached from the root, so the tree holds no more than one chunk's
    elements and the child still open. A ``str`` is fed as ``str``, so
    the parser reads it as UTF-8 whatever encoding it declares, as
    ``ET.fromstring`` does. A document that is not well-formed raises
    ``MalformedXml`` when the parse reaches the fault."""
    parser = ET.XMLPullParser(("start",))
    root = None
    # bytes are fed as views: copying each chunk out left the allocator
    # holding more memory, which showed in a live harvest's peak RSS
    text = xml_text if isinstance(xml_text, str) else memoryview(xml_text)
    try:
        # the last start lies at or past the end: there the parse closes
        for start in range(0, len(xml_text) + _CHUNK, _CHUNK):
            closed = start >= len(xml_text)
            if closed:
                parser.close()
            else:
                parser.feed(text[start : start + _CHUNK])
            events = parser.read_events()
            if root is None:
                for _, root in events:
                    yield root
                    break
            # only the root's start is wanted: the rest are drained, which
            # raises the parse error the chunk met, if any
            deque(events, maxlen=0)
            if root is not None:
                # a child followed by a sibling has ended; once the parse
                # has closed, the last child has too
                for _ in range(len(root) if closed else len(root) - 1):
                    child = root[0]
                    del root[0]
                    yield child
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from exc
    except UnicodeEncodeError as exc:
        # text holding a lone surrogate has no UTF-8 form to parse
        raise MalformedXml(f"not encodable as UTF-8: {exc.reason}") from exc


def _parse_urlset(
    xml_text: str | bytes,
    expected_capability: str,
    strict: bool,
    vocabulary: Vocabulary,
) -> tuple[list[tuple[ChangeEvent, str | None]], datetime | None, datetime | None, str]:
    """Read a urlset as a stream: each root-level ``<url>`` becomes its
    entry when it ends, and its elements are dropped then. What the
    document's faults raise or warn comes in the order a reader of the
    whole tree gives: not well-formed, wrong root, the root ``rs:md``,
    then the entries in document order up to the first that fails, then
    the ordering of the datetimes."""
    children = _root_children(xml_text)
    root = next(children)
    is_urlset = _local(root.tag) == "urlset"
    md = None
    entries: list[tuple[ChangeEvent, str | None]] = []
    complaints: list[str] = []
    # what building an entry raises (a ChangeListError is a ValueError)
    # waits for the end of the parse, which may yet find the document
    # malformed
    failure: ValueError | None = None
    unordered = False
    for child in children:
        name = _local(child.tag) if is_urlset else None
        if name == "md":
            if md is None:
                md = child
        elif name == "url" and failure is None:
            try:
                event, path = _event_from_url(child, strict, vocabulary)
            except ValueError as exc:
                failure = exc
                continue
            if event.kind is ChangeKind.DELETED and event.links.select(ITEM):
                complaints.append(f"{event.loc}: deleted event carries item links")
            if entries and entries[-1][0].datetime > event.datetime:
                unordered = True
            entries.append((event, path))
    if not is_urlset:
        raise MalformedXml(f"expected urlset, got {_local(root.tag)}")

    capability = expected_capability
    from_time = until_time = None
    if md is not None:
        capability = md.get("capability") or expected_capability
        if capability != expected_capability:
            _complain(
                f"capability {capability!r}, expected {expected_capability!r}", strict
            )
        for attr in ("from", "until"):
            raw = md.get(attr)
            if raw:
                try:
                    value = parse_rfc3339(raw)
                except ValueError as exc:
                    raise MalformedXml(f"bad {attr} attribute {raw!r}") from exc
                if attr == "from":
                    from_time = value
                else:
                    until_time = value
    if from_time and until_time and from_time > until_time:
        _complain("from is later than until", strict)

    for message in complaints:
        _complain(message, strict)
    if failure is not None:
        raise failure
    if unordered:
        _complain("events are not ordered by datetime", strict)
    return entries, from_time, until_time, capability


def parse_change_list(
    xml_text: str | bytes,
    *,
    strict: bool = False,
    vocabulary: Vocabulary = DEFAULT_VOCABULARY,
) -> ChangeList:
    entries, from_time, until_time, capability = _parse_urlset(
        xml_text, "changelist", strict, vocabulary
    )
    return ChangeList(
        events=tuple(event for event, _ in entries),
        from_time=from_time,
        until_time=until_time,
        capability=capability,
    )


# what a reader of rs:ln takes as the link's own: the attributes read
# here, and those ResourceSync defines that this module does not read
_LN_ATTRS = _KNOWN_LN_ATTRS | {"hash", "length", "modified", "path", "pri"}


def _forges_ln_attribute(
    name: str, value: str | None, elem: ET.Element, vocabulary: Vocabulary
) -> bool:
    """Whether writing an extra would overwrite an attribute already on
    ``elem`` or would be read back as one of the link's own."""
    if name in elem.attrib:
        return True
    if name == "type":
        # a type that is no media type reads back as this same extra
        return value is not None and _MEDIA_TYPE_RE.fullmatch(value) is not None
    return name in _LN_ATTRS or vocabulary.is_sem_type_param(name)


def _ln_element(link: TypedLink, vocabulary: Vocabulary) -> ET.Element:
    if not link.target or _BAD_TARGET.search(link.target):
        raise FeedViolation(f"href is empty or holds {_BAD_TARGET_TEXT}: {link.target!r}")
    elem = ET.Element(f"{{{RS_NS}}}ln")
    elem.set("rel", link.rel.value)
    elem.set("href", link.target)
    a = link.attrs
    if a.media_type is not None:
        elem.set("type", a.media_type)
    if a.profile is not None:
        elem.set("profile", a.profile)
    if a.sem_type is not None:
        elem.set(vocabulary.sem_type_params[0], a.sem_type)
    for name, value in a.extra:
        if _forges_ln_attribute(name, value, elem, vocabulary):
            raise FeedViolation(
                f"{link.target}: extra parameter {name!r} would stand for an rs:ln attribute"
            )
        elem.set(name, "" if value is None else value)
    return elem


def _url_element(
    event: ChangeEvent, path: str | None, vocabulary: Vocabulary
) -> ET.Element:
    if _BAD_TARGET.search(event.loc):
        raise FeedViolation(f"loc holds {_BAD_TARGET_TEXT}: {event.loc!r}")
    if event.kind == ChangeKind.DELETED and event.links.select(ITEM):
        raise FeedViolation(f"{event.loc}: deleted event cannot carry item links")
    url = ET.Element(f"{{{SITEMAP_NS}}}url")
    loc = ET.SubElement(url, f"{{{SITEMAP_NS}}}loc")
    loc.text = event.loc
    md = ET.SubElement(url, f"{{{RS_NS}}}md")
    md.set("change", event.kind.value)
    md.set("datetime", format_rfc3339(event.datetime))
    if event.fixity is not None:
        md.set("hash", event.fixity.token)
        if event.fixity.length is not None:
            md.set("length", str(event.fixity.length))
    if path is not None:
        md.set("path", path)
    for link in event.links:
        url.append(_ln_element(link, vocabulary))
    return url


def _build_urlset(
    entries: Iterable[tuple[ChangeEvent, str | None]],
    capability: str,
    from_time: datetime | None,
    until_time: datetime | None,
    vocabulary: Vocabulary,
) -> str:
    if from_time and until_time and from_time > until_time:
        raise FeedViolation("from is later than until")
    root = ET.Element(f"{{{SITEMAP_NS}}}urlset")
    md = ET.SubElement(root, f"{{{RS_NS}}}md")
    md.set("capability", capability)
    if from_time is not None:
        md.set("from", format_rfc3339(from_time))
    if until_time is not None:
        md.set("until", format_rfc3339(until_time))
    ordered = sorted(entries, key=lambda pair: pair[0].datetime)
    for event, path in ordered:
        root.append(_url_element(event, path, vocabulary))
    ET.indent(root)
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(
        root, encoding="unicode"
    ) + "\n"


def emit_change_list(
    change_list: ChangeList, *, vocabulary: Vocabulary = DEFAULT_VOCABULARY
) -> str:
    """Render as XML; events are sorted (stable) by datetime."""
    return _build_urlset(
        ((event, None) for event in change_list.events),
        change_list.capability,
        change_list.from_time,
        change_list.until_time,
        vocabulary,
    )


def emit_registrar_event(
    work: CrossRefWork,
    kind: ChangeKind = ChangeKind.CREATED,
    *,
    resolver_base: str = "http://dx.doi.org",
    api_base: str = "http://api.crossref.org",
) -> ChangeEvent:
    """The registrar's announcement: the DOI URI is the subject, with a
    describedby link to the works API. Deleted events carry no links."""
    if not work.doi:
        raise MissingDoi("work has no DOI")
    doi = normalize_doi(work.doi)
    if work.deposited is None:
        raise ValueError("work has no deposited timestamp")
    loc = f"{resolver_base.rstrip('/')}/{doi}"
    links: tuple[TypedLink, ...] = ()
    if kind != ChangeKind.DELETED:
        links = (works_api_link(metadata_uri_for(doi, api_base=api_base), loc),)
    return ChangeEvent(
        loc=loc, kind=kind, datetime=work.deposited, links=LinkSet(links)
    )


def emit_publisher_event(
    obj: ScholarlyObject, kind: ChangeKind, when: datetime
) -> ChangeEvent:
    """The publisher's announcement, in terms of the entry page: its
    nature, the identifying URI, item links to every other publication
    resource, describedby links to the bibliographic resources."""
    loc = obj.entry_page.uri
    links: list[TypedLink] = []
    if obj.entry_page.sem_type:
        links.append(
            TypedLink(target=obj.entry_page.sem_type, rel=TYPE, source=loc)
        )
    if obj.identifying_uri:
        links.append(
            TypedLink(target=obj.identifying_uri, rel=PERSISTENT_ID, source=loc)
        )
    if kind != ChangeKind.DELETED:
        for member in obj.publication_resources:
            if member.uri == loc:
                continue
            links.append(
                TypedLink(
                    target=member.uri,
                    rel=ITEM,
                    attrs=LinkAttributes(
                        media_type=member.media_type, sem_type=member.sem_type
                    ),
                    source=loc,
                )
            )
    for bib in obj.bibliographic_resources:
        links.append(
            TypedLink(
                target=bib.uri,
                rel=DESCRIBEDBY,
                attrs=LinkAttributes(media_type=bib.media_type, profile=bib.profile),
                source=loc,
            )
        )
    return ChangeEvent(loc=loc, kind=kind, datetime=when, links=LinkSet(tuple(links)))


def emit_resource_event(
    resource_uri: str,
    *,
    entry_uri: str,
    kind: ChangeKind = ChangeKind.UPDATED,
    when: datetime,
    identifying_uri: str | None = None,
    fixity: FixityInfo | None = None,
    sem_type: str | None = None,
) -> ChangeEvent:
    """A change to a single member resource, expressed in terms of that
    resource's URI with links up to its neighborhood."""
    links: list[TypedLink] = [
        TypedLink(
            target=entry_uri,
            rel=COLLECTION,
            attrs=LinkAttributes(media_type="text/html"),
            source=resource_uri,
        )
    ]
    if sem_type:
        links.insert(0, TypedLink(target=sem_type, rel=TYPE, source=resource_uri))
    if identifying_uri:
        links.append(
            TypedLink(target=identifying_uri, rel=PERSISTENT_ID, source=resource_uri)
        )
    return ChangeEvent(
        loc=resource_uri,
        kind=kind,
        datetime=when,
        links=LinkSet(tuple(links)),
        fixity=fixity,
    )


def pack_change_dump(
    entries: Sequence[tuple[ChangeEvent, bytes | None]],
    *,
    add_fixity: bool = True,
    vocabulary: Vocabulary = DEFAULT_VOCABULARY,
) -> bytes:
    """ZIP a batch of events with their payloads; manifest.xml at the
    root gives each payload's archive path, ``resources/NNNN.dat`` by its
    position in ``entries``. Output bytes are deterministic for identical
    input."""
    resolved: list[tuple[ChangeEvent, bytes | None, str | None]] = []
    for index, (event, payload) in enumerate(entries):
        if event.kind == ChangeKind.DELETED:
            if payload is not None:
                raise FeedViolation(f"{event.loc}: deleted entry cannot carry a payload")
            resolved.append((event, None, None))
            continue
        if payload is None:
            raise MissingPayload(event.loc)
        if add_fixity and event.fixity is None:
            event = replace(event, fixity=compute_fixity(payload))
        resolved.append((event, payload, f"resources/{index:04d}.dat"))

    manifest_xml = _build_urlset(
        ((event, path) for event, _, path in resolved),
        "changedump-manifest",
        None,
        None,
        vocabulary,
    )
    ordered = sorted(resolved, key=lambda triple: triple[0].datetime)
    buffer = io.BytesIO()
    stamp = (1980, 1, 1, 0, 0, 0)
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        info = zipfile.ZipInfo("manifest.xml", date_time=stamp)
        archive.writestr(info, manifest_xml)
        for _, payload, path in ordered:
            if path is None:
                continue
            info = zipfile.ZipInfo(path, date_time=stamp)
            archive.writestr(info, payload)
    return buffer.getvalue()


class ChangeDumpIndex:
    """A change dump opened once: the manifest is parsed and validated
    up front, members are read from the archive only when asked for.
    The manifest's bytes are read whole and parsed as a stream, so its
    XML tree is never held; each member is read whole when asked for.

    ``source`` is a path or a seekable binary file object; the archive is
    not read into memory. A path is opened here and closed by ``close``
    (or on leaving a ``with`` block); a file object stays the caller's.
    Where a loc appears twice in the manifest, the later entry wins.
    """

    def __init__(
        self,
        source: str | os.PathLike | IO[bytes],
        *,
        strict: bool = False,
        vocabulary: Vocabulary = DEFAULT_VOCABULARY,
    ):
        try:
            self._archive = zipfile.ZipFile(source)
        except zipfile.BadZipFile as exc:
            raise CorruptArchive(str(exc)) from exc
        try:
            self.manifest = self._read_manifest(strict, vocabulary)
        except BaseException:
            self._archive.close()
            raise
        self._by_loc = {event.loc: (path, event) for path, event in self.manifest.entries}
        # the collection backlinks inside the dump characterise entry pages
        self._entry_media: dict[str, str] = {}
        for _, event in self.manifest.entries:
            for link in event.links.select(COLLECTION):
                if link.attrs.media_type:
                    self._entry_media.setdefault(link.target, link.attrs.media_type)

    def _read_manifest(self, strict: bool, vocabulary: Vocabulary) -> ChangeDumpManifest:
        names = set(self._archive.namelist())
        if "manifest.xml" not in names:
            raise CorruptArchive("no manifest.xml in archive")
        entries, _, _, _ = _parse_urlset(
            self.read("manifest.xml"), "changedump-manifest", strict, vocabulary
        )
        seen: set[str] = set()
        manifest_entries: list[tuple[str | None, ChangeEvent]] = []
        for event, path in entries:
            if event.kind == ChangeKind.DELETED:
                manifest_entries.append((None, event))
                continue
            if not path:
                raise CorruptArchive(f"{event.loc}: manifest entry without path")
            if path in seen:
                raise ManifestPathCollision(path)
            seen.add(path)
            if path not in names:
                raise CorruptArchive(f"{event.loc}: {path} missing from archive")
            manifest_entries.append((path, event))
        return ChangeDumpManifest(entries=tuple(manifest_entries))

    def entry(self, loc: str) -> tuple[str | None, ChangeEvent] | None:
        """(archive path, event) for ``loc``; the path is None for a
        Deleted entry, and the result None when the dump lacks ``loc``."""
        return self._by_loc.get(loc)

    def entry_media_type(self, entry_uri: str) -> str | None:
        """Media type a collection backlink in the dump gives the entry page."""
        return self._entry_media.get(entry_uri)

    def read(self, path: str) -> bytes:
        try:
            return self._archive.read(path)
        except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
            raise CorruptArchive(f"{path}: {exc}") from exc

    def close(self) -> None:
        self._archive.close()

    def __enter__(self) -> "ChangeDumpIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def unpack_change_dump(data: bytes) -> tuple[ChangeDumpManifest, dict[str, bytes]]:
    with ChangeDumpIndex(io.BytesIO(data)) as index:
        payloads = {
            path: index.read(path) for path, _ in index.manifest.entries if path is not None
        }
    return index.manifest, payloads

