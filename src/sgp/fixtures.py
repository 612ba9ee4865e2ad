"""Embedded HTTP server that plays a publisher plus its registrar.

One loopback server hosts DOI resolution, entry pages with typed links,
publication resources, citation endpoints, a works API, and both change
feeds; several objects can share the host. Feature ablation switches
individual behaviors off so compliance checks can be exercised defect
by defect.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable
from urllib.parse import urlsplit

from .bibliography import BIBTEX_PROFILE, RIS_PROFILE
from .codec import OMIT, Record
from .crossref import CROSSREF_PROFILE, parse_work
from .links import (
    COLLECTION,
    DESCRIBEDBY,
    DESCRIBES,
    ITEM,
    PERSISTENT_ID,
    TYPE,
    LinkAttributes,
    LinkSet,
    TypedLink,
    serialize_link_field,
)
from .resources import (
    DEFAULT_POLICY,
    ResourceDescriptor,
    ResourcePolicy,
    ResourceRole,
    ScholarlyObject,
    SEM_ARTICLE,
    SEM_DATASET,
    SEM_OBJECT_FILE,
    SEM_START_PAGE,
)
from .resourcesync import (
    ChangeEvent,
    ChangeKind,
    ChangeList,
    emit_change_list,
    emit_publisher_event,
    emit_registrar_event,
)
from .rfc3339 import parse_rfc3339

__all__ = [
    "ABLATION_KEYS",
    "ABLATION_RECOMMENDATION",
    "AssetSpec",
    "FixtureSpec",
    "FixtureEndpoint",
    "PortUnavailable",
    "UnknownFeature",
    "plos_spec",
    "landing_spec",
    "degrade",
    "serve",
]


class UnknownFeature(ValueError):
    pass


class PortUnavailable(OSError):
    pass


# one key per audited recommendation, plus link-level extras
ABLATION_RECOMMENDATION = {
    "empty-registrar-feed": "R1",
    "registrar-loc-not-doi": "R2",
    "no-doi-describedby": "R3",
    "empty-publisher-feed": "R4",
    "publisher-loc-not-entry": "R5",
    "no-feed-item-links": "R6",
    "no-entry-item-links": "R7",
    "no-collection-backlink": "R8",
    "no-feed-describedby": "R9",
    "no-feed-persistent-id": "R10",
    "no-entry-describedby": "R11",
    "no-asset-persistent-id": "R12",
}

_EXTRA_KEYS = frozenset(
    {"no-doi-anywhere", "no-describes-backlink", "malformed-entry-header"}
)

ABLATION_KEYS = frozenset(ABLATION_RECOMMENDATION) | _EXTRA_KEYS

# entry pages with these natures are publication resources themselves
_SELF_CONTENT = frozenset({SEM_ARTICLE, SEM_DATASET})


@dataclass(frozen=True)
class AssetSpec(Record):
    """One publication resource other than the entry page."""

    path: str
    media_type: str
    sem_type: str
    body_text: str
    pad_to: int | None = field(default=None, metadata=OMIT)

    def body(self) -> bytes:
        raw = self.body_text.encode("utf-8")
        if self.pad_to is not None and len(raw) < self.pad_to:
            raw += b"x" * (self.pad_to - len(raw))
        return raw


@dataclass(frozen=True)
class FixtureSpec(Record):
    """Template for one served object; URIs are paths, bound to the
    server's base at startup."""

    doi: str
    entry_path: str
    entry_sem_type: str
    assets: tuple[AssetSpec, ...]
    bib: dict
    deposited: str
    publisher: str
    member: str
    ablations: frozenset[str] = frozenset()
    status_scripts: tuple[tuple[str, tuple[int, ...]], ...] = ()


def plos_spec(*, pdf_bytes: int = 2048) -> FixtureSpec:
    """Entry-as-article pattern: the HTML entry page is itself a
    publication resource."""
    return FixtureSpec(
        doi="10.1371/journal.pone.0115253",
        entry_path="/plosone/article",
        entry_sem_type=SEM_ARTICLE,
        assets=(
            AssetSpec(
                path="/plosone/article.pdf",
                media_type="application/pdf",
                sem_type=SEM_ARTICLE,
                body_text="%PDF-1.4 fixture rendition\n",
                pad_to=pdf_bytes,
            ),
            AssetSpec(
                path="/plosone/article.xml",
                media_type="application/xml",
                sem_type=SEM_ARTICLE,
                body_text="<article><title>fixture</title></article>\n",
            ),
            AssetSpec(
                path="/plosone/article.s001",
                media_type="text/html",
                sem_type=SEM_OBJECT_FILE,
                body_text="<html><body>supplementary fixture</body></html>\n",
            ),
        ),
        bib={
            "title": "Scholarly Context Not Found: One in Five Articles "
            "Suffers from Reference Rot",
            "authors": [
                ["Klein", "Martin"],
                ["Van de Sompel", "Herbert"],
                ["Sanderson", "Robert"],
                ["Shankar", "Harihar"],
                ["Balakireva", "Lyudmila"],
                ["Zhou", "Ke"],
                ["Tobin", "Richard"],
            ],
            "container": "PLoS ONE",
            "year": 2014,
            "volume": "9",
            "issue": "12",
            "pages": "e115253",
        },
        deposited="2014-12-26T00:00:00Z",
        publisher="Public Library of Science",
        member="http://id.crossref.org/member/340",
    )


def landing_spec(*, pdf_bytes: int = 2048) -> FixtureSpec:
    """Landing-page pattern: the entry page only points at renditions."""
    return FixtureSpec(
        doi="10.5555/demo.2016.001",
        entry_path="/journal/vol1/demo",
        entry_sem_type=SEM_START_PAGE,
        assets=(
            AssetSpec(
                path="/journal/vol1/demo.pdf",
                media_type="application/pdf",
                sem_type=SEM_ARTICLE,
                body_text="%PDF-1.4 landing fixture\n",
                pad_to=pdf_bytes,
            ),
            AssetSpec(
                path="/journal/vol1/demo.full.html",
                media_type="text/html",
                sem_type=SEM_ARTICLE,
                body_text="<html><body>full text fixture</body></html>\n",
            ),
        ),
        bib={
            "title": "A Landing Page Demonstration Object",
            "authors": [["Doe", "Jan"], ["Roe", "Sam"]],
            "container": "Journal of Demonstrations",
            "year": 2016,
            "volume": "1",
            "issue": "1",
            "pages": "1-9",
        },
        deposited="2016-03-17T19:58:50Z",
        publisher="Demonstration Press",
        member="http://id.crossref.org/member/9999",
    )


def degrade(spec: FixtureSpec, feature_key: str) -> FixtureSpec:
    """Same fixture minus one feature; composable and idempotent."""
    if feature_key not in ABLATION_KEYS:
        raise UnknownFeature(feature_key)
    return dataclasses.replace(spec, ablations=spec.ablations | {feature_key})


@dataclass(frozen=True)
class RequestLogEntry:
    method: str
    path: str
    timestamp: float


@dataclass
class _Response:
    status: int
    headers: tuple[tuple[str, str], ...]
    body: bytes


class _ObjectView:
    """One spec bound to a running server's base URI."""

    def __init__(self, base_uri: str, spec: FixtureSpec):
        self.base_uri = base_uri
        self.spec = spec

    def _off(self, key: str) -> bool:
        return key in self.spec.ablations

    # -- addressing

    def uri(self, path: str) -> str:
        return self.base_uri + path

    @property
    def doi_uri(self) -> str:
        return f"{self.base_uri}/doi/{self.spec.doi}"

    @property
    def entry_uri(self) -> str:
        return self.uri(self.spec.entry_path)

    @property
    def works_uri(self) -> str:
        return f"{self.base_uri}/works/{self.spec.doi}"

    @property
    def bibtex_path(self) -> str:
        return self.spec.entry_path + ".bib"

    @property
    def ris_path(self) -> str:
        return self.spec.entry_path + ".ris"

    def asset_uris(self) -> list[str]:
        return [self.uri(asset.path) for asset in self.spec.assets]

    # -- link building

    def _entry_links(self) -> list[TypedLink]:
        spec = self.spec
        entry = self.entry_uri
        links: list[TypedLink] = [
            TypedLink(target=spec.entry_sem_type, rel=TYPE, source=entry)
        ]
        if not self._off("no-doi-anywhere"):
            links.append(
                TypedLink(target=self.doi_uri, rel=PERSISTENT_ID, source=entry)
            )
        if not self._off("no-entry-item-links"):
            for asset in spec.assets:
                links.append(
                    TypedLink(
                        target=self.uri(asset.path),
                        rel=ITEM,
                        attrs=LinkAttributes(
                            media_type=asset.media_type, sem_type=asset.sem_type
                        ),
                        source=entry,
                    )
                )
        if not self._off("no-entry-describedby"):
            links.extend(self._bib_links(entry))
        return links

    def _bib_links(self, source: str) -> list[TypedLink]:
        return [
            TypedLink(
                target=self.works_uri,
                rel=DESCRIBEDBY,
                attrs=LinkAttributes(
                    media_type="application/json", profile=CROSSREF_PROFILE
                ),
                source=source,
            ),
            TypedLink(
                target=self.uri(self.bibtex_path),
                rel=DESCRIBEDBY,
                attrs=LinkAttributes(media_type="text/plain", profile=BIBTEX_PROFILE),
                source=source,
            ),
            TypedLink(
                target=self.uri(self.ris_path),
                rel=DESCRIBEDBY,
                attrs=LinkAttributes(media_type="text/plain", profile=RIS_PROFILE),
                source=source,
            ),
        ]

    def _asset_links(self, asset: AssetSpec) -> list[TypedLink]:
        uri = self.uri(asset.path)
        links = [TypedLink(target=asset.sem_type, rel=TYPE, source=uri)]
        if not (self._off("no-asset-persistent-id") or self._off("no-doi-anywhere")):
            links.append(TypedLink(target=self.doi_uri, rel=PERSISTENT_ID, source=uri))
        if not self._off("no-collection-backlink"):
            links.append(
                TypedLink(
                    target=self.entry_uri,
                    rel=COLLECTION,
                    attrs=LinkAttributes(
                        media_type="text/html", sem_type=self.spec.entry_sem_type
                    ),
                    source=uri,
                )
            )
        return links

    def _doi_links(self) -> list[TypedLink]:
        if self._off("no-doi-describedby"):
            return []
        return [
            TypedLink(
                target=self.works_uri,
                rel=DESCRIBEDBY,
                attrs=LinkAttributes(
                    media_type="application/json", profile=CROSSREF_PROFILE
                ),
                source=self.doi_uri,
            )
        ]

    # -- documents

    def scholarly_object(self) -> ScholarlyObject:
        """The object as the publisher intends it, independent of
        header-level ablations (those degrade serving, not intent)."""
        spec = self.spec
        identifying = None if self._off("no-doi-anywhere") else self.doi_uri
        entry = ResourceDescriptor(
            uri=self.entry_uri,
            role=ResourceRole.ENTRY_PAGE,
            media_type="text/html",
            sem_type=spec.entry_sem_type,
        )
        pubs: list[ResourceDescriptor] = []
        if spec.entry_sem_type in _SELF_CONTENT:
            pubs.append(entry)
        pubs.extend(
            ResourceDescriptor(
                uri=self.uri(asset.path),
                role=ResourceRole.PUBLICATION_RESOURCE,
                media_type=asset.media_type,
                sem_type=asset.sem_type,
            )
            for asset in spec.assets
        )
        bibs = tuple(
            ResourceDescriptor(
                uri=link.target,
                role=ResourceRole.BIBLIOGRAPHIC_RESOURCE,
                media_type=link.attrs.media_type,
                profile=link.attrs.profile,
            )
            for link in self._bib_links(self.entry_uri)
        )
        return ScholarlyObject(
            entry_page=entry,
            publication_resources=tuple(pubs),
            bibliographic_resources=bibs,
            identifying_uri=identifying,
        )

    def work_json_dict(self) -> dict:
        spec = self.spec
        bib = spec.bib
        deposited = spec.deposited
        issued = [int(part) for part in deposited[:10].split("-")]
        return {
            "DOI": spec.doi,
            "ISSN": ["0000-0000"],
            "URL": self.doi_uri,
            "author": [
                {"affiliation": [], "family": family, "given": given}
                for family, given in bib["authors"]
            ],
            "container-title": [bib["container"]],
            "created": {"date-time": deposited},
            "deposited": {"date-time": deposited},
            "indexed": {"date-time": deposited},
            "issue": bib["issue"],
            "issued": {"date-parts": [issued]},
            "member": spec.member,
            "page": bib["pages"],
            "prefix": "http://id.crossref.org/prefix/" + spec.doi.partition("/")[0],
            "publisher": spec.publisher,
            "reference-count": 0,
            "score": 1.0,
            "source": "CrossRef",
            "subtitle": [],
            "title": [bib["title"]],
            "type": "journal-article",
            "volume": bib["volume"],
        }

    def work_envelope(self) -> bytes:
        doc = {
            "message": self.work_json_dict(),
            "message-type": "work",
            "message-version": "1.0.0",
            "status": "ok",
        }
        return json.dumps(doc, sort_keys=True, indent=1).encode("utf-8")

    def bibtex_body(self) -> bytes:
        bib = self.spec.bib
        authors = " and ".join(f"{f}, {g}" for f, g in bib["authors"])
        lines = [
            "@article{fixture,",
            f"  title = {{{bib['title']}}},",
            f"  author = {{{authors}}},",
            f"  journal = {{{bib['container']}}},",
            f"  volume = {{{bib['volume']}}},",
            f"  number = {{{bib['issue']}}},",
            f"  pages = {{{bib['pages']}}},",
            f"  year = {{{bib['year']}}},",
            f"  doi = {{{self.spec.doi}}}",
            "}",
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def ris_body(self) -> bytes:
        bib = self.spec.bib
        lines = ["TY  - JOUR", f"TI  - {bib['title']}"]
        lines += [f"AU  - {f}, {g}" for f, g in bib["authors"]]
        lines += [
            f"JO  - {bib['container']}",
            f"PY  - {bib['year']}",
            f"VL  - {bib['volume']}",
            f"IS  - {bib['issue']}",
            f"SP  - {bib['pages']}",
            f"DO  - {self.spec.doi}",
            "ER  - ",
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")

    # -- feed events

    def registrar_event(self) -> ChangeEvent:
        work = parse_work(self.work_json_dict())
        event = emit_registrar_event(
            work, resolver_base=f"{self.base_uri}/doi", api_base=self.base_uri
        )
        if self._off("registrar-loc-not-doi"):
            event = dataclasses.replace(event, loc=self.entry_uri)
        return event

    def publisher_event(self) -> ChangeEvent:
        event = emit_publisher_event(
            self.scholarly_object(),
            ChangeKind.CREATED,
            parse_rfc3339(self.spec.deposited),
        )
        drop = set()
        if self._off("no-feed-item-links"):
            drop.add("item")
        if self._off("no-feed-describedby"):
            drop.add("describedby")
        if self._off("no-feed-persistent-id"):
            drop.add("persistent-id")
        if drop:
            kept = tuple(l for l in event.links if l.rel.key not in drop)
            event = dataclasses.replace(event, links=LinkSet(kept))
        if self._off("publisher-loc-not-entry"):
            event = dataclasses.replace(event, loc=self.uri(self.spec.assets[0].path))
        return event

    # -- routing

    def route(self, path: str, link_header) -> _Response | None:
        spec = self.spec
        if path == f"/doi/{spec.doi}":
            headers = (("Location", f"{self.base_uri}/locate/{spec.doi}"),)
            return _Response(303, headers + link_header(self._doi_links()), b"")
        if path == f"/locate/{spec.doi}":
            return _Response(302, (("Location", self.entry_uri),), b"")
        if path == spec.entry_path:
            if self._off("malformed-entry-header"):
                headers = (("Link", '<http://unterminated ; rel="item'),)
            else:
                headers = link_header(self._entry_links())
            body = b"<html><body>fixture entry page</body></html>\n"
            return _Response(200, (("Content-Type", "text/html"),) + headers, body)
        for asset in spec.assets:
            if path == asset.path:
                return _Response(
                    200,
                    (("Content-Type", asset.media_type),)
                    + link_header(self._asset_links(asset)),
                    asset.body(),
                )
        if path in (self.bibtex_path, self.ris_path):
            body = self.bibtex_body() if path == self.bibtex_path else self.ris_body()
            headers = (("Content-Type", "text/plain"),)
            if not self._off("no-describes-backlink"):
                headers += link_header(
                    [
                        TypedLink(
                            target=self.entry_uri,
                            rel=DESCRIBES,
                            attrs=LinkAttributes(media_type="text/html"),
                            source=self.uri(path),
                        )
                    ]
                )
            return _Response(200, headers, body)
        if path == f"/works/{spec.doi}":
            return _Response(
                200, (("Content-Type", "application/json"),), self.work_envelope()
            )
        return None


class FixtureEndpoint:
    """A bound, running fixture; close() releases the port."""

    def __init__(self, specs: tuple[FixtureSpec, ...], server: ThreadingHTTPServer):
        self.specs = specs
        self.spec = specs[0]
        self._server = server
        host, port = server.server_address[:2]
        self.base_uri = f"http://{host}:{port}"
        self.views = tuple(_ObjectView(self.base_uri, spec) for spec in specs)
        self._log: list[RequestLogEntry] = []
        self._log_lock = threading.Lock()
        self._scripts = {
            path: statuses for spec in specs for path, statuses in spec.status_scripts
        }
        self._script_state: dict[str, int] = {}
        # short poll so close() does not stall a test suite full of servers
        self._thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.02), daemon=True
        )

    # -- lifecycle

    def _start(self) -> None:
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "FixtureEndpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observation

    def log(self) -> list[RequestLogEntry]:
        with self._log_lock:
            return list(self._log)

    def clear_log(self) -> None:
        with self._log_lock:
            self._log.clear()

    def _record(self, method: str, path: str) -> None:
        with self._log_lock:
            self._log.append(RequestLogEntry(method, path, time.monotonic()))

    # -- addressing (first object's, for the common one-object case)

    def uri(self, path: str) -> str:
        return self.base_uri + path

    @property
    def doi_uri(self) -> str:
        return self.views[0].doi_uri

    @property
    def entry_uri(self) -> str:
        return self.views[0].entry_uri

    @property
    def works_uri(self) -> str:
        return self.views[0].works_uri

    @property
    def registrar_feed_uri(self) -> str:
        return self.uri("/registrar/changelist.xml")

    @property
    def publisher_feed_uri(self) -> str:
        return self.uri("/changelist.xml")

    def asset_uris(self) -> list[str]:
        return self.views[0].asset_uris()

    def scholarly_object(self) -> ScholarlyObject:
        return self.views[0].scholarly_object()

    def policy(self) -> ResourcePolicy:
        prefix = f"{self.base_uri}/doi/"
        return dataclasses.replace(
            DEFAULT_POLICY,
            persistent_id_domains=DEFAULT_POLICY.persistent_id_domains + (prefix,),
        )

    # -- shared documents

    def _registrar_feed_body(self) -> bytes:
        events = tuple(
            view.registrar_event()
            for view in self.views
            if not view._off("empty-registrar-feed")
        )
        return emit_change_list(ChangeList(events=events)).encode("utf-8")

    def _publisher_feed_body(self) -> bytes:
        events = tuple(
            view.publisher_event()
            for view in self.views
            if not view._off("empty-publisher-feed")
        )
        return emit_change_list(ChangeList(events=events)).encode("utf-8")

    # -- routing

    def _scripted_status(self, path: str) -> int | None:
        if path not in self._scripts:
            return None
        with self._log_lock:
            index = self._script_state.get(path, 0)
            self._script_state[path] = index + 1
        statuses = self._scripts[path]
        if index >= len(statuses):
            return None
        return statuses[index]

    def _link_header(self, links: Iterable[TypedLink]) -> tuple[tuple[str, str], ...]:
        value = serialize_link_field(links)
        return (("Link", value),) if value else ()

    def _route(self, raw_path: str) -> _Response:
        path = urlsplit(raw_path).path
        scripted = self._scripted_status(path)
        if scripted is not None and scripted != 200:
            headers = (("Retry-After", "0"),) if scripted in (429, 503) else ()
            return _Response(scripted, headers, b"scripted status\n")

        for view in self.views:
            response = view.route(path, self._link_header)
            if response is not None:
                return response
        if path == "/registrar/changelist.xml":
            return _Response(
                200, (("Content-Type", "application/xml"),), self._registrar_feed_body()
            )
        if path == "/changelist.xml":
            return _Response(
                200, (("Content-Type", "application/xml"),), self._publisher_feed_body()
            )
        if path == "/loop":
            return _Response(302, (("Location", self.uri("/loop")),), b"")
        if path == "/plain":
            return _Response(
                200,
                (("Content-Type", "text/html"),),
                b"<html><body>nothing to see</body></html>\n",
            )
        return _Response(404, (("Content-Type", "text/plain"),), b"not found\n")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in separate writes; with Nagle on, the body
    # waits for the client's delayed ACK (about 40 ms a response)
    disable_nagle_algorithm = True

    def log_message(self, *args) -> None:
        pass

    def _serve(self, send_body: bool) -> None:
        endpoint: FixtureEndpoint = self.server.endpoint  # type: ignore[attr-defined]
        endpoint._record(self.command, self.path)
        response = endpoint._route(self.path)
        self.send_response(response.status)
        for name, value in response.headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        if send_body and response.body:
            self.wfile.write(response.body)

    def do_GET(self) -> None:
        self._serve(True)

    def do_HEAD(self) -> None:
        self._serve(False)


def serve(*specs: FixtureSpec, port: int = 0) -> FixtureEndpoint:
    if not specs:
        raise ValueError("at least one spec required")
    try:
        server = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
    except OSError as exc:
        raise PortUnavailable(str(exc)) from exc
    endpoint = FixtureEndpoint(tuple(specs), server)
    server.endpoint = endpoint  # type: ignore[attr-defined]
    endpoint._start()
    return endpoint
