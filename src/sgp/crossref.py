"""Client and data model for the CrossRef works API.

Read-only: per-DOI metadata, one works-list request for several DOIs,
parsing of deposit listings, and classification of deposit entries as
new registrations vs updates vs likely journal transfers. The client
has no transport of its own: its requests ride the navigator, under the
same politeness, retries and throttle as every other request. Tests run
against a local fixture registrar; the live service is never contacted
from the test suite.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Any, Sequence
from urllib.parse import quote, unquote

from .links import DESCRIBEDBY, LinkAttributes, TypedLink
from .rfc3339 import parse_rfc3339

__all__ = [
    "DEFAULT_API_BASE",
    "CROSSREF_PROFILE",
    "CrossRefWork",
    "WorkList",
    "Author",
    "PartialDate",
    "DepositCategory",
    "DepositClassification",
    "CrossRefError",
    "NotFound",
    "ServiceError",
    "RateLimited",
    "MalformedJson",
    "NotAWork",
    "MissingDoi",
    "InvalidDoi",
    "CrossRefClient",
    "normalize_doi",
    "metadata_uri_for",
    "works_api_link",
    "work_list_uri_for",
    "parse_work",
    "parse_work_list",
    "classify_deposit",
    "normalize_prefix",
    "normalize_member",
]

DEFAULT_API_BASE = "http://api.crossref.org"
CROSSREF_PROFILE = "https://github.com/CrossRef/rest-api-doc"


class MalformedJson(ValueError):
    pass


class NotAWork(ValueError):
    pass


class MissingDoi(ValueError):
    pass


class InvalidDoi(ValueError):
    pass


class CrossRefError(Exception):
    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class NotFound(CrossRefError):
    pass


class ServiceError(CrossRefError):
    pass


class RateLimited(ServiceError):
    pass


_DOI_PREFIXES = ("doi:", "info:doi/")
_RESOLVER_PREFIXES = (
    "http://dx.doi.org/",
    "https://dx.doi.org/",
    "http://doi.org/",
    "https://doi.org/",
)


def normalize_doi(raw: str) -> str:
    """Lowercase, strip resolver/scheme prefixes. Idempotent."""
    doi = raw.strip()
    low = doi.lower()
    for prefix in _RESOLVER_PREFIXES:
        if low.startswith(prefix):
            doi = doi[len(prefix) :]
            low = doi.lower()
            break
    for prefix in _DOI_PREFIXES:
        if low.startswith(prefix):
            doi = doi[len(prefix) :]
            break
    doi = doi.strip().lower()
    if "/" not in doi or not doi.partition("/")[0] or not doi.partition("/")[2]:
        raise InvalidDoi(raw)
    return doi


# pchar plus "/": what may stay raw in a URI path
_SAFE_PATH = "/:@!$&'()*+,;=-._~"
_PCT_TRIPLET = re.compile(r"%[0-9A-Fa-f]{2}")


def _quote_keeping_escapes(text: str) -> str:
    # existing %XX triplets stay opaque so the encoding is idempotent
    out: list[str] = []
    pos = 0
    for match in _PCT_TRIPLET.finditer(text):
        out.append(quote(text[pos : match.start()], safe=_SAFE_PATH))
        out.append(match.group(0))
        pos = match.end()
    out.append(quote(text[pos:], safe=_SAFE_PATH))
    return "".join(out)


def metadata_uri_for(doi: str, api_base: str = DEFAULT_API_BASE) -> str:
    """Works-API URI for a DOI; percent-encodes only what RFC 3986
    demands, and is idempotent on already-encoded input."""
    return f"{api_base.rstrip('/')}/works/{_quote_keeping_escapes(doi)}"


def works_api_link(target: str, source: str) -> TypedLink:
    """The ``describedby`` link from ``source`` to a work's document in
    the works API at ``target``."""
    return TypedLink(
        target=target,
        rel=DESCRIBEDBY,
        attrs=LinkAttributes(media_type="application/json", profile=CROSSREF_PROFILE),
        source=source,
    )


def work_list_uri_for(dois: Sequence[str], api_base: str = DEFAULT_API_BASE) -> str:
    """Works-API query for several DOIs at once: one ``doi`` filter per
    DOI, which the API ORs, and ``rows`` enough for all of them. A DOI
    holding ``,`` cannot be named, since ``,`` separates the filters."""
    for doi in dois:
        if "," in doi:
            raise InvalidDoi(f"{doi}: a works-list filter cannot name a DOI holding ','")
    terms = quote(",".join(f"doi:{doi}" for doi in dois), safe=":/,")
    return f"{api_base.rstrip('/')}/works?filter={terms}&rows={len(dois)}"


@dataclass(frozen=True)
class PartialDate:
    year: int
    month: int | None = None
    day: int | None = None

    @classmethod
    def from_date_parts(cls, parts: Any) -> "PartialDate | None":
        """``[[year, month?, day?]]`` as the API writes it; ``[[null]]``
        and an empty value mean no date."""
        if not parts:
            return None
        if not isinstance(parts, list) or not isinstance(parts[0], list):
            raise NotAWork(f"date-parts {parts!r} is not a list of lists")
        if not parts[0] or parts[0][0] is None:
            return None
        head = parts[0][:3]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in head):
            raise NotAWork(f"date-parts {parts!r} holds a non-integer part")
        return cls(*head)


@dataclass(frozen=True)
class Author:
    family: str | None = None
    given: str | None = None
    affiliations: tuple[str, ...] = ()


@dataclass(frozen=True)
class CrossRefWork:
    """One work as the API reports it. Every populated field comes from
    a key present in the source document; nothing is defaulted in."""

    doi: str
    url: str | None = None
    issn: tuple[str, ...] = ()
    title: tuple[str, ...] = ()
    subtitle: tuple[str, ...] = ()
    container_title: tuple[str, ...] = ()
    authors: tuple[Author, ...] = ()
    publisher: str | None = None
    member: str | None = None
    prefix: str | None = None
    created: datetime | None = None
    deposited: datetime | None = None
    indexed: datetime | None = None
    issued: PartialDate | None = None
    work_type: str | None = None
    reference_count: int | None = None
    volume: str | None = None
    issue: str | None = None
    page: str | None = None
    license_links: tuple[tuple[str, str | None], ...] = ()
    fulltext_links: tuple[tuple[str, str | None], ...] = ()

    @property
    def doi_prefix(self) -> str:
        return self.doi.partition("/")[0]

    @property
    def member_id(self) -> str | None:
        return normalize_member(self.member) if self.member else None


@dataclass(frozen=True)
class WorkList:
    items: tuple[CrossRefWork, ...] = ()


def _load_document(doc: str | bytes | dict) -> dict:
    if isinstance(doc, (str, bytes)):
        try:
            loaded = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise MalformedJson(str(exc)) from exc
    else:
        loaded = doc
    if not isinstance(loaded, dict):
        raise MalformedJson("top-level JSON is not an object")
    return loaded


def _text(message: Mapping, key: str) -> str | None:
    value = message.get(key)
    if value is not None and not isinstance(value, str):
        raise NotAWork(f"{key} is not a string")
    return value


def _timestamp(message: Mapping, key: str) -> datetime | None:
    stamp = message.get(key)
    if not isinstance(stamp, Mapping):
        return None
    text = _text(stamp, "date-time")
    if text:
        try:
            return parse_rfc3339(text)
        except ValueError as exc:
            raise NotAWork(f"{key}: {exc}") from exc
    millis = stamp.get("timestamp")
    if millis is None:
        return None
    if not isinstance(millis, (int, float)) or isinstance(millis, bool):
        raise NotAWork(f"{key} timestamp is not a number")
    try:
        return datetime.fromtimestamp(millis / 1000, tz=timezone.utc).replace(
            microsecond=0
        )
    except (OverflowError, OSError, ValueError) as exc:
        raise NotAWork(f"{key} timestamp {millis!r}: {exc}") from exc


def _string_tuple(message: Mapping, key: str) -> tuple[str, ...]:
    value = message.get(key) or []
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise NotAWork(f"{key} is not a list of strings")
    return tuple(value)


def _objects(message: Mapping, key: str) -> list[Mapping]:
    """The list of objects under ``key``; absent or null is empty."""
    value = message.get(key) or []
    if not isinstance(value, list) or not all(isinstance(item, Mapping) for item in value):
        raise NotAWork(f"{key} is not a list of objects")
    return value


def _work_from_message(message: Mapping) -> CrossRefWork:
    raw_doi = message.get("DOI")
    if not raw_doi:
        raise MissingDoi("work without DOI")
    authors = []
    for entry in _objects(message, "author"):
        affiliations = tuple(
            a.get("name", "") for a in _objects(entry, "affiliation") if a.get("name")
        )
        authors.append(
            Author(
                family=_text(entry, "family"),
                given=_text(entry, "given"),
                affiliations=affiliations,
            )
        )
    licenses = tuple(
        (item.get("URL", ""), item.get("content-version"))
        for item in _objects(message, "license")
    )
    fulltext = tuple(
        (item.get("URL", ""), item.get("content-type"))
        for item in _objects(message, "link")
    )
    issued = message.get("issued")
    if issued is not None and not isinstance(issued, Mapping):
        raise NotAWork("issued is not an object")
    ref_count = message.get("reference-count")
    if ref_count is not None:
        try:
            ref_count = int(ref_count)
        except (TypeError, ValueError) as exc:
            raise NotAWork(f"reference-count {ref_count!r} is not a number") from exc
    return CrossRefWork(
        doi=normalize_doi(str(raw_doi)),
        url=_text(message, "URL"),
        issn=_string_tuple(message, "ISSN"),
        title=_string_tuple(message, "title"),
        subtitle=_string_tuple(message, "subtitle"),
        container_title=_string_tuple(message, "container-title"),
        authors=tuple(authors),
        publisher=_text(message, "publisher"),
        member=_text(message, "member"),
        prefix=_text(message, "prefix"),
        created=_timestamp(message, "created"),
        deposited=_timestamp(message, "deposited"),
        indexed=_timestamp(message, "indexed"),
        issued=PartialDate.from_date_parts((issued or {}).get("date-parts"))
        if "issued" in message
        else None,
        work_type=_text(message, "type"),
        reference_count=ref_count,
        volume=_text(message, "volume"),
        issue=_text(message, "issue"),
        page=_text(message, "page"),
        license_links=licenses,
        fulltext_links=fulltext,
    )


def parse_work(doc: str | bytes | dict) -> CrossRefWork:
    """Parse a works-API response (or a bare work object)."""
    loaded = _load_document(doc)
    if "message-type" in loaded:
        if loaded.get("message-type") != "work":
            raise NotAWork(f"message-type {loaded.get('message-type')!r}")
        message = loaded.get("message")
        if not isinstance(message, Mapping):
            raise NotAWork("work envelope without message object")
        return _work_from_message(message)
    if "DOI" in loaded:
        return _work_from_message(loaded)
    raise NotAWork("document is neither a work envelope nor a bare work")


def parse_work_list(doc: str | bytes | dict) -> WorkList:
    loaded = _load_document(doc)
    message_type = loaded.get("message-type")
    if message_type != "work-list":
        raise NotAWork(f"message-type {message_type!r}")
    status = loaded.get("status", "")
    if status != "ok":
        raise NotAWork(f"status {status!r}")
    message = loaded.get("message")
    if not isinstance(message, Mapping):
        raise NotAWork("work-list envelope without message object")
    items = tuple(_work_from_message(item) for item in _objects(message, "items"))
    return WorkList(items=items)


class DepositCategory(Enum):
    NEW_REGISTRATION = "new-registration"
    METADATA_UPDATE = "metadata-update"
    POSSIBLE_TRANSFER = "possible-transfer"


@dataclass(frozen=True)
class DepositClassification:
    category: DepositCategory
    evidence: str


def normalize_prefix(value: str) -> str:
    """Accept a bare DOI prefix or a prefix URI; return the bare form."""
    text = value.strip().rstrip("/")
    if "/" in text:
        text = text.rsplit("/", 1)[-1]
    return text.lower()


def normalize_member(value: str) -> str:
    """Accept a bare member number or a member URI; return the number."""
    return value.strip().rstrip("/").rsplit("/", 1)[-1]


def classify_deposit(
    work: CrossRefWork,
    prefix_owner_map: Mapping[str, str],
    window: timedelta = timedelta(hours=24),
) -> DepositClassification:
    """What does a deposit listing entry mean?

    Created and deposited within the window means a new registration. An
    old creation date means change: if the configured owner of the
    work's DOI prefix differs from the depositing member, flag a
    possible title transfer; otherwise it is a metadata update.
    The literal ``prefix`` field names the current owner, so the lookup
    key is the prefix embedded in the DOI itself.
    """
    owners = {normalize_prefix(k): normalize_member(v) for k, v in prefix_owner_map.items()}
    if work.created is not None and work.deposited is not None:
        gap = abs(work.deposited - work.created)
        if gap <= window:
            return DepositClassification(
                DepositCategory.NEW_REGISTRATION,
                f"deposited {int(gap.total_seconds())}s after creation",
            )
    doi_prefix = work.doi_prefix
    expected = owners.get(doi_prefix)
    if expected is None and work.prefix:
        expected = owners.get(normalize_prefix(work.prefix))
    current = work.member_id
    if expected is not None and current is not None and expected != current:
        return DepositClassification(
            DepositCategory.POSSIBLE_TRANSFER,
            f"DOI prefix {doi_prefix} is held by member {expected} "
            f"but the deposit names member {current}",
        )
    return DepositClassification(
        DepositCategory.METADATA_UPDATE,
        "creation predates the deposit window and prefix ownership matches"
        if expected is not None
        else "creation predates the deposit window; prefix ownership unknown",
    )


class CrossRefClient:
    """Works-API lookups over the navigator.

    Every request goes through ``nav.fetch_resource``, so the works API
    shares the navigator's retry policy, User-Agent, redirect walk and
    per-host throttle with the rest of a harvest. Transport failures
    come back as this module's errors: 404 as ``NotFound``, 429 as
    ``RateLimited``, any other status or lost connection as
    ``ServiceError``.
    """

    def __init__(self, nav, api_base: str = DEFAULT_API_BASE):
        self.nav = nav
        self.api_base = api_base.rstrip("/")

    def _get(self, url: str) -> bytes:
        # imported here: the fixtures and the parsers that share this
        # module load without the HTTP library
        from .navigator import HttpError, NavigationError

        try:
            result = self.nav.fetch_resource(url)
        except HttpError as exc:
            status = exc.result.status
            if status == 404:
                raise NotFound(f"404 for {url}", status=404) from exc
            if status == 429:
                raise RateLimited(f"429 for {url}", status=429) from exc
            raise ServiceError(f"{status} for {url}", status=status) from exc
        except NavigationError as exc:
            raise ServiceError(str(exc)) from exc
        return result.body or b""

    def doi_at(self, uri: str) -> str | None:
        """The DOI whose works document at this client's base is exactly
        ``uri``, or None: ``uri`` names another base, holds no DOI, or
        holds one that ``metadata_uri_for`` does not write back as
        ``uri``. A DOI found here can be looked up in a works list, and
        ``fetch_work`` of it asks for ``uri`` itself."""
        prefix = f"{self.api_base}/works/"
        if not uri.startswith(prefix):
            return None
        try:
            doi = normalize_doi(unquote(uri[len(prefix) :]))
        except InvalidDoi:
            return None
        return doi if metadata_uri_for(doi, api_base=self.api_base) == uri else None

    def fetch_work(self, doi: str) -> CrossRefWork:
        return parse_work(self._get(metadata_uri_for(normalize_doi(doi), api_base=self.api_base)))

    def fetch_works(self, dois: Sequence[str]) -> dict[str, CrossRefWork]:
        """The works for several DOIs from one works-list request, keyed
        by normalised DOI; a DOI the list leaves out has no key."""
        url = work_list_uri_for([normalize_doi(doi) for doi in dois], api_base=self.api_base)
        return {work.doi: work for work in parse_work_list(self._get(url)).items}
