"""Bibliographic records: BibTeX / RIS / works-JSON parsing, canonical
normalization, and reconciliation of publisher metadata against the
registrar's copy."""

from __future__ import annotations

import enum
import re
import unicodedata
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from .codec import OMIT, Record
from .crossref import CROSSREF_PROFILE, CrossRefWork, InvalidDoi, normalize_doi, parse_work

__all__ = [
    "SourceFormat",
    "Severity",
    "BibRecord",
    "Discrepancy",
    "ReconciliationReport",
    "MalformedEntry",
    "MultipleEntries",
    "MissingTitle",
    "UnknownFormat",
    "BIBTEX_PROFILE",
    "RIS_PROFILE",
    "parse_bibtex",
    "parse_ris",
    "from_crossref",
    "parse_crossref_json",
    "normalize",
    "reconcile",
    "parser_for",
]

BIBTEX_PROFILE = "http://bibtex.org"
RIS_PROFILE = "https://en.wikipedia.org/wiki/RIS_(file_format)"


class MalformedEntry(ValueError):
    pass


class MultipleEntries(MalformedEntry):
    pass


class MissingTitle(MalformedEntry):
    pass


class UnknownFormat(ValueError):
    pass


class SourceFormat(enum.Enum):
    BIBTEX = "bibtex"
    RIS = "ris"
    CROSSREF_JSON = "crossref-json"


class Severity(enum.Enum):
    MAJOR = "major"
    MINOR = "minor"


def _authors_to_json(authors: tuple[tuple[str, str | None], ...]) -> list[dict]:
    return [
        {"family": family, **({"given": given} if given else {})}
        for family, given in authors
    ]


def _authors_from_json(data: list[dict]) -> tuple[tuple[str, str | None], ...]:
    return tuple((a["family"], a.get("given")) for a in data)


@dataclass(frozen=True)
class BibRecord(Record):
    """One bibliographic description of one publication."""

    title: str
    source_format: SourceFormat
    doi: str | None = field(default=None, metadata=OMIT)
    authors: tuple[tuple[str, str | None], ...] = field(
        default=(),
        metadata={**OMIT, "encode": _authors_to_json, "decode": _authors_from_json},
    )
    container: str | None = field(default=None, metadata=OMIT)
    year: int | None = field(default=None, metadata=OMIT)
    volume: str | None = field(default=None, metadata=OMIT)
    issue: str | None = field(default=None, metadata=OMIT)
    pages: str | None = field(default=None, metadata=OMIT)
    source_uri: str | None = field(default=None, metadata=OMIT)

    def __post_init__(self) -> None:
        if not self.title or not self.title.strip():
            raise MissingTitle("record without a title")


@dataclass(frozen=True)
class Discrepancy(Record):
    field: str
    left: str | None
    right: str | None
    severity: Severity


@dataclass(frozen=True)
class ReconciliationReport(Record):
    """matched is true exactly when no Major discrepancy was found."""

    matched: bool
    discrepancies: tuple[Discrepancy, ...] = ()


_WS = re.compile(r"\s+")


def _clean(text: str) -> str:
    return _WS.sub(" ", unicodedata.normalize("NFC", text)).strip()


def _split_author(raw: str) -> tuple[str, str | None]:
    family, sep, given = raw.partition(",")
    if sep:
        return _clean(family), _clean(given) or None
    return _clean(raw), None


def _int_or_none(raw: str | None) -> int | None:
    if raw is None:
        return None
    head = raw.strip().split("/")[0].split("-")[0]
    try:
        return int(head)
    except ValueError:
        return None


# ---------------------------------------------------------------- BibTeX

_ENTRY_HEAD = re.compile(r"@\s*(\w+)\s*\{", re.DOTALL)


def _balanced_block(text: str, start: int) -> tuple[str, int]:
    # start points at '{'; returns (inner text, index past the '}')
    depth = 0
    for index in range(start, len(text)):
        char = text[index]
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return text[start + 1 : index], index + 1
    raise MalformedEntry("unbalanced braces")


def _bibtex_value(body: str, pos: int) -> tuple[str, int]:
    while pos < len(body) and body[pos].isspace():
        pos += 1
    if pos >= len(body):
        raise MalformedEntry("field without value")
    char = body[pos]
    if char == "{":
        value, end = _balanced_block(body, pos)
        return value, end
    if char == '"':
        end = body.find('"', pos + 1)
        if end < 0:
            raise MalformedEntry("unterminated quoted value")
        return body[pos + 1 : end], end + 1
    end = pos
    while end < len(body) and body[end] not in ",}":
        end += 1
    return body[pos:end].strip(), end


def _bibtex_fields(body: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    pos = 0
    # skip the citation key
    comma = body.find(",")
    if comma >= 0:
        pos = comma + 1
    while pos < len(body):
        while pos < len(body) and (body[pos].isspace() or body[pos] == ","):
            pos += 1
        if pos >= len(body):
            break
        eq = body.find("=", pos)
        if eq < 0:
            break
        name = body[pos:eq].strip().lower()
        value, pos = _bibtex_value(body, eq + 1)
        if name:
            fields.setdefault(name, value.replace("{", "").replace("}", ""))
    return fields


def parse_bibtex(
    text: str, *, strict: bool = False, source_uri: str | None = None
) -> BibRecord:
    """Parse a single-entry BibTeX document.

    A second entry raises MultipleEntries under strict; otherwise the
    first entry wins.
    """
    match = _ENTRY_HEAD.search(text)
    if match is None:
        raise MalformedEntry("no BibTeX entry found")
    body, end = _balanced_block(text, match.end() - 1)
    if strict and _ENTRY_HEAD.search(text, end):
        raise MultipleEntries("more than one BibTeX entry")
    fields = _bibtex_fields(body)
    title = _clean(fields.get("title", ""))
    if not title:
        raise MissingTitle("BibTeX entry without title")
    authors = tuple(
        _split_author(part)
        for part in re.split(r"\s+and\s+", fields.get("author", ""))
        if part.strip()
    )
    return BibRecord(
        title=title,
        source_format=SourceFormat.BIBTEX,
        doi=_clean(fields["doi"]) if "doi" in fields else None,
        authors=authors,
        container=_clean(fields["journal"]) if "journal" in fields else None,
        year=_int_or_none(fields.get("year")),
        volume=_clean(fields["volume"]) if "volume" in fields else None,
        issue=_clean(fields["number"]) if "number" in fields else None,
        pages=_clean(fields["pages"]) if "pages" in fields else None,
        source_uri=source_uri,
    )


# ------------------------------------------------------------------- RIS

_RIS_LINE = re.compile(r"^([A-Z][A-Z0-9])  - ?(.*)$")


def parse_ris(
    text: str, *, strict: bool = False, source_uri: str | None = None
) -> BibRecord:
    """Parse a single-entry RIS document (TY ... ER)."""
    tags: dict[str, str] = {}
    authors: list[tuple[str, str | None]] = []
    seen_any = False
    ended = False
    for line in text.splitlines():
        match = _RIS_LINE.match(line.strip())
        if match is None:
            continue
        tag, value = match.group(1), match.group(2).strip()
        if ended:
            if tag == "TY":
                if strict:
                    raise MultipleEntries("more than one RIS entry")
                break
            continue
        seen_any = True
        if tag == "ER":
            ended = True
        elif tag in ("AU", "A1"):
            if value:
                authors.append(_split_author(value))
        else:
            tags.setdefault(tag, value)
    if not seen_any:
        raise MalformedEntry("no RIS tags found")
    title = _clean(tags.get("TI") or tags.get("T1") or "")
    if not title:
        raise MissingTitle("RIS entry without title")
    pages = None
    if tags.get("SP"):
        pages = tags["SP"] + (f"-{tags['EP']}" if tags.get("EP") else "")
    return BibRecord(
        title=title,
        source_format=SourceFormat.RIS,
        doi=_clean(tags["DO"]) if tags.get("DO") else None,
        authors=tuple(authors),
        container=_clean(tags.get("JO") or tags.get("T2") or "") or None,
        year=_int_or_none(tags.get("PY")),
        volume=_clean(tags["VL"]) if tags.get("VL") else None,
        issue=_clean(tags["IS"]) if tags.get("IS") else None,
        pages=_clean(pages) if pages else None,
        source_uri=source_uri,
    )


# -------------------------------------------------------- CrossRef JSON


def from_crossref(work: CrossRefWork, *, source_uri: str | None = None) -> BibRecord:
    if not work.title or not _clean(work.title[0]):
        raise MissingTitle(f"work {work.doi} has no title")
    return BibRecord(
        title=_clean(work.title[0]),
        source_format=SourceFormat.CROSSREF_JSON,
        doi=work.doi,
        authors=tuple(
            (_clean(author.family or ""), _clean(author.given or "") or None)
            for author in work.authors
        ),
        container=_clean(work.container_title[0]) if work.container_title else None,
        year=work.issued.year if work.issued else None,
        volume=work.volume,
        issue=work.issue,
        pages=work.page,
        source_uri=source_uri,
    )


def parse_crossref_json(
    text: str | bytes, *, source_uri: str | None = None
) -> BibRecord:
    return from_crossref(parse_work(text), source_uri=source_uri)


# --------------------------------------------------------- normalization

_TRAILING_PUNCT = ".,;: "
# a whole run of dashes and spaces that holds a range dash becomes one
# hyphen, so "---" and "-- --" normalise in one pass as "--" does
_DASHES = re.compile(r"[\s\-–—]*(?:--|–|—)[\s\-–—]*")


def _norm_doi(raw: str) -> str:
    try:
        return normalize_doi(raw)
    except InvalidDoi:
        return _clean(raw).lower()


def normalize(record: BibRecord) -> BibRecord:
    """Canonical form: NFC, collapsed whitespace, no trailing title
    punctuation, lowercase DOI, unified page-range dashes, empty
    optional fields as None. Idempotent."""
    return replace(
        record,
        title=_clean(record.title).rstrip(_TRAILING_PUNCT),
        doi=(_norm_doi(record.doi) or None) if record.doi is not None else None,
        authors=tuple(
            (_clean(family), _clean(given) or None if given else None)
            for family, given in record.authors
        ),
        container=(_clean(record.container) or None)
        if record.container is not None
        else None,
        volume=(_clean(record.volume) or None) if record.volume is not None else None,
        issue=(_clean(record.issue) or None) if record.issue is not None else None,
        pages=(_DASHES.sub("-", _clean(record.pages)) or None)
        if record.pages is not None
        else None,
    )


# --------------------------------------------------------- reconciliation


def _differs(left: str | None, right: str | None, *, casefold: bool) -> bool:
    if left is None or right is None:
        return left is not right
    if casefold:
        return left.casefold() != right.casefold()
    return left != right


def reconcile(publisher: BibRecord, registrar: BibRecord) -> ReconciliationReport:
    """Compare two descriptions of (supposedly) the same publication.

    DOI and title disagreements are Major; everything else, including a
    field present on one side only, is Minor. Inputs are normalized
    before comparison. matched iff no Major discrepancy.
    """
    left = normalize(publisher)
    right = normalize(registrar)
    found: list[Discrepancy] = []

    if left.doi is not None and right.doi is not None:
        if left.doi != right.doi:
            found.append(Discrepancy("doi", left.doi, right.doi, Severity.MAJOR))
    elif left.doi is not right.doi:
        found.append(Discrepancy("doi", left.doi, right.doi, Severity.MINOR))

    if _differs(left.title, right.title, casefold=True):
        found.append(Discrepancy("title", left.title, right.title, Severity.MAJOR))

    if _differs(left.container, right.container, casefold=True):
        found.append(
            Discrepancy("container", left.container, right.container, Severity.MINOR)
        )
    if left.year != right.year:
        found.append(
            Discrepancy(
                "year",
                str(left.year) if left.year is not None else None,
                str(right.year) if right.year is not None else None,
                Severity.MINOR,
            )
        )
    for name in ("volume", "issue", "pages"):
        if _differs(getattr(left, name), getattr(right, name), casefold=False):
            found.append(
                Discrepancy(name, getattr(left, name), getattr(right, name), Severity.MINOR)
            )

    if len(left.authors) != len(right.authors):
        found.append(
            Discrepancy(
                "authors",
                f"{len(left.authors)} authors",
                f"{len(right.authors)} authors",
                Severity.MINOR,
            )
        )
    else:
        # given-name forms vary across formats; families must agree
        left_families = tuple(family.casefold() for family, _ in left.authors)
        right_families = tuple(family.casefold() for family, _ in right.authors)
        if left_families != right_families:
            found.append(
                Discrepancy(
                    "authors",
                    "; ".join(family for family, _ in left.authors),
                    "; ".join(family for family, _ in right.authors),
                    Severity.MINOR,
                )
            )

    matched = not any(d.severity is Severity.MAJOR for d in found)
    return ReconciliationReport(matched=matched, discrepancies=tuple(found))


# -------------------------------------------------------- format registry


def _profile_key(uri: str) -> str:
    key = uri.strip().casefold()
    for scheme in ("https://", "http://"):
        if key.startswith(scheme):
            key = key[len(scheme) :]
            break
    if key.startswith("www."):
        key = key[4:]
    return key.rstrip("/")


Parser = Callable[..., BibRecord]

_BY_PROFILE: dict[str, Parser] = {
    _profile_key(BIBTEX_PROFILE): parse_bibtex,
    _profile_key(RIS_PROFILE): parse_ris,
    _profile_key(CROSSREF_PROFILE): parse_crossref_json,
}

_BY_MEDIA_TYPE: Mapping[str, Parser] = {
    "application/json": parse_crossref_json,
    "application/x-bibtex": parse_bibtex,
    "application/x-research-info-systems": parse_ris,
}


def parser_for(profile: str | None = None, media_type: str | None = None) -> Parser:
    """Pick a record parser from a describedby link's profile URI, with
    a media-type fallback. ``text/plain`` alone is ambiguous."""
    if profile:
        parser = _BY_PROFILE.get(_profile_key(profile))
        if parser is not None:
            return parser
    if media_type:
        parser = _BY_MEDIA_TYPE.get(media_type.split(";")[0].strip().lower())
        if parser is not None:
            return parser
    raise UnknownFormat(
        f"no parser for profile={profile!r} media_type={media_type!r}"
    )
