"""Typed web links and the Link header field codec.

Hand-rolled parser rather than a convenience helper because the rest of
the toolkit needs things those don't give us: byte offsets in parse
errors, preservation of unknown parameters, expansion of multi-token
rel values, and a strict/lenient switch (lenient for the harvester,
strict for the auditor).
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Iterator
from urllib.parse import urljoin, urlsplit

from .codec import OMIT, Record

__all__ = [
    "RelationType",
    "LinkAttributes",
    "TypedLink",
    "LinkSet",
    "Vocabulary",
    "DEFAULT_VOCABULARY",
    "relation_type",
    "link_attributes",
    "MalformedLinkField",
    "InvalidBase",
    "parse_link_field",
    "serialize_link_field",
    "resolve_targets",
    "select",
    "ITEM",
    "COLLECTION",
    "DESCRIBEDBY",
    "DESCRIBES",
    "TYPE",
    "PERSISTENT_ID",
]

# tchar per RFC 7230
TOKEN_CHARS = frozenset("!#$%&'*+-.^_`|~" + string.ascii_letters + string.digits)
# the wild writes type=text/html and profile=http://... unquoted; accept and
# emit those without quotes (cannot collide with ';' ',' '=' delimiters)
UNQUOTED_VALUE_CHARS = TOKEN_CHARS | frozenset("/:")
_WS = " \t\r\n"
_WS_RE = re.compile(r"[ \t\r\n]")
# what no link target, header or feed, may hold, since a target becomes a
# record key and a tab-separated journal field: whitespace (what str.isspace
# accepts, spelt out, which matches twice as fast as \s) and control characters
_BAD_TARGET = re.compile(r"[\x00-\x20\x7f-\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")
_MEDIA_TYPE_RE = re.compile(
    r"[!#$%&'*+.^_`|~0-9A-Za-z-]+/[!#$%&'*+.^_`|~0-9A-Za-z-]+"
)
_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")


class MalformedLinkField(ValueError):
    """Raised when a Link field (or one link-value in strict mode) is garbage.

    ``offset`` is the character position in the original field value;
    ``uri`` names the resource that sent the field, when a client read it.
    """

    uri: str | None = None

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class InvalidBase(ValueError):
    """Base URI passed to resolve_targets is not absolute."""


@dataclass(frozen=True, eq=False)
class RelationType:
    """A link relation: either a registered-style token or an extension URI.

    The raw spelling is kept; equality and hashing use a normalised key,
    computed once (casefolded for tokens, exact for URIs, which are the
    values containing a colon). Parsers share instances through
    ``relation_type``.
    """

    value: str
    key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("relation type must be non-empty")
        if _WS_RE.search(self.value):
            raise ValueError(f"relation type contains whitespace: {self.value!r}")
        key = self.value if self.is_extension else self.value.casefold()
        object.__setattr__(self, "key", key)

    @property
    def is_extension(self) -> bool:
        return ":" in self.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationType):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RelationType({self.value!r})"


# Feeds and headers repeat a handful of relation spellings and attribute
# records thousands of times; parsers take shared instances from these
# bounded caches, so each distinct value is built and checked once.
_VALUE_CACHE_SIZE = 1024


@lru_cache(maxsize=_VALUE_CACHE_SIZE)
def relation_type(value: str) -> RelationType:
    """The shared RelationType for one spelling."""
    return RelationType(value)


ITEM = relation_type("item")
COLLECTION = relation_type("collection")
DESCRIBEDBY = relation_type("describedby")
DESCRIBES = relation_type("describes")
TYPE = relation_type("type")
PERSISTENT_ID = relation_type("persistent-id")


@dataclass(frozen=True)
class Vocabulary:
    """Names for the placeholder relation and attribute used in the wild.

    The first entry of each tuple is the canonical spelling; later
    entries are accepted aliases. Parsing rewrites alias rel tokens to
    the canonical one so selection works uniformly.
    """

    persistent_id_rels: tuple[str, ...] = ("persistent-id",)
    sem_type_params: tuple[str, ...] = ("sem-type",)
    # the aliases casefolded once, for the parsers' per-token lookups
    _persistent_id_folded: frozenset[str] = field(init=False, repr=False, compare=False)
    _sem_type_folded: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        folded = frozenset(alias.casefold() for alias in self.persistent_id_rels)
        object.__setattr__(self, "_persistent_id_folded", folded)
        folded = frozenset(alias.casefold() for alias in self.sem_type_params)
        object.__setattr__(self, "_sem_type_folded", folded)

    def canonical_rel_token(self, token: str) -> str:
        if token.casefold() in self._persistent_id_folded:
            return self.persistent_id_rels[0]
        return token

    def is_sem_type_param(self, name: str) -> bool:
        return name.casefold() in self._sem_type_folded


DEFAULT_VOCABULARY = Vocabulary()


@dataclass(frozen=True)
class LinkAttributes(Record):
    """Attributes attached to a link.

    ``extra`` holds unknown parameters, known ones whose value is not
    valid, and (strict parsing only) repeats of known ones, in document
    order, as (name, value) pairs; a value of None means the parameter
    appeared without ``=``.
    """

    media_type: str | None = field(default=None, metadata={**OMIT, "key": "type"})
    profile: str | None = field(default=None, metadata=OMIT)
    sem_type: str | None = field(default=None, metadata=OMIT)
    extra: tuple[tuple[str, str | None], ...] = field(default=(), metadata=OMIT)

    def __post_init__(self) -> None:
        if self.media_type is not None and not _MEDIA_TYPE_RE.fullmatch(self.media_type):
            raise ValueError(f"not a media type: {self.media_type!r}")


@lru_cache(maxsize=_VALUE_CACHE_SIZE)
def link_attributes(
    media_type: str | None,
    profile: str | None,
    sem_type: str | None,
    extra: tuple[tuple[str, str | None], ...],
) -> LinkAttributes:
    """The shared LinkAttributes for one combination of values."""
    return LinkAttributes(media_type, profile, sem_type, extra)


# decoded link attributes are the shared instances too
LinkAttributes.json_constructor = link_attributes
_NO_ATTRS = link_attributes(None, None, None, ())


@dataclass(frozen=True)
class TypedLink(Record):
    """One directed, typed link: source --rel--> target. Its JSON object
    holds the attributes' keys beside ``rel`` and ``target``."""

    target: str
    rel: RelationType = field(
        metadata={"encode": attrgetter("value"), "decode": relation_type}
    )
    attrs: LinkAttributes = field(default=_NO_ATTRS, metadata={"inline": True})
    source: str | None = field(default=None, metadata=OMIT)


@dataclass(frozen=True)
class LinkSet(Record):
    """An ordered collection of typed links, optionally with the base URI
    they were resolved against."""

    links: tuple[TypedLink, ...] = ()
    base: str | None = field(default=None, metadata=OMIT)

    def __iter__(self) -> Iterator[TypedLink]:
        return iter(self.links)

    def __len__(self) -> int:
        return len(self.links)

    def __bool__(self) -> bool:
        return bool(self.links)

    def select(self, rel: RelationType | str) -> tuple[TypedLink, ...]:
        return select(self, rel)

    def first(self, rel: RelationType | str) -> TypedLink | None:
        matches = select(self, rel)
        return matches[0] if matches else None

    def targets(self, rel: RelationType | str) -> tuple[str, ...]:
        return tuple(link.target for link in select(self, rel))


def select(links: Iterable[TypedLink], rel: RelationType | str) -> tuple[TypedLink, ...]:
    """All links with the given relation, in order. Matching is
    case-insensitive for token relations, exact for extension URIs."""
    key = (rel if isinstance(rel, RelationType) else relation_type(rel)).key
    return tuple(link for link in links if link.rel.key == key)


def parse_link_field(
    field_value: str,
    *,
    strict: bool = False,
    vocabulary: Vocabulary = DEFAULT_VOCABULARY,
) -> LinkSet:
    """Parse a Link header field value into a LinkSet.

    A link-value with N whitespace-separated rel tokens yields N
    TypedLinks sharing one attribute record. Empty list elements (bare
    commas) are skipped. In lenient mode a malformed link-value is
    dropped and parsing resumes at the next comma; in strict mode the
    whole field fails with a MalformedLinkField carrying the offset.
    """
    links: list[TypedLink] = []
    i, n = 0, len(field_value)
    while True:
        while i < n and (field_value[i] in _WS or field_value[i] == ","):
            i += 1
        if i >= n:
            break
        try:
            parsed, i = _parse_link_value(field_value, i, strict, vocabulary)
            links.extend(parsed)
        except MalformedLinkField as err:
            if strict:
                raise
            nxt = field_value.find(",", max(err.offset, i))
            if nxt == -1:
                break
            i = nxt + 1
    return LinkSet(tuple(links))


def _parse_link_value(
    s: str, start: int, strict: bool, voc: Vocabulary
) -> tuple[list[TypedLink], int]:
    n = len(s)
    i = start
    if s[i] != "<":
        raise MalformedLinkField("expected '<'", i)
    close = s.find(">", i + 1)
    if close == -1:
        raise MalformedLinkField("missing '>'", i)
    target = s[i + 1 : close]
    # no URI reference holds '<', and serialize_link_field writes none
    if not target or "<" in target or _BAD_TARGET.search(target):
        raise MalformedLinkField("bad link target", i + 1)
    i = close + 1

    params: list[tuple[str, str | None, int]] = []
    while True:
        while i < n and s[i] in _WS:
            i += 1
        if i >= n or s[i] == ",":
            break
        if s[i] != ";":
            raise MalformedLinkField("expected ';' or ','", i)
        i += 1
        while i < n and s[i] in _WS:
            i += 1
        name_start = i
        while i < n and s[i] in TOKEN_CHARS:
            i += 1
        name = s[name_start:i]
        if not name:
            raise MalformedLinkField("expected parameter name", i)
        while i < n and s[i] in _WS:
            i += 1
        value: str | None = None
        if i < n and s[i] == "=":
            i += 1
            while i < n and s[i] in _WS:
                i += 1
            if i < n and s[i] == '"':
                value, i = _parse_quoted(s, i)
            else:
                val_start = i
                while i < n and s[i] in UNQUOTED_VALUE_CHARS:
                    i += 1
                if i == val_start:
                    raise MalformedLinkField("expected parameter value", i)
                value = s[val_start:i]
        params.append((name, value, name_start))

    return _assemble(target, params, start, strict, voc), i


def _parse_quoted(s: str, start: int) -> tuple[str, int]:
    # s[start] is the opening quote
    i = start + 1
    out: list[str] = []
    while i < len(s):
        c = s[i]
        if c == "\\":
            if i + 1 >= len(s):
                raise MalformedLinkField("dangling escape", i)
            out.append(s[i + 1])
            i += 2
            continue
        if c == '"':
            return "".join(out), i + 1
        out.append(c)
        i += 1
    raise MalformedLinkField("unterminated quoted string", start)


def _assemble(
    target: str,
    params: list[tuple[str, str | None, int]],
    lv_start: int,
    strict: bool,
    voc: Vocabulary,
) -> list[TypedLink]:
    rel_tokens: list[str] | None = None
    media_type: str | None = None
    profile: str | None = None
    sem_type: str | None = None
    extras: list[tuple[str, str | None]] = []
    seen: set[str] = set()

    for name, value, off in params:
        low = name.casefold()
        if low == "rel":
            kind = "rel"
        elif low == "type":
            kind = "type"
        elif low == "profile":
            kind = "profile"
        elif voc.is_sem_type_param(low):
            kind = "sem"
        else:
            kind = None
        if kind in seen:
            # RFC 8288 §3.3 has parsers ignore a repeated rel; lenient
            # mode ignores any repeated known parameter, strict keeps it
            if strict:
                extras.append((name, value))
            continue
        if kind is None:
            extras.append((name, value))
            continue
        # first occurrence claims the slot, valid or not
        seen.add(kind)
        if kind == "rel":
            tokens = (value or "").split()
            if not tokens:
                raise MalformedLinkField("empty rel parameter", off)
            rel_tokens = tokens
        elif kind == "type":
            if value is not None and _MEDIA_TYPE_RE.fullmatch(value):
                media_type = value
            elif strict:
                raise MalformedLinkField(f"invalid media type {value!r}", off)
            else:
                extras.append((name, value))
        elif kind == "profile":
            if value is None:
                extras.append((name, value))
            else:
                profile = value
        else:
            if value is None:
                extras.append((name, value))
            else:
                sem_type = value

    if rel_tokens is None:
        raise MalformedLinkField("missing rel parameter", lv_start)

    attrs = link_attributes(media_type, profile, sem_type, tuple(extras))
    return [
        TypedLink(target=target, rel=relation_type(voc.canonical_rel_token(tok)), attrs=attrs)
        for tok in rel_tokens
    ]


def _format_param(name: str, value: str | None, *, always_quote: bool = False) -> str:
    if any(c not in TOKEN_CHARS for c in name):
        raise ValueError(f"parameter name is not a token: {name!r}")
    if value is None:
        return name
    if always_quote or value == "" or any(c not in UNQUOTED_VALUE_CHARS for c in value):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'{name}="{escaped}"'
    return f"{name}={value}"


def serialize_link_field(
    links: Iterable[TypedLink],
    *,
    vocabulary: Vocabulary = DEFAULT_VOCABULARY,
) -> str:
    """Render links as a Link header field value.

    Emits one link-value per TypedLink in order: target, rel (always
    quoted, the common wire style), then type, profile, sem-type, then
    extra parameters verbatim. An empty iterable yields "".
    """
    parts: list[str] = []
    for link in links:
        target = link.target
        if not target or _BAD_TARGET.search(target) or "<" in target or ">" in target:
            raise ValueError(f"target not serialisable: {target!r}")
        buf = [_format_param("rel", link.rel.value, always_quote=True)]
        a = link.attrs
        if a.media_type is not None:
            buf.append(_format_param("type", a.media_type))
        if a.profile is not None:
            buf.append(_format_param("profile", a.profile))
        if a.sem_type is not None:
            buf.append(_format_param(vocabulary.sem_type_params[0], a.sem_type))
        for name, value in a.extra:
            buf.append(_format_param(name, value))
        parts.append(f"<{target}>; " + "; ".join(buf))
    return ", ".join(parts)


def resolve_targets(links: LinkSet | Iterable[TypedLink], base: str) -> LinkSet:
    """Resolve relative link targets against an absolute base URI.

    Targets that already carry a scheme (http, https, info, ...) pass
    through untouched. Links without a source get the base recorded as
    their source. Raises InvalidBase if the base has no scheme.
    """
    split = urlsplit(base)
    if not split.scheme:
        raise InvalidBase(f"base URI is not absolute: {base!r}")
    resolved: list[TypedLink] = []
    for link in links:
        if _SCHEME_RE.match(link.target):
            target = link.target
        else:
            target = urljoin(base, link.target)
        resolved.append(
            replace(link, target=target, source=link.source if link.source else base)
        )
    return LinkSet(tuple(resolved), base=base)
