"""Resource roles, publisher patterns, and web-boundary computation.

A scholarly object's components hang together through typed links: item
links fan out from an entry page, collection links point back, and a
persistent-id link names the object. Given a way to read the links of a
URI, `boundary_closure` walks that graph and returns the object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable
from urllib.parse import unquote, urlsplit

from .codec import OMIT, Record
from .fixity import FixityInfo
from .links import (
    COLLECTION,
    DESCRIBEDBY,
    ITEM,
    PERSISTENT_ID,
    TYPE,
    LinkSet,
    TypedLink,
    select,
)

__all__ = [
    "ResourceRole",
    "PatternId",
    "ResourcePolicy",
    "DEFAULT_POLICY",
    "ResourceDescriptor",
    "ScholarlyObject",
    "Violation",
    "ViolationKind",
    "NoEntryPage",
    "FetchFailure",
    "boundary_closure",
    "object_from_links",
    "classify_pattern",
    "validate_object",
    "pick_identifying_uri",
    "entry_is_content",
    "links_back",
    "claims_persistent_id",
    "SEM_ARTICLE",
    "SEM_DATASET",
    "SEM_OBJECT_FILE",
    "SEM_START_PAGE",
]

SEM_ARTICLE = "info:eu-repo/semantics/article"
SEM_DATASET = "info:eu-repo/semantics/dataset"
SEM_OBJECT_FILE = "info:eu-repo/semantics/objectFile"
SEM_START_PAGE = "info:eu-repo/semantics/humanStartPage"

# entry pages with these natures are publication resources themselves
_SELF_CONTENT = frozenset({SEM_ARTICLE, SEM_DATASET})


class ResourceRole(enum.Enum):
    ENTRY_PAGE = "entry-page"
    PUBLICATION_RESOURCE = "publication-resource"
    BIBLIOGRAPHIC_RESOURCE = "bibliographic-resource"


class PatternId(enum.Enum):
    PLOS_STYLE = "plos-style"
    APS_STYLE = "aps-style"
    DSPACE_STYLE = "dspace-style"
    DRYAD_STYLE = "dryad-style"
    ARXIV_STYLE = "arxiv-style"
    EPRINTS_STYLE = "eprints-style"
    OTHER = "other"


def _default_aliases() -> tuple[tuple[str, str], ...]:
    names = ("article", "dataset", "objectFile", "descriptiveMetadata", "humanStartPage")
    pairs = []
    for name in names:
        canonical = f"info:eu-repo/semantics/{name}"
        pairs.append((f"http://purl.org/eu-repo/semantics/{name}", canonical))
        pairs.append((f"https://purl.org/eu-repo/semantics/{name}", canonical))
    return tuple(pairs)


@dataclass(frozen=True)
class ResourcePolicy:
    """Site-independent knobs: which hosts mint shared persistent
    identifiers, and which semantic-type URIs are spelling variants.

    A domain entry containing ``://`` is a URI prefix match; a bare entry
    matches the hostname exactly.
    """

    persistent_id_domains: tuple[str, ...] = (
        "dx.doi.org",
        "doi.org",
        "hdl.handle.net",
        "purl.org",
        "w3id.org",
        "identifiers.org",
    )
    semantic_aliases: tuple[tuple[str, str], ...] = field(default_factory=_default_aliases)

    def identifier_in(self, uri: str) -> str | None:
        """The identifier ``uri`` names under the first entry it matches,
        unescaped (the rest after a prefix, the path under a host), or
        None when it matches none."""
        parts = urlsplit(uri)
        host = parts.netloc.casefold()
        for entry in self.persistent_id_domains:
            if "://" in entry:
                if uri.startswith(entry):
                    return unquote(uri[len(entry):].lstrip("/"))
            elif host == entry.casefold():
                return unquote(parts.path.lstrip("/"))
        return None

    def is_persistent_uri(self, uri: str) -> bool:
        return self.identifier_in(uri) is not None

    def resolving_at(self, uri: str, *prefixes: str) -> ResourcePolicy:
        """This policy with DOI-style paths under ``uri``'s own origin,
        and any further ``prefixes``, counted as persistent, so that
        self-hosted resolvers verify the way the public ones do."""
        parts = urlsplit(uri)
        own = f"{parts.scheme}://{parts.netloc}/doi/"
        return replace(
            self, persistent_id_domains=(*self.persistent_id_domains, own, *prefixes)
        )

    def canonical_semantic(self, uri: str | None) -> str | None:
        if uri is None:
            return None
        for variant, canonical in self.semantic_aliases:
            if uri == variant:
                return canonical
        return uri


DEFAULT_POLICY = ResourcePolicy()


@dataclass(frozen=True)
class ResourceDescriptor(Record):
    """One web resource in its role within a scholarly object.

    ``links`` holds the resource's own observed links when it was
    visited (None means never fetched); they are the evidence base for
    reciprocity and persistent-id validation.
    """

    uri: str
    role: ResourceRole
    media_type: str | None = field(default=None, metadata=OMIT)
    sem_type: str | None = field(default=None, metadata=OMIT)
    profile: str | None = field(default=None, metadata=OMIT)
    fixity: FixityInfo | None = field(default=None, metadata=OMIT)
    # not the rule for None, which would read a stored null as no link set
    links: LinkSet | None = field(
        default=None,
        metadata={**OMIT, "encode": LinkSet.to_json_dict, "decode": LinkSet.from_json_dict},
    )


@dataclass(frozen=True)
class ScholarlyObject(Record):
    """An object's web boundary: entry page, publication resources,
    bibliographic resources, identifying URI.

    Member tuples are ordered by first discovery so reports are
    deterministic. ``failures`` records (uri, reason) for members whose
    links could not be read.
    """

    entry_page: ResourceDescriptor
    publication_resources: tuple[ResourceDescriptor, ...] = ()
    bibliographic_resources: tuple[ResourceDescriptor, ...] = ()
    identifying_uri: str | None = None
    pattern: PatternId | None = None
    failures: tuple[tuple[str, str], ...] = field(default=(), metadata=OMIT)

    @property
    def publication_uris(self) -> tuple[str, ...]:
        return tuple(d.uri for d in self.publication_resources)


class ViolationKind(enum.Enum):
    MISSING_BACK_LINK = "missing-back-link"
    PERSISTENT_ID_MISMATCH = "persistent-id-mismatch"
    MISSING_MIME = "missing-mime"
    EMPTY_OBJECT = "empty-object"


_MAJOR = {
    ViolationKind.MISSING_BACK_LINK,
    ViolationKind.PERSISTENT_ID_MISMATCH,
    ViolationKind.EMPTY_OBJECT,
}


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    uri: str | None = None
    detail: str = ""

    @property
    def severity(self) -> str:
        return "major" if self.kind in _MAJOR else "minor"


class NoEntryPage(ValueError):
    """The start URI gives no way into an object: no item links, no
    self-type, no collection link to follow."""


class FetchFailure(RuntimeError):
    def __init__(self, uri: str, reason: str):
        super().__init__(f"{uri}: {reason}")
        self.uri = uri
        self.reason = reason


def pick_identifying_uri(
    links: LinkSet, *, policy: ResourcePolicy = DEFAULT_POLICY
) -> str | None:
    """Choose among persistent-id targets: shared-identifier domains
    beat local ones; among equals the first wins."""
    targets = links.targets(PERSISTENT_ID)
    if not targets:
        return None
    for target in targets:
        if policy.is_persistent_uri(target):
            return target
    return targets[0]


def links_back(member_links: LinkSet, entry_uri: str) -> bool:
    """Whether a member's links name the entry page as their collection:
    audit recommendation R8, ingest's ``MISSING_BACK_LINK``."""
    return entry_uri in member_links.targets(COLLECTION)


def claims_persistent_id(links: LinkSet) -> bool:
    """Whether a resource's links carry a persistent-id link: audit
    recommendations R10 and R12; ingest compares the targets of those
    that do."""
    return bool(links.select(PERSISTENT_ID))


def _entry_descriptor(
    entry_uri: str, entry_links: LinkSet, media_type: str | None
) -> ResourceDescriptor:
    type_link = entry_links.first(TYPE)
    return ResourceDescriptor(
        uri=entry_uri,
        role=ResourceRole.ENTRY_PAGE,
        media_type=media_type,
        sem_type=type_link.target if type_link else None,
        links=entry_links,
    )


def _item_descriptor(link: TypedLink, links: LinkSet | None) -> ResourceDescriptor:
    return ResourceDescriptor(
        uri=link.target,
        role=ResourceRole.PUBLICATION_RESOURCE,
        media_type=link.attrs.media_type,
        sem_type=link.attrs.sem_type,
        profile=link.attrs.profile,
        links=links,
    )


def _bib_descriptor(link: TypedLink) -> ResourceDescriptor:
    return ResourceDescriptor(
        uri=link.target,
        role=ResourceRole.BIBLIOGRAPHIC_RESOURCE,
        media_type=link.attrs.media_type,
        sem_type=link.attrs.sem_type,
        profile=link.attrs.profile,
    )


def entry_is_content(entry_links: LinkSet, policy: ResourcePolicy) -> bool:
    """Whether an entry page's own links type it as content (the PLOS
    shape), so that it is itself a publication resource."""
    for link in select(entry_links, TYPE):
        if policy.canonical_semantic(link.target) in _SELF_CONTENT:
            return True
    return False


def _finish_object(
    entry_desc: ResourceDescriptor,
    pubs: list[ResourceDescriptor],
    entry_links: LinkSet,
    failures: list[tuple[str, str]],
    policy: ResourcePolicy,
) -> ScholarlyObject:
    bibs = [_bib_descriptor(link) for link in select(entry_links, DESCRIBEDBY)]
    identifying = pick_identifying_uri(entry_links, policy=policy)
    if identifying is not None:
        pubs = [d for d in pubs if d.uri != identifying]
    obj = ScholarlyObject(
        entry_page=entry_desc,
        publication_resources=tuple(pubs),
        bibliographic_resources=tuple(bibs),
        identifying_uri=identifying,
        failures=tuple(failures),
    )
    return replace(obj, pattern=classify_pattern(obj, policy=policy))


def object_from_links(
    entry_uri: str,
    entry_links: LinkSet,
    *,
    entry_media_type: str | None = None,
    policy: ResourcePolicy = DEFAULT_POLICY,
) -> ScholarlyObject:
    """Build an object from a single link set (a feed event payload or a
    one-shot HEAD), without walking the web. Item targets one level deep.
    """
    entry_desc = _entry_descriptor(entry_uri, entry_links, entry_media_type)
    pubs: list[ResourceDescriptor] = []
    seen: set[str] = {entry_uri}
    if entry_is_content(entry_links, policy):
        pubs.append(entry_desc)
    for link in select(entry_links, ITEM):
        if link.target in seen:
            continue
        seen.add(link.target)
        pubs.append(_item_descriptor(link, None))
    return _finish_object(entry_desc, pubs, entry_links, [], policy)


def boundary_closure(
    entry: str,
    link_oracle: Callable[[str], LinkSet],
    *,
    policy: ResourcePolicy = DEFAULT_POLICY,
    entry_media_type: str | None = None,
) -> ScholarlyObject:
    """Compute the object's boundary from its entry page.

    Item edges are expanded breadth-first with a visited set, so cycles
    terminate and each member is fetched once. Failures on non-entry
    members are recorded on the object, not raised.
    """
    try:
        links = link_oracle(entry)
    except Exception as exc:  # noqa: BLE001 - oracle errors become FetchFailure
        raise FetchFailure(entry, str(exc)) from exc

    if not select(links, ITEM) and not entry_is_content(links, policy):
        raise NoEntryPage(entry)

    entry_desc = _entry_descriptor(entry, links, entry_media_type)
    pubs: list[ResourceDescriptor] = []
    failures: list[tuple[str, str]] = []
    visited: set[str] = {entry}
    if entry_is_content(links, policy):
        pubs.append(entry_desc)

    queue: list[TypedLink] = list(select(links, ITEM))
    while queue:
        link = queue.pop(0)
        if link.target in visited:
            continue
        visited.add(link.target)
        member_set: LinkSet | None = None
        try:
            member_set = link_oracle(link.target)
        except Exception as exc:  # noqa: BLE001
            failures.append((link.target, str(exc)))
        pubs.append(_item_descriptor(link, member_set))
        if member_set is not None:
            queue.extend(select(member_set, ITEM))

    return _finish_object(entry_desc, pubs, links, failures, policy)


def classify_pattern(
    obj: ScholarlyObject, *, policy: ResourcePolicy = DEFAULT_POLICY
) -> PatternId:
    """Entry page doubling as content is the PLOS shape; a pure landing
    page splits on whether the identifying URI lives in shared identifier
    infrastructure or the publisher's own space."""
    entry_in_pubs = any(d.uri == obj.entry_page.uri for d in obj.publication_resources)
    if entry_in_pubs:
        return PatternId.PLOS_STYLE
    if obj.publication_resources and obj.identifying_uri:
        if policy.is_persistent_uri(obj.identifying_uri):
            return PatternId.APS_STYLE
        return PatternId.ARXIV_STYLE
    return PatternId.OTHER


def validate_object(
    obj: ScholarlyObject, *, policy: ResourcePolicy = DEFAULT_POLICY
) -> list[Violation]:
    """Structural checks over observed evidence.

    Members never visited (links is None) cannot be judged for
    reciprocity and are skipped rather than failed.
    """
    violations: list[Violation] = []
    if not obj.publication_resources:
        violations.append(Violation(ViolationKind.EMPTY_OBJECT, obj.entry_page.uri))
        return violations

    entry_uri = obj.entry_page.uri
    id_targets: dict[str, str] = {}
    entry_id = pick_identifying_uri(obj.entry_page.links or LinkSet(), policy=policy)
    if entry_id:
        id_targets[entry_uri] = entry_id

    for member in obj.publication_resources:
        if member.uri == entry_uri:
            continue
        if member.media_type is None:
            violations.append(
                Violation(
                    ViolationKind.MISSING_MIME,
                    member.uri,
                    "item link carried no type attribute",
                )
            )
        if member.links is None:
            continue
        if not links_back(member.links, entry_uri):
            violations.append(
                Violation(
                    ViolationKind.MISSING_BACK_LINK,
                    member.uri,
                    "no collection link back to the entry page",
                )
            )
        if claims_persistent_id(member.links):
            id_targets[member.uri] = pick_identifying_uri(member.links, policy=policy)

    distinct = sorted(set(id_targets.values()))
    if len(distinct) > 1:
        violations.append(
            Violation(
                ViolationKind.PERSISTENT_ID_MISMATCH,
                None,
                "members disagree on persistent-id target: " + ", ".join(distinct),
            )
        )
    return violations
