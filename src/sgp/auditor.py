"""Compliance audit for link-bearing scholarly endpoints.

Twelve checks, R1 to R3 against a registrar's change feed and identifier
resolution, R4 to R12 against a publisher's feed and entry page. Every
check is read-only (HEAD plus feed GETs) and returns a verdict with the
URIs it judged, so a failing report doubles as a worklist.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain
from typing import Callable, Sequence
from urllib.parse import urlsplit

from .codec import SCHEMA_VERSION, Record
from .crossref import CROSSREF_PROFILE
from .links import DESCRIBEDBY, DESCRIBES, ITEM, PERSISTENT_ID, LinkSet, MalformedLinkField
from .navigator import NavigationError, SignpostClient
from .resources import DEFAULT_POLICY, ResourcePolicy, claims_persistent_id, links_back
from .resourcesync import ChangeEvent, ChangeKind, ChangeListError, parse_change_list
from .rfc3339 import format_rfc3339, utcnow

__all__ = [
    "Verdict",
    "CheckResult",
    "AuditReport",
    "Auditor",
    "EmptyReport",
    "RECOMMENDATIONS",
    "render_report",
]

RECOMMENDATIONS = {
    "R1": "registrar publishes a change feed with events",
    "R2": "registrar events locate works by persistent identifier and link their metadata",
    "R3": "resolving the persistent identifier discloses a typed metadata link en route",
    "R4": "publisher publishes a change feed with events",
    "R5": "publisher events locate the entry page",
    "R6": "feed events announce member resources with typed item links",
    "R7": "entry page announces member resources with typed item links",
    "R8": "member resources link back to the entry page",
    "R9": "feed events link bibliographic descriptions",
    "R10": "feed events carry the persistent identifier",
    "R11": "entry page links bibliographic descriptions that point back",
    "R12": "entry page and member resources carry the persistent identifier",
}

_REGISTRAR_CHECKS = ("R1", "R2", "R3")
_PUBLISHER_CHECKS = tuple(f"R{i}" for i in range(4, 13))
# how many feed events and linked documents each check inspects; R5
# alone looks at every feed event, since the entry's own event may come
# anywhere in the feed
_SAMPLE = 5
_UNCLAIMED = "no persistent identifier claimed anywhere"


class EmptyReport(ValueError):
    pass


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CheckResult(Record):
    """One recommendation's verdict with the evidence behind it."""

    check_id: str = field(metadata={"key": "check"})
    verdict: Verdict
    evidence: tuple[tuple[str, str], ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.check_id not in RECOMMENDATIONS:
            raise ValueError(f"unknown check id: {self.check_id}")
        if self.verdict is not Verdict.NOT_APPLICABLE and not self.evidence:
            raise ValueError(f"{self.check_id}: a {self.verdict.value} needs evidence")

    @property
    def recommendation(self) -> str:
        return RECOMMENDATIONS[self.check_id]


@dataclass(frozen=True)
class AuditReport(Record):
    target: str
    results: tuple[CheckResult, ...]
    generated_at: datetime = field(default_factory=utcnow)

    def __post_init__(self) -> None:
        if not self.results:
            raise EmptyReport("a report needs at least one check result")
        ids = [r.check_id for r in self.results]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate check ids in report")

    def result_for(self, check_id: str) -> CheckResult:
        for result in self.results:
            if result.check_id == check_id:
                return result
        raise KeyError(check_id)

    @property
    def applicable(self) -> tuple[CheckResult, ...]:
        return tuple(
            r for r in self.results if r.verdict is not Verdict.NOT_APPLICABLE
        )

    @property
    def passed(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.verdict is Verdict.PASS)

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.verdict is Verdict.FAIL)

    @property
    def score(self) -> str:
        return f"{len(self.passed)}/{len(self.applicable)}"

    @property
    def all_passed(self) -> bool:
        return bool(self.applicable) and not self.failed

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "schema_version": SCHEMA_VERSION, "score": self.score}


def render_report(report: AuditReport, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=1, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown format: {fmt}")
    lines = [f"audit: {report.target}", f"generated: {format_rfc3339(report.generated_at)}", ""]
    for result in report.results:
        lines.append(
            f"{result.check_id:<4} {result.verdict.value:<15} {result.recommendation}"
        )
        for uri, text in result.evidence:
            lines.append(f"       {uri}: {text}")
    warnings = [
        f"{r.check_id}: {w}" for r in report.results for w in r.warnings
    ]
    if warnings:
        lines.append("")
        lines.append("warnings:")
        lines.extend(f"  {w}" for w in warnings)
    skipped = len(report.results) - len(report.applicable)
    tail = f" ({skipped} not applicable)" if skipped else ""
    lines.append("")
    lines.append(f"score: {report.score} recommendations met{tail}")
    return "\n".join(lines)


# ------------------------------------------------------------- the audit


def _verdict(check_id, offenders, passed, warnings=()) -> CheckResult:
    """FAIL on the (uri, text) offenders when there are any, else PASS
    on the one (uri, text) pair ``passed``."""
    if offenders:
        return CheckResult(check_id, Verdict.FAIL, tuple(offenders), tuple(warnings))
    return CheckResult(check_id, Verdict.PASS, (passed,), tuple(warnings))


def _not_applicable(check_id: str, uri: str, why: str) -> CheckResult:
    return CheckResult(check_id, Verdict.NOT_APPLICABLE, ((uri, why),))


def _unjudged(check_id: str, feed_uri: str) -> CheckResult:
    """An event check with no live events to judge passes; an empty or
    unreadable feed is for R1 and R4 to fail."""
    return CheckResult(check_id, Verdict.PASS, ((feed_uri, "no events to judge"),))


def _feed_check(check_id, feed_uri, events, problem) -> CheckResult:
    """R1 and R4: the feed reads and carries events."""
    if problem is None and not events:
        problem = "feed parses but carries no events"
    offenders = [] if problem is None else [(feed_uri, problem)]
    passed = (feed_uri, f"feed carries {len(events or ())} event(s)")
    return _verdict(check_id, offenders, passed)


def _events_carry(check_id, rel, feed_uri, events, passed) -> CheckResult:
    """R9 and R10: every event carries a ``rel`` link."""
    if not events:
        return _unjudged(check_id, feed_uri)
    offenders = [
        (event.loc, f"event carries no {rel.value} link")
        for event in events
        if not event.links.select(rel)
    ]
    return _verdict(check_id, offenders, (feed_uri, f"{len(events)} event(s) {passed}"))


def _item_typing(loc, items) -> tuple[list, list]:
    """R6 and R7: (offenders, warnings) for the item links one resource
    announces; an item link needs a type and should carry a sem-type."""
    offenders = [
        (loc, f"item link without type: {link.target}")
        for link in items
        if not link.attrs.media_type
    ]
    warnings = [
        f"item link without sem-type: {link.target}"
        for link in items
        if link.attrs.media_type and not link.attrs.sem_type
    ]
    return offenders, warnings


class _Surface:
    """Read-only view of the endpoints under audit, through one audit's
    memoised client, which keeps what succeeded. A URI whose HEAD failed,
    and a feed whose probe found its Link header unreadable, are noted
    here and not requested again."""

    def __init__(self, client: SignpostClient):
        self.client = client
        self._trouble: dict[str, str] = {}
        self._feed_trouble: dict[str, str] = {}

    def note(self, uri: str, exc: NavigationError | MalformedLinkField) -> None:
        """Record why ``uri`` could not be read; ``links_of`` will not ask."""
        unreadable = isinstance(exc, MalformedLinkField)
        self._trouble[uri] = "Link header unreadable" if unreadable else str(exc)

    def links_of(self, uri: str) -> LinkSet | None:
        """Links observed on the resource, None when they cannot be read."""
        if uri in self._trouble:
            return None
        try:
            return self.client.head_links(uri).links
        except (NavigationError, MalformedLinkField) as exc:
            self.note(uri, exc)
        return None

    def trouble(self, uri: str) -> str:
        return self._trouble.get(uri, "no links observed")

    def judge(self, uris, rule: Callable[[LinkSet], bool], complaint: str) -> list:
        """The offenders among ``uris``: each whose links cannot be read,
        with why, and each whose links break ``rule``, with ``complaint``."""
        offenders = []
        for uri in uris:
            links = self.links_of(uri)
            if links is None:
                offenders.append((uri, self.trouble(uri)))
            elif not rule(links):
                offenders.append((uri, complaint))
        return offenders

    def answers(self, uri: str) -> bool:
        """Whether a feed location answers a GET at all. A feed whose Link
        header does not parse answers; ``feed`` reports it without a
        second GET."""
        try:
            self.client.fetch_resource(uri)
        except MalformedLinkField as exc:
            self._feed_trouble[uri] = f"feed unreadable: Link header unreadable: {exc}"
        except NavigationError:
            return False
        return True

    def feed(self, uri: str) -> tuple[tuple[ChangeEvent, ...] | None, str | None]:
        """(events, problem): events is None when the feed cannot be read,
        every parsed event otherwise; checks apply the sample cap."""
        if uri in self._feed_trouble:
            return None, self._feed_trouble[uri]
        try:
            body = self.client.fetch_resource(uri).body
            return parse_change_list(body).events, None
        except NavigationError as exc:
            return None, f"feed unavailable: {exc}"
        except MalformedLinkField as exc:
            return None, f"feed unreadable: Link header unreadable: {exc}"
        except ChangeListError as exc:
            return None, f"feed unreadable: {exc}"


class Auditor:
    """Runs the twelve checks and never writes anything anywhere."""

    def __init__(
        self,
        *,
        client: SignpostClient | None = None,
        policy: ResourcePolicy = DEFAULT_POLICY,
    ):
        self._client = client or SignpostClient(strict=True)
        self._policy = policy

    # -- public entry points

    def audit(
        self,
        entry_uri: str,
        *,
        publisher_feed: str | None = None,
        registrar_feed: str | None = None,
        registrar_candidates: Sequence[str] = (),
    ) -> AuditReport:
        """Run the twelve checks. Without a ``registrar_feed``, the first
        of ``registrar_candidates`` that answers is audited as one, and
        that probe's GET is also its read; when none answers, R1 to R3
        are not applicable."""
        # one memo for the whole audit; a second audit starts afresh
        surface = _Surface(self._client.memoised())
        if registrar_feed is None:
            registrar_feed = next(
                (uri for uri in registrar_candidates if surface.answers(uri)), None
            )
        results: list[CheckResult] = []
        if registrar_feed is not None:
            results.extend(self._registrar_checks(surface, registrar_feed, entry_uri))
        else:
            results.extend(
                _not_applicable(check_id, entry_uri, "no registrar feed to audit")
                for check_id in _REGISTRAR_CHECKS
            )
        results.extend(self._publisher_checks(surface, entry_uri, publisher_feed))
        return AuditReport(target=entry_uri, results=tuple(results))

    # -- registrar side

    def _registrar_checks(
        self, surface: _Surface, feed_uri: str, entry_uri: str
    ) -> list[CheckResult]:
        events, problem = surface.feed(feed_uri)
        events = None if events is None else events[:_SAMPLE]
        return [
            _feed_check("R1", feed_uri, events, problem),
            self._r2(feed_uri, events or ()),
            self._r3(surface, events or (), entry_uri),
        ]

    def _r2(self, feed_uri, events) -> CheckResult:
        if not events:
            return _unjudged("R2", feed_uri)
        offenders = []
        for event in events:
            if not self._policy.is_persistent_uri(event.loc):
                offenders.append((event.loc, "event loc is not a persistent identifier"))
            elif not event.links.select(DESCRIBEDBY):
                offenders.append((event.loc, "event carries no describedby link"))
        return _verdict(
            "R2",
            offenders,
            (feed_uri, f"{len(events)} event(s) locate works by persistent identifier"),
        )

    def _r3(self, surface, events, entry_uri) -> CheckResult:
        persistent = self._policy.is_persistent_uri
        candidate = next((e.loc for e in events if persistent(e.loc)), None)
        if candidate is None:
            entry_links = surface.links_of(entry_uri) or LinkSet()
            candidate = next(filter(persistent, entry_links.targets(PERSISTENT_ID)), None)
        if candidate is None:
            return _not_applicable("R3", entry_uri, "no persistent identifier to resolve")
        try:
            walk = surface.client.resolve_persistent(candidate)
        except (NavigationError, MalformedLinkField) as exc:
            if exc.uri is not None:
                # where the walk stopped, typically the entry page
                surface.note(exc.uri, exc)
            return CheckResult(
                "R3", Verdict.FAIL, ((candidate, f"resolution failed: {exc}"),)
            )
        disclosed = any(
            link.attrs.media_type and link.attrs.profile
            for hop in walk.hops
            for link in hop.links.select(DESCRIBEDBY)
        )
        missing = (candidate, "no typed describedby disclosed before the landing page")
        return _verdict(
            "R3",
            [] if disclosed else [missing],
            (candidate, "redirect discloses describedby with type and profile"),
        )

    # -- publisher side

    def _publisher_checks(
        self, surface: _Surface, entry_uri: str, feed_uri: str | None
    ) -> list[CheckResult]:
        if feed_uri is None:
            origin = urlsplit(entry_uri)
            feed_uri = f"{origin.scheme}://{origin.netloc}/changelist.xml"
        every_event, problem = surface.feed(feed_uri)
        every_active = tuple(
            e for e in (every_event or ()) if e.kind is not ChangeKind.DELETED
        )
        events = None if every_event is None else every_event[:_SAMPLE]
        active = tuple(
            e for e in (events or ()) if e.kind is not ChangeKind.DELETED
        )
        entry_links = surface.links_of(entry_uri)
        own_events = tuple(e for e in active if e.loc == entry_uri)

        # member URIs come from the entry header and from the entry's own
        # feed event; other objects' events must not leak members in
        members = list(
            dict.fromkeys(
                chain(
                    (entry_links or LinkSet()).targets(ITEM),
                    *(e.links.targets(ITEM) for e in own_events),
                )
            )
        )
        # the first claim found ends the search, so member HEADs are made
        # only when neither the entry page nor the feed claims one
        doi_claimed = any(
            links is not None and claims_persistent_id(links)
            for links in chain(
                (entry_links,),
                (e.links for e in active),
                map(surface.links_of, members),
            )
        )

        r10 = _events_carry(
            "R10", PERSISTENT_ID, feed_uri, active, "carry the persistent identifier"
        )
        if active and not doi_claimed:
            r10 = _not_applicable("R10", feed_uri, _UNCLAIMED)
        return [
            _feed_check("R4", feed_uri, events, problem),
            self._r5(feed_uri, entry_uri, every_active),
            self._r6(feed_uri, active),
            self._r7(surface, entry_uri, entry_links),
            self._r8(surface, entry_uri, members),
            _events_carry(
                "R9", DESCRIBEDBY, feed_uri, active, "link bibliographic descriptions"
            ),
            r10,
            self._r11(surface, entry_uri, entry_links),
            self._r12(surface, entry_uri, members, doi_claimed),
        ]

    def _r5(self, feed_uri, entry_uri, active) -> CheckResult:
        if not active:
            return _unjudged("R5", feed_uri)
        sample_locs = ", ".join(e.loc for e in active[:3])
        missing = (feed_uri, f"no event locates the entry page; saw: {sample_locs}")
        located = any(e.loc == entry_uri for e in active)
        passed = (entry_uri, "an event locates the entry page")
        return _verdict("R5", [] if located else [missing], passed)

    def _r6(self, feed_uri, active) -> CheckResult:
        if not active:
            return _unjudged("R6", feed_uri)
        offenders, warnings = [], []
        announced = 0
        for event in active:
            items = event.links.select(ITEM)
            announced += bool(items)
            found, warned = _item_typing(event.loc, items)
            offenders += found
            warnings += warned
        if not announced:
            offenders = [(feed_uri, "no event announces member resources")]
        passed = (feed_uri, f"{announced} event(s) announce typed members")
        return _verdict("R6", offenders, passed, warnings)

    def _r7(self, surface, entry_uri, entry_links) -> CheckResult:
        items = (entry_links or LinkSet()).select(ITEM)
        offenders, warnings = _item_typing(entry_uri, items)
        if entry_links is None:
            offenders, warnings = [(entry_uri, surface.trouble(entry_uri))], []
        elif not items:
            offenders = [(entry_uri, "entry page announces no members")]
        return _verdict(
            "R7", offenders, (entry_uri, f"{len(items)} typed item link(s)"), warnings
        )

    def _r8(self, surface, entry_uri, members) -> CheckResult:
        if not members:
            return _not_applicable("R8", entry_uri, "no member resources discoverable")
        sampled = members[:_SAMPLE]
        offenders = surface.judge(
            sampled,
            lambda links: links_back(links, entry_uri),
            "no collection link back to the entry page",
        )
        return _verdict(
            "R8",
            offenders,
            (entry_uri, f"{len(sampled)} member(s) link back to the entry page"),
        )

    def _r11(self, surface, entry_uri, entry_links) -> CheckResult:
        described = (entry_links or LinkSet()).select(DESCRIBEDBY)
        sampled = [
            link.target for link in described if link.attrs.profile != CROSSREF_PROFILE
        ][:_SAMPLE]
        if entry_links is None:
            offenders = [(entry_uri, surface.trouble(entry_uri))]
        elif not described:
            offenders = [(entry_uri, "entry page links no bibliographic descriptions")]
        else:
            offenders = surface.judge(
                sampled,
                lambda links: entry_uri in links.targets(DESCRIBES),
                "description does not point back to the entry page",
            )
        return _verdict(
            "R11",
            offenders,
            (
                entry_uri,
                f"{len(described)} description link(s), "
                f"{len(sampled)} checked for the describes backlink",
            ),
        )

    def _r12(self, surface, entry_uri, members, doi_claimed) -> CheckResult:
        if not doi_claimed:
            return _not_applicable("R12", entry_uri, _UNCLAIMED)
        sampled = members[:_SAMPLE]
        offenders = surface.judge(
            [entry_uri, *sampled], claims_persistent_id, "no persistent-id link"
        )
        return _verdict(
            "R12",
            offenders,
            (entry_uri, f"entry page and {len(sampled)} member(s) carry it"),
        )
