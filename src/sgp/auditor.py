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
from typing import Sequence
from urllib.parse import urlsplit

from .crossref import CROSSREF_PROFILE
from .links import LinkSet, MalformedLinkField
from .navigator import NavigationError, SignpostClient
from .resources import DEFAULT_POLICY, ResourcePolicy
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


class EmptyReport(ValueError):
    pass


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class CheckResult:
    """One recommendation's verdict with the evidence behind it."""

    check_id: str
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

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_id,
            "verdict": self.verdict.value,
            "evidence": [[uri, text] for uri, text in self.evidence],
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class AuditReport:
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
        return {
            "schema_version": 1,
            "target": self.target,
            "generated_at": format_rfc3339(self.generated_at),
            "score": self.score,
            "results": [r.to_json_dict() for r in self.results],
        }


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
                CheckResult(
                    check_id,
                    Verdict.NOT_APPLICABLE,
                    ((entry_uri, "no registrar feed to audit"),),
                )
                for check_id in _REGISTRAR_CHECKS
            )
        results.extend(self._publisher_checks(surface, entry_uri, publisher_feed))
        return AuditReport(target=entry_uri, results=tuple(results))

    def _capped(self, events):
        return None if events is None else events[:_SAMPLE]

    # -- registrar side

    def _registrar_checks(
        self, surface: _Surface, feed_uri: str, entry_uri: str
    ) -> list[CheckResult]:
        events, problem = surface.feed(feed_uri)
        events = self._capped(events)
        results = [self._r1(feed_uri, events, problem)]
        results.append(self._r2(feed_uri, events or ()))
        results.append(self._r3(surface, events or (), entry_uri))
        return results

    def _r1(self, feed_uri, events, problem) -> CheckResult:
        if problem is not None:
            return CheckResult("R1", Verdict.FAIL, ((feed_uri, problem),))
        if not events:
            return CheckResult(
                "R1", Verdict.FAIL, ((feed_uri, "feed parses but carries no events"),)
            )
        return CheckResult(
            "R1", Verdict.PASS, ((feed_uri, f"feed carries {len(events)} event(s)"),)
        )

    def _r2(self, feed_uri, events) -> CheckResult:
        if not events:
            return CheckResult(
                "R2", Verdict.PASS, ((feed_uri, "no events to judge"),)
            )
        offenders = []
        for event in events:
            if not self._policy.is_persistent_uri(event.loc):
                offenders.append((event.loc, "event loc is not a persistent identifier"))
            elif not event.links.select("describedby"):
                offenders.append((event.loc, "event carries no describedby link"))
        if offenders:
            return CheckResult("R2", Verdict.FAIL, tuple(offenders))
        return CheckResult(
            "R2",
            Verdict.PASS,
            ((feed_uri, f"{len(events)} event(s) locate works by persistent identifier"),),
        )

    def _r3(self, surface, events, entry_uri) -> CheckResult:
        candidate = next(
            (e.loc for e in events if self._policy.is_persistent_uri(e.loc)), None
        )
        if candidate is None:
            entry_links = surface.links_of(entry_uri)
            if entry_links is not None:
                candidate = next(
                    (
                        link.target
                        for link in entry_links.select("persistent-id")
                        if self._policy.is_persistent_uri(link.target)
                    ),
                    None,
                )
        if candidate is None:
            return CheckResult(
                "R3",
                Verdict.NOT_APPLICABLE,
                ((entry_uri, "no persistent identifier to resolve"),),
            )
        try:
            chain = surface.client.resolve_persistent(candidate)
        except (NavigationError, MalformedLinkField) as exc:
            if exc.uri is not None:
                # where the walk stopped, typically the entry page
                surface.note(exc.uri, exc)
            return CheckResult(
                "R3", Verdict.FAIL, ((candidate, f"resolution failed: {exc}"),)
            )
        for hop in chain.hops:
            for link in hop.links.select("describedby"):
                if link.attrs.media_type and link.attrs.profile:
                    return CheckResult(
                        "R3",
                        Verdict.PASS,
                        ((candidate, "redirect discloses describedby with type and profile"),),
                    )
        return CheckResult(
            "R3",
            Verdict.FAIL,
            ((candidate, "no typed describedby disclosed before the landing page"),),
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
        events = self._capped(every_event)
        active = tuple(
            e for e in (events or ()) if e.kind is not ChangeKind.DELETED
        )
        entry_links = surface.links_of(entry_uri)
        own_events = tuple(e for e in active if e.loc == entry_uri)

        # member URIs come from the entry header and from the entry's own
        # feed event; other objects' events must not leak members in
        members: list[str] = []
        for link in (entry_links or LinkSet()).select("item"):
            if link.target not in members:
                members.append(link.target)
        for event in own_events:
            for link in event.links.select("item"):
                if link.target not in members:
                    members.append(link.target)

        doi_claimed = self._doi_claimed(surface, entry_uri, entry_links, members, active)

        results = [
            self._r4(feed_uri, events, problem),
            self._r5(feed_uri, entry_uri, every_active),
            self._r6(feed_uri, active),
            self._r7(surface, entry_uri, entry_links),
            self._r8(surface, entry_uri, members),
            self._r9(feed_uri, active),
            self._r10(feed_uri, active, doi_claimed),
            self._r11(surface, entry_uri, entry_links),
            self._r12(surface, entry_uri, entry_links, members, doi_claimed),
        ]
        return results

    def _doi_claimed(self, surface, entry_uri, entry_links, members, events) -> bool:
        if entry_links is not None and entry_links.select("persistent-id"):
            return True
        for event in events:
            if event.links.select("persistent-id"):
                return True
        for uri in members:
            links = surface.links_of(uri)
            if links is not None and links.select("persistent-id"):
                return True
        return False

    def _r4(self, feed_uri, events, problem) -> CheckResult:
        if problem is not None:
            return CheckResult("R4", Verdict.FAIL, ((feed_uri, problem),))
        if not events:
            return CheckResult(
                "R4", Verdict.FAIL, ((feed_uri, "feed parses but carries no events"),)
            )
        return CheckResult(
            "R4", Verdict.PASS, ((feed_uri, f"feed carries {len(events)} event(s)"),)
        )

    def _r5(self, feed_uri, entry_uri, active) -> CheckResult:
        if not active:
            return CheckResult("R5", Verdict.PASS, ((feed_uri, "no events to judge"),))
        if any(e.loc == entry_uri for e in active):
            return CheckResult(
                "R5", Verdict.PASS, ((entry_uri, "an event locates the entry page"),)
            )
        sample_locs = ", ".join(e.loc for e in active[:3])
        return CheckResult(
            "R5",
            Verdict.FAIL,
            ((feed_uri, f"no event locates the entry page; saw: {sample_locs}"),),
        )

    def _r6(self, feed_uri, active) -> CheckResult:
        if not active:
            return CheckResult("R6", Verdict.PASS, ((feed_uri, "no events to judge"),))
        offenders = []
        warnings = []
        announced = 0
        for event in active:
            items = event.links.select("item")
            if items:
                announced += 1
            for link in items:
                if not link.attrs.media_type:
                    offenders.append((event.loc, f"item link without type: {link.target}"))
                elif not link.attrs.sem_type:
                    warnings.append(f"item link without sem-type: {link.target}")
        if not announced:
            return CheckResult(
                "R6",
                Verdict.FAIL,
                ((feed_uri, "no event announces member resources"),),
                tuple(warnings),
            )
        if offenders:
            return CheckResult("R6", Verdict.FAIL, tuple(offenders), tuple(warnings))
        return CheckResult(
            "R6",
            Verdict.PASS,
            ((feed_uri, f"{announced} event(s) announce typed members"),),
            tuple(warnings),
        )

    def _r7(self, surface, entry_uri, entry_links) -> CheckResult:
        if entry_links is None:
            return CheckResult(
                "R7", Verdict.FAIL, ((entry_uri, surface.trouble(entry_uri)),)
            )
        items = entry_links.select("item")
        if not items:
            return CheckResult(
                "R7", Verdict.FAIL, ((entry_uri, "entry page announces no members"),)
            )
        offenders = [
            (entry_uri, f"item link without type: {link.target}")
            for link in items
            if not link.attrs.media_type
        ]
        warnings = tuple(
            f"item link without sem-type: {link.target}"
            for link in items
            if link.attrs.media_type and not link.attrs.sem_type
        )
        if offenders:
            return CheckResult("R7", Verdict.FAIL, tuple(offenders), warnings)
        return CheckResult(
            "R7",
            Verdict.PASS,
            ((entry_uri, f"{len(items)} typed item link(s)"),),
            warnings,
        )

    def _r8(self, surface, entry_uri, members) -> CheckResult:
        if not members:
            return CheckResult(
                "R8",
                Verdict.NOT_APPLICABLE,
                ((entry_uri, "no member resources discoverable"),),
            )
        sampled = members[:_SAMPLE]
        offenders = []
        for uri in sampled:
            links = surface.links_of(uri)
            if links is None:
                offenders.append((uri, surface.trouble(uri)))
            elif not any(
                link.target == entry_uri for link in links.select("collection")
            ):
                offenders.append((uri, "no collection link back to the entry page"))
        if offenders:
            return CheckResult("R8", Verdict.FAIL, tuple(offenders))
        return CheckResult(
            "R8",
            Verdict.PASS,
            ((entry_uri, f"{len(sampled)} member(s) link back to the entry page"),),
        )

    def _r9(self, feed_uri, active) -> CheckResult:
        if not active:
            return CheckResult("R9", Verdict.PASS, ((feed_uri, "no events to judge"),))
        offenders = [
            (event.loc, "event carries no describedby link")
            for event in active
            if not event.links.select("describedby")
        ]
        if offenders:
            return CheckResult("R9", Verdict.FAIL, tuple(offenders))
        return CheckResult(
            "R9",
            Verdict.PASS,
            ((feed_uri, f"{len(active)} event(s) link bibliographic descriptions"),),
        )

    def _r10(self, feed_uri, active, doi_claimed) -> CheckResult:
        if not active:
            return CheckResult("R10", Verdict.PASS, ((feed_uri, "no events to judge"),))
        if not doi_claimed:
            return CheckResult(
                "R10",
                Verdict.NOT_APPLICABLE,
                ((feed_uri, "no persistent identifier claimed anywhere"),),
            )
        offenders = [
            (event.loc, "event carries no persistent-id link")
            for event in active
            if not event.links.select("persistent-id")
        ]
        if offenders:
            return CheckResult("R10", Verdict.FAIL, tuple(offenders))
        return CheckResult(
            "R10",
            Verdict.PASS,
            ((feed_uri, f"{len(active)} event(s) carry the persistent identifier"),),
        )

    def _r11(self, surface, entry_uri, entry_links) -> CheckResult:
        if entry_links is None:
            return CheckResult(
                "R11", Verdict.FAIL, ((entry_uri, surface.trouble(entry_uri)),)
            )
        described = entry_links.select("describedby")
        if not described:
            return CheckResult(
                "R11",
                Verdict.FAIL,
                ((entry_uri, "entry page links no bibliographic descriptions"),),
            )
        own = [
            link for link in described if link.attrs.profile != CROSSREF_PROFILE
        ]
        sampled = own[:_SAMPLE]
        offenders = []
        for link in sampled:
            links = surface.links_of(link.target)
            if links is None:
                offenders.append((link.target, surface.trouble(link.target)))
            elif not any(
                back.target == entry_uri for back in links.select("describes")
            ):
                offenders.append(
                    (link.target, "description does not point back to the entry page")
                )
        if offenders:
            return CheckResult("R11", Verdict.FAIL, tuple(offenders))
        return CheckResult(
            "R11",
            Verdict.PASS,
            (
                (
                    entry_uri,
                    f"{len(described)} description link(s), "
                    f"{len(sampled)} checked for the describes backlink",
                ),
            ),
        )

    def _r12(self, surface, entry_uri, entry_links, members, doi_claimed) -> CheckResult:
        if not doi_claimed:
            return CheckResult(
                "R12",
                Verdict.NOT_APPLICABLE,
                ((entry_uri, "no persistent identifier claimed anywhere"),),
            )
        offenders = []
        if entry_links is None:
            offenders.append((entry_uri, surface.trouble(entry_uri)))
        elif not entry_links.select("persistent-id"):
            offenders.append((entry_uri, "no persistent-id link"))
        sampled = members[:_SAMPLE]
        for uri in sampled:
            links = surface.links_of(uri)
            if links is None:
                offenders.append((uri, surface.trouble(uri)))
            elif not links.select("persistent-id"):
                offenders.append((uri, "no persistent-id link"))
        if offenders:
            return CheckResult("R12", Verdict.FAIL, tuple(offenders))
        return CheckResult(
            "R12",
            Verdict.PASS,
            ((entry_uri, f"entry page and {len(sampled)} member(s) carry it"),),
        )
