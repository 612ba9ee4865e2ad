"""Seeded random generators shared by module tests and the acceptance suite.

Everything takes an explicit random.Random so failures reproduce from a
seed printed by the caller.
"""

from __future__ import annotations

import random
import string
from dataclasses import replace
from datetime import datetime, timedelta, timezone

from sgp.fixity import compute_fixity
from sgp.fixtures import ABLATION_KEYS, FixtureSpec, landing_spec, plos_spec
from sgp.links import LinkAttributes, LinkSet, RelationType, TypedLink
from sgp.resourcesync import ChangeEvent, ChangeKind, ChangeList
from sgp.rfc3339 import format_rfc3339, parse_rfc3339

REL_TOKENS = ["item", "collection", "describedby", "describes", "type", "persistent-id"]
MEDIA_TYPES = [
    "application/pdf",
    "application/xml",
    "application/json",
    "text/html",
    "text/plain",
    "application/octet-stream",
]
SEM_TYPES = [
    "info:eu-repo/semantics/article",
    "info:eu-repo/semantics/dataset",
    "info:eu-repo/semantics/objectFile",
    "info:eu-repo/semantics/descriptiveMetadata",
    "info:eu-repo/semantics/humanStartPage",
]
# names that must stay clear of the known link parameters
EXTRA_NAMES = ["anchor", "hreflang", "title", "media", "x-note", "foo"]

_VALUE_CHARS = string.ascii_letters + string.digits + " .,:;/()'\"\\=<>?&-_"


def random_uri(rng: random.Random) -> str:
    host = rng.randint(0, 99)
    path = rng.randint(0, 9999)
    kind = rng.random()
    if kind < 0.15:
        return f"info:eu-repo/semantics/thing{path}"
    if kind < 0.3:
        return f"http://dx.doi.org/10.{1000 + host}/item.{path}"
    uri = f"http://host{host}.example/res/{path}"
    if rng.random() < 0.4:
        uri += f"?id=10.{1000 + host}/x{path}"
    return uri


def random_param_value(rng: random.Random) -> str | None:
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.3:
        return ""
    n = rng.randint(1, 24)
    return "".join(rng.choice(_VALUE_CHARS) for _ in range(n))


def random_relation(rng: random.Random) -> RelationType:
    roll = rng.random()
    if roll < 0.6:
        return RelationType(rng.choice(REL_TOKENS))
    if roll < 0.8:
        return RelationType("http://rel.example/r" + str(rng.randint(0, 500)))
    return RelationType("ext-" + "".join(rng.choice(string.ascii_lowercase) for _ in range(6)))


def random_link(rng: random.Random) -> TypedLink:
    extra = tuple(
        (rng.choice(EXTRA_NAMES), random_param_value(rng))
        for _ in range(rng.randint(0, 3))
    )
    attrs = LinkAttributes(
        media_type=rng.choice(MEDIA_TYPES) if rng.random() < 0.5 else None,
        profile="http://profile.example/p" + str(rng.randint(0, 50))
        if rng.random() < 0.4
        else None,
        sem_type=rng.choice(SEM_TYPES) if rng.random() < 0.4 else None,
        extra=extra,
    )
    return TypedLink(target=random_uri(rng), rel=random_relation(rng), attrs=attrs)


def random_link_set(rng: random.Random, max_links: int = 6) -> LinkSet:
    return LinkSet(tuple(random_link(rng) for _ in range(rng.randint(0, max_links))))


def random_datetime(rng: random.Random) -> datetime:
    base = datetime(2000, 1, 1, tzinfo=timezone.utc)
    return base + timedelta(seconds=rng.randint(0, 820_000_000))


def random_xml_safe_link(rng: random.Random, source: str | None = None) -> TypedLink:
    # XML attributes: extras need distinct names and real string values
    names = rng.sample(EXTRA_NAMES, k=rng.randint(0, 2))
    extra = tuple(
        (name, "".join(rng.choice(_VALUE_CHARS) for _ in range(rng.randint(0, 12))))
        for name in names
    )
    attrs = LinkAttributes(
        media_type=rng.choice(MEDIA_TYPES) if rng.random() < 0.5 else None,
        profile="http://profile.example/p" + str(rng.randint(0, 50))
        if rng.random() < 0.4
        else None,
        sem_type=rng.choice(SEM_TYPES) if rng.random() < 0.4 else None,
        extra=extra,
    )
    return TypedLink(
        target=random_uri(rng), rel=random_relation(rng), attrs=attrs, source=source
    )


def random_change_event(
    rng: random.Random, *, kinds: tuple[ChangeKind, ...] = tuple(ChangeKind)
) -> ChangeEvent:
    loc = f"http://host{rng.randint(0, 99)}.example/res/{rng.randint(0, 99999)}"
    kind = rng.choice(kinds)
    if kind is ChangeKind.DELETED:
        links: tuple[TypedLink, ...] = ()
    else:
        links = tuple(
            random_xml_safe_link(rng, source=loc) for _ in range(rng.randint(0, 4))
        )
    fixity = None
    if kind is not ChangeKind.DELETED and rng.random() < 0.3:
        payload = rng.getrandbits(64).to_bytes(8, "big")
        fixity = compute_fixity(payload, algorithm=rng.choice(["md5", "sha-256"]))
    return ChangeEvent(
        loc=loc,
        kind=kind,
        datetime=random_datetime(rng),
        links=LinkSet(links),
        fixity=fixity,
    )


def random_change_list(rng: random.Random, max_events: int = 8) -> ChangeList:
    events = sorted(
        (random_change_event(rng) for _ in range(rng.randint(0, max_events))),
        key=lambda event: event.datetime,
    )
    from_time = until_time = None
    if events and rng.random() < 0.5:
        from_time = events[0].datetime - timedelta(hours=1)
        until_time = events[-1].datetime + timedelta(hours=1)
    return ChangeList(
        events=tuple(events), from_time=from_time, until_time=until_time
    )


def random_dump_entries(
    rng: random.Random, max_entries: int = 6
) -> list[tuple[ChangeEvent, bytes | None]]:
    entries: list[tuple[ChangeEvent, bytes | None]] = []
    for _ in range(rng.randint(1, max_entries)):
        event = random_change_event(rng)
        if event.kind is ChangeKind.DELETED:
            entries.append((event, None))
            continue
        payload = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 200)))
        if event.fixity is not None:
            # the generated fixity described a throwaway body; bind it to this one
            event = replace(
                event, fixity=compute_fixity(payload, algorithm=event.fixity.algorithm)
            )
        entries.append((event, payload))
    return entries


def random_descriptor(rng: random.Random, role: "ResourceRole") -> "ResourceDescriptor":
    from sgp.resources import ResourceDescriptor

    fixity = None
    if rng.random() < 0.3:
        fixity = compute_fixity(rng.getrandbits(64).to_bytes(8, "big"))
    return ResourceDescriptor(
        uri=random_uri(rng),
        role=role,
        media_type=rng.choice(MEDIA_TYPES) if rng.random() < 0.6 else None,
        sem_type=rng.choice(SEM_TYPES) if rng.random() < 0.4 else None,
        profile="http://profile.example/p" + str(rng.randint(0, 50))
        if rng.random() < 0.3
        else None,
        fixity=fixity,
        links=random_link_set(rng, max_links=3) if rng.random() < 0.5 else None,
    )


def random_scholarly_object(rng: random.Random) -> "ScholarlyObject":
    from sgp.resources import PatternId, ResourceRole, ScholarlyObject

    failures = tuple(
        (random_uri(rng), rng.choice(["timeout", "HTTP 500", "unreadable links"]))
        for _ in range(rng.randint(0, 2))
    )
    return ScholarlyObject(
        entry_page=random_descriptor(rng, ResourceRole.ENTRY_PAGE),
        publication_resources=tuple(
            random_descriptor(rng, ResourceRole.PUBLICATION_RESOURCE)
            for _ in range(rng.randint(0, 3))
        ),
        bibliographic_resources=tuple(
            random_descriptor(rng, ResourceRole.BIBLIOGRAPHIC_RESOURCE)
            for _ in range(rng.randint(0, 2))
        ),
        identifying_uri=f"http://dx.doi.org/10.{rng.randint(1000, 9999)}/x{rng.randint(0, 999)}"
        if rng.random() < 0.7
        else None,
        pattern=rng.choice(list(PatternId)) if rng.random() < 0.5 else None,
        failures=failures,
    )


def random_fetch_summary(rng: random.Random) -> "FetchSummary":
    from sgp.harvester import FetchSummary

    status = rng.choice([200, 200, 200, 404, 500, None])
    ok = status is not None and status == 200
    return FetchSummary(
        uri=random_uri(rng),
        status=status,
        sha256=compute_fixity(rng.getrandbits(32).to_bytes(4, "big")).digest if ok else None,
        length=rng.randint(0, 10_000_000) if ok else None,
        media_type=rng.choice(MEDIA_TYPES) if ok and rng.random() < 0.8 else None,
        fetched_at=random_datetime(rng) if status is not None else None,
    )


def random_bib_record(rng: random.Random) -> "BibRecord":
    from sgp.bibliography import BibRecord, SourceFormat

    authors = tuple(
        (
            "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(2, 10))),
            "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(1, 8)))
            if rng.random() < 0.8
            else None,
        )
        for _ in range(rng.randint(0, 5))
    )
    return BibRecord(
        title="".join(rng.choice(_VALUE_CHARS) for _ in range(rng.randint(4, 60))).strip() or "T",
        source_format=rng.choice(list(SourceFormat)),
        doi=f"10.{rng.randint(1000, 9999)}/j.{rng.randint(0, 999)}" if rng.random() < 0.7 else None,
        authors=authors,
        container="".join(rng.choice(string.ascii_letters + " ") for _ in range(12)).strip() or None,
        year=rng.randint(1900, 2030) if rng.random() < 0.8 else None,
        volume=str(rng.randint(1, 99)) if rng.random() < 0.6 else None,
        issue=str(rng.randint(1, 12)) if rng.random() < 0.5 else None,
        pages=f"e{rng.randint(1, 999999)}" if rng.random() < 0.5 else None,
        source_uri=random_uri(rng) if rng.random() < 0.5 else None,
    )


def random_discrepancy(rng: random.Random) -> "Discrepancy":
    from sgp.bibliography import Discrepancy, Severity

    return Discrepancy(
        field=rng.choice(["title", "doi", "year", "volume", "pages"]),
        left=random_param_value(rng),
        right=random_param_value(rng),
        severity=rng.choice(list(Severity)),
    )


def random_reconciliation_report(
    rng: random.Random, matched: bool | None = None
) -> "ReconciliationReport":
    from sgp.bibliography import ReconciliationReport

    if matched is None:
        matched = rng.random() < 0.5
    discrepancies = tuple(random_discrepancy(rng) for _ in range(rng.randint(0, 3)))
    return ReconciliationReport(matched=matched, discrepancies=discrepancies)


def random_bibliography_report(rng: random.Random) -> "BibliographyReport":
    from sgp.harvester import BibliographyReport

    matched: bool | None = rng.choice([True, False, None])
    report = None
    if matched is not None:
        report = random_reconciliation_report(rng, matched)
    return BibliographyReport(
        matched=matched,
        report=report,
        record=random_bib_record(rng) if rng.random() < 0.7 else None,
        notes=tuple(
            rng.choice(["no registrar metadata link", "publisher metadata unavailable"])
            for _ in range(rng.randint(0, 2))
        ),
    )


def random_completeness_report(rng: random.Random) -> "CompletenessReport":
    from sgp.harvester import CompletenessReport

    return CompletenessReport(
        passed=rng.random() < 0.7,
        violations=tuple(
            f"{rng.choice(['major', 'minor'])}: missing-back-link at {random_uri(rng)}"
            for _ in range(rng.randint(0, 2))
        ),
        failures=tuple(
            (random_uri(rng), f"HTTP {rng.choice([404, 500, 503])}")
            for _ in range(rng.randint(0, 2))
        ),
    )


def random_substance_report(rng: random.Random) -> "SubstanceReport":
    from sgp.harvester import SubstanceReport

    return SubstanceReport(
        passed=rng.random() < 0.8,
        configured=rng.random() < 0.5,
        notes=tuple(f"pdf: {rng.randint(0, 3)} of >= 1" for _ in range(rng.randint(0, 2))),
    )


def random_ingest_record(rng: random.Random) -> "IngestRecord":
    from sgp.harvester import IngestMode, IngestRecord

    bibliography = random_bibliography_report(rng)
    completeness = random_completeness_report(rng)
    substance = random_substance_report(rng)
    return IngestRecord(
        object=random_scholarly_object(rng),
        trigger_loc=random_uri(rng),
        trigger_kind=rng.choice(list(ChangeKind)),
        trigger_datetime=random_datetime(rng),
        mode=rng.choice(list(IngestMode)),
        completeness=completeness,
        bibliography=bibliography,
        substance=substance,
        fetches=tuple(random_fetch_summary(rng) for _ in range(rng.randint(0, 5))),
        filter_tag=rng.choice(["journals", "data", None]),
        tombstone=rng.random() < 0.1,
        created_at=random_datetime(rng),
    )


def random_substance_rule(rng: random.Random) -> "SubstanceRule":
    from sgp.harvester import SubstanceRule

    return SubstanceRule(*(rng.choice([0, 0, 1, 3, 10_000]) for _ in range(4)))


def random_substance_policy(rng: random.Random) -> "SubstancePolicy":
    from sgp.harvester import SubstancePolicy

    tags = rng.sample(["journals", "data", "theses", "x y", ""], k=rng.randint(0, 3))
    return SubstancePolicy(
        rules=tuple((tag, random_substance_rule(rng)) for tag in tags),
        default=random_substance_rule(rng) if rng.random() < 0.5 else None,
    )


def random_fixture_spec(rng: random.Random) -> FixtureSpec:
    spec = rng.choice([plos_spec, landing_spec])(pdf_bytes=rng.randint(0, 4096))
    return replace(
        spec,
        assets=tuple(
            replace(asset, pad_to=rng.choice([None, 0, rng.randint(1, 9999)]))
            for asset in spec.assets
        ),
        ablations=frozenset(rng.sample(sorted(ABLATION_KEYS), k=rng.randint(0, 3))),
        status_scripts=tuple(
            (
                f"/p{rng.randint(0, 9)}",
                tuple(rng.choice([200, 404, 429, 500, 503]) for _ in range(rng.randint(0, 3))),
            )
            for _ in range(rng.randint(0, 2))
        ),
    )


def random_check_result(rng: random.Random, check_id: str | None = None) -> "CheckResult":
    from sgp.auditor import RECOMMENDATIONS, CheckResult, Verdict

    verdict = rng.choice(list(Verdict))
    # a pass or a fail needs evidence
    least = 0 if verdict is Verdict.NOT_APPLICABLE else 1
    evidence = tuple(
        (random_uri(rng), rng.choice(["fine", "no item links", "HTTP 404"]))
        for _ in range(rng.randint(least, 3))
    )
    return CheckResult(
        check_id=check_id or rng.choice(sorted(RECOMMENDATIONS)),
        verdict=verdict,
        evidence=evidence,
        warnings=tuple(
            f"item link without sem-type: {random_uri(rng)}" for _ in range(rng.randint(0, 2))
        ),
    )


def random_audit_report(rng: random.Random) -> "AuditReport":
    from sgp.auditor import RECOMMENDATIONS, AuditReport

    checks = rng.sample(sorted(RECOMMENDATIONS), k=rng.randint(1, len(RECOMMENDATIONS)))
    return AuditReport(
        target=random_uri(rng),
        results=tuple(random_check_result(rng, check_id) for check_id in checks),
        generated_at=random_datetime(rng),
    )


def distinct_specs(count: int, patterns=(plos_spec, landing_spec)) -> list[FixtureSpec]:
    """``count`` compliant objects for one fixture server, cycling through
    ``patterns``, each under its own path prefix with its own DOI and its
    own deposit minute."""
    specs = []
    for index in range(count):
        base = patterns[index % len(patterns)]()
        root = f"/obj{index}"
        deposited = parse_rfc3339(base.deposited) + timedelta(minutes=index)
        specs.append(
            replace(
                base,
                doi=f"{base.doi}.{index}",
                entry_path=root + base.entry_path,
                assets=tuple(replace(a, path=root + a.path) for a in base.assets),
                deposited=format_rfc3339(deposited),
            )
        )
    return specs
