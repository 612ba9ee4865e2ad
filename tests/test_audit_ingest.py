"""The audit and the ingest read the same Signposting links; where both
judge a property they must agree.

For both patterns, clean and with every ablation, the entry page is
harvested and the endpoint audited. A completeness violation that the
harvest records is evidence against an audit recommendation, and that
recommendation must be among the audit's failed checks. Where the audit
fails a recommendation that ingest also judges but the harvest records
no violation for it, the difference is intended and named here with its
reason.
"""

import pytest

from sgp.auditor import Auditor
from sgp.fixtures import ABLATION_KEYS, degrade, landing_spec, plos_spec, serve
from sgp.harvester import IngestStore, IngestTask, ingest
from sgp.navigator import PolitenessPolicy, SignpostClient
from sgp.resources import ViolationKind
from sgp.resourcesync import ChangeEvent, ChangeKind
from sgp.rfc3339 import parse_rfc3339

FAST = PolitenessPolicy(timeout=5, backoff=0.01)
PATTERNS = {"plos_spec": plos_spec, "landing_spec": landing_spec}
FIXTURES = ("clean", *sorted(ABLATION_KEYS))
DISCOVERY_FAILED = "boundary discovery failed"

# the recommendations each ingest violation evidences; an untyped item
# link breaks R6 when a feed event announces it, R7 when the entry page does
EVIDENCES = {
    ViolationKind.MISSING_BACK_LINK: {"R8"},
    ViolationKind.MISSING_MIME: {"R6", "R7"},
    ViolationKind.PERSISTENT_ID_MISMATCH: {"R12"},
    ViolationKind.EMPTY_OBJECT: {"R7"},
}

# (pattern, fixture) -> (audit checks that fail, harvest outcome, why)
DIFFERENCES = {
    **{
        (pattern, "no-asset-persistent-id"): (
            {"R12"},
            "passed",
            "ingest checks that the persistent identifiers agree, not that "
            "they are present",
        )
        for pattern in PATTERNS
    },
    ("plos_spec", "no-entry-item-links"): (
        {"R7"},
        "passed",
        "the entry page is content itself, so the object is not empty",
    ),
    ("landing_spec", "no-entry-item-links"): (
        {"R7"},
        DISCOVERY_FAILED,
        "a landing page with no item links gives no way into the object, "
        "so there is no object to find violations in",
    ),
    **{
        (pattern, "malformed-entry-header"): (
            {"R7", "R12"},
            DISCOVERY_FAILED,
            "the entry page's Link header does not parse, so there is no "
            "object to find violations in",
        )
        for pattern in PATTERNS
    },
}


def _violation_kinds(record):
    """The ViolationKinds among a record's rendered violations, which read
    ``<severity>: <kind>[ at <uri>][ (<detail>)]``."""
    return {
        ViolationKind(text.split(": ", 1)[1].split(" ", 1)[0])
        for text in record.completeness.violations
        if not text.startswith(DISCOVERY_FAILED)
    }


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_harvest_violations_evidence_failed_audit_checks(pattern, fixture, tmp_path):
    spec = PATTERNS[pattern]()
    if fixture != "clean":
        spec = degrade(spec, fixture)
    with serve(spec) as ep:
        trigger = ChangeEvent(
            loc=ep.entry_uri,
            kind=ChangeKind.CREATED,
            datetime=parse_rfc3339("2026-01-05T12:00:00Z"),
        )
        record = ingest(
            IngestTask(trigger=trigger),
            SignpostClient(FAST),
            IngestStore(tmp_path),
            resource_policy=ep.policy(),
        )
        report = Auditor(
            client=SignpostClient(FAST, strict=True), policy=ep.policy()
        ).audit(ep.entry_uri, registrar_candidates=[ep.registrar_feed_uri])
    failed = {result.check_id for result in report.failed}
    kinds = _violation_kinds(record)
    for kind in kinds:
        assert EVIDENCES[kind] & failed, (kind, failed)
    # only a missing back link is both failed by the audit and recorded
    # by the harvest
    if fixture == "no-collection-backlink":
        assert kinds == {ViolationKind.MISSING_BACK_LINK}
    else:
        assert kinds == set()
    discovery_failed = any(
        text.startswith(DISCOVERY_FAILED) for text in record.completeness.violations
    )
    checks, outcome, _why = DIFFERENCES.get((pattern, fixture), (set(), None, ""))
    assert checks <= failed
    assert discovery_failed == (outcome == DISCOVERY_FAILED)
    assert record.completeness.passed == (not kinds and not discovery_failed)
