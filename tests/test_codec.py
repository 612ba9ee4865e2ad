"""Golden JSON: stored records, CLI documents and fixture specs, read
back through ``sgp.codec`` and written again byte for byte.

The files under ``data/golden/`` were produced once, by the encoders of
their day, and are never regenerated: the random records from
``gen.random_ingest_record`` (seed 20260823), the record a harvest of
``plos_spec()`` stored, the object ``sgp resolve`` printed for it, the
document ``sgp feed parse`` printed for ``publisher_event.xml``, the two
fixture specs, a substance policy, a reconciliation of ``article.bib``
against ``work_rosenthal.json`` and an audit of the ``no-entry-describedby``
fixture with a fixed ``generated_at``. Each is
``json.dumps(..., sort_keys=True)`` plus a newline, the form the store and
the CLI write.
"""

import json
from pathlib import Path

import pytest

from sgp.auditor import AuditReport
from sgp.bibliography import ReconciliationReport
from sgp.codec import SCHEMA_VERSION
from sgp.fixtures import FixtureSpec
from sgp.harvester import IngestRecord, SubstancePolicy
from sgp.resources import ScholarlyObject
from sgp.resourcesync import ChangeList

GOLDEN = Path(__file__).parent / "data" / "golden"

CLASSES = {
    "audit_report.json": AuditReport,
    "feed_parse_publisher.json": ChangeList,
    "reconcile_report.json": ReconciliationReport,
    "record_harvested_plos.json": IngestRecord,
    "record_random_author_without_given.json": IngestRecord,
    "record_random_dense.json": IngestRecord,
    "record_random_middle.json": IngestRecord,
    "record_random_sparse.json": IngestRecord,
    "resolve_plos.json": ScholarlyObject,
    "spec_landing.json": FixtureSpec,
    "spec_plos.json": FixtureSpec,
    "substance_policy.json": SubstancePolicy,
}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_golden_file_is_written_again_byte_for_byte(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    data = json.loads(text)
    document = CLASSES[name].from_json_dict(data).to_json_dict()
    if name.startswith(("resolve_", "feed_parse_")):
        # `sgp resolve` and `sgp feed parse` put the schema version beside the object
        document = {"schema_version": SCHEMA_VERSION, **document}
    assert json.dumps(document, sort_keys=True) + "\n" == text


# golden files that other suites read: the audit reports of every
# pattern and ablation, which tests/test_auditor.py re-audits, and the
# fixture's responses, which tests/test_fixtures.py requests again
READ_ELSEWHERE = {"audit_matrix.jsonl", "fixture_responses.json"}


def test_every_golden_file_is_read():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(
        set(CLASSES) | READ_ELSEWHERE
    )
