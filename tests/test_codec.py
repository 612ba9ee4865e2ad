"""Golden JSON: stored records, CLI documents and fixture specs, read
back through ``sgp.codec`` and written again byte for byte. Then the
decoders' type checks, over every field of every codec class.

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

import copy
import dataclasses
import json
import random
import types
import typing
from pathlib import Path

import pytest

import gen
from sgp.auditor import AuditReport, CheckResult
from sgp.bibliography import BibRecord, Discrepancy, ReconciliationReport
from sgp.codec import SCHEMA_VERSION, Record, _plan
from sgp.fixity import FixityInfo, compute_fixity
from sgp.fixtures import AssetSpec, FixtureSpec
from sgp.harvester import (
    BibliographyReport,
    CompletenessReport,
    FetchSummary,
    IngestRecord,
    SubstancePolicy,
    SubstanceReport,
    SubstanceRule,
)
from sgp.links import LinkAttributes, LinkSet, TypedLink
from sgp.resources import ResourceDescriptor, ResourceRole, ScholarlyObject
from sgp.resourcesync import ChangeEvent, ChangeList

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


# one value of each codec class, FixityInfo included: no Record, it is
# read by the codec as the fixity of a descriptor or a fetch.
# SubstancePolicy is absent, since its only fields are a record and a map
# that its own decoder reads
SAMPLES = {
    AssetSpec: lambda rng: rng.choice(gen.random_fixture_spec(rng).assets),
    AuditReport: gen.random_audit_report,
    BibliographyReport: gen.random_bibliography_report,
    BibRecord: gen.random_bib_record,
    ChangeEvent: gen.random_change_event,
    ChangeList: gen.random_change_list,
    CheckResult: gen.random_check_result,
    CompletenessReport: gen.random_completeness_report,
    Discrepancy: gen.random_discrepancy,
    FetchSummary: gen.random_fetch_summary,
    FixityInfo: lambda rng: compute_fixity(rng.randbytes(8)),
    FixtureSpec: gen.random_fixture_spec,
    IngestRecord: gen.random_ingest_record,
    LinkAttributes: lambda rng: gen.random_link(rng).attrs,
    LinkSet: gen.random_link_set,
    ReconciliationReport: gen.random_reconciliation_report,
    ResourceDescriptor: lambda rng: gen.random_descriptor(rng, ResourceRole.ENTRY_PAGE),
    ScholarlyObject: gen.random_scholarly_object,
    SubstanceReport: gen.random_substance_report,
    SubstanceRule: gen.random_substance_rule,
    TypedLink: gen.random_link,
}

# for each JSON primitive, values of every other JSON type; a bool is no int
WRONG = {
    str: [5, 1.5, True, None, [], {}],
    int: ["1", 1.5, True, None, [], {}],
    bool: [1, "true", None, [], {}],
    dict: ["{}", 1, True, None, []],
}
FILL = {str: "x", int: 1, bool: True, dict: {}}


def _slots(cls):
    """(JSON path, type) of each field the codec reads by the class rule;
    an inline field's own fields sit at the path of the record."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if "decode" in f.metadata:
            continue
        if f.metadata.get("inline"):
            yield from _slots(hints[f.name])
            continue
        key = f.metadata.get("key", f.name)
        yield (key if isinstance(key, tuple) else (key,)), hints[f.name]


def _fill(tp):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return None
    if origin is tuple and args[-1] is not Ellipsis:
        return [_fill(arg) for arg in args]
    if origin in (tuple, frozenset):
        return []
    return FILL[tp]


def _wrong(tp):
    """JSON values for a field of type ``tp`` that hold some primitive of
    another JSON type, with any other primitive in them well typed.
    Records, enums and datetimes are left to their own decoders."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        [inner] = [arg for arg in args if arg is not type(None)]
        yield from (value for value in _wrong(inner) if value is not None)
    elif tp in WRONG:
        yield from WRONG[tp]
    elif origin is frozenset or (origin is tuple and args[-1] is Ellipsis):
        items = [[value] for value in _wrong(args[0])]
        if items:
            yield from items
            yield "ab"
    elif origin is tuple:
        for i, arg in enumerate(args):
            for value in _wrong(arg):
                yield [value if j == i else _fill(other) for j, other in enumerate(args)]


def _codec_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _codec_classes(sub)


def test_every_codec_class_has_a_sample():
    assert set(_codec_classes()) | {FixityInfo} == set(SAMPLES) | {SubstancePolicy}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=[cls.__name__ for cls in SAMPLES])
def test_a_primitive_of_another_json_type_raises_type_error(cls):
    # through the codec's plan, which FixityInfo has without being a Record
    encode, decode = _plan(cls)
    document = encode(SAMPLES[cls](random.Random(20261022)))
    cases = 0
    for path, tp in _slots(cls):
        for value in _wrong(tp):
            data = copy.deepcopy(document)
            target = data
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            with pytest.raises(TypeError):
                decode(data)
            cases += 1
    assert cases


@pytest.mark.parametrize(
    "authors", [[{"family": 5}], [{"family": "A", "given": 7}], [{"family": ["A"]}]]
)
def test_author_names_are_strings(authors):
    data = {"title": "T", "source_format": "bibtex", "authors": authors}
    with pytest.raises(TypeError):
        BibRecord.from_json_dict(data)
    assert BibRecord.from_json_dict({**data, "authors": [{"family": "A"}]}).authors == (
        ("A", None),
    )
