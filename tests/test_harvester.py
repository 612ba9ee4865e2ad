"""Tests for feed-driven ingest: planning, live harvest, dump replay, storage."""

import dataclasses
import hashlib
import io
import json
import os
import random
import sys
import threading
import zipfile

import pytest
import requests

import gen
from gen import random_ingest_record
from sgp import harvester
from sgp.auditor import AuditReport, CheckResult
from sgp.bibliography import BibRecord, Discrepancy, ReconciliationReport
from sgp.cli import run
from sgp.crossref import CrossRefClient
from sgp.fixity import FixityInfo
from sgp.fixtures import AssetSpec, FixtureSpec, degrade, landing_spec, plos_spec, serve
from sgp.harvester import (
    BibliographyReport,
    CompletenessReport,
    FetchSummary,
    IngestMode,
    IngestRecord,
    IngestStore,
    IngestTask,
    StoreFailure,
    SubstancePolicy,
    SubstanceReport,
    SubstanceRule,
    UnknownKey,
    _substance,
    ingest,
    ingest_all,
    pack_object_dump,
    plan_from_feed,
)
from sgp.links import LinkSet, parse_link_field
from sgp.navigator import PolitenessPolicy, SignpostClient
from sgp.resources import SEM_ARTICLE, ResourceDescriptor, ResourceRole, ScholarlyObject
from sgp.resourcesync import (
    ChangeDumpIndex,
    ChangeEvent,
    ChangeKind,
    ChangeList,
    pack_change_dump,
    parse_change_list,
    unpack_change_dump,
)
from sgp.rfc3339 import format_rfc3339, parse_rfc3339, utcnow

FAST = PolitenessPolicy(timeout=5, backoff=0.01)
POLICY = SubstancePolicy(
    default=SubstanceRule(min_pdf_count=1, min_pdf_bytes=1000, min_html_count=1)
)


@pytest.fixture(scope="module")
def endpoint():
    with serve(plos_spec()) as ep:
        yield ep


@pytest.fixture(scope="module")
def client():
    return SignpostClient(FAST)


@pytest.fixture(scope="module")
def harvested(endpoint, client, tmp_path_factory):
    """One clean live ingest, shared read-only by the assertions below."""
    store = IngestStore(tmp_path_factory.mktemp("store"))
    feed = parse_change_list(
        client.fetch_resource(endpoint.uri("/changelist.xml")).body
    )
    task = plan_from_feed(feed)[0]
    record = ingest(task, client, store, POLICY)
    return task, record, store


def _event(loc, kind=ChangeKind.CREATED, stamp="2026-01-05T12:00:00Z"):
    return ChangeEvent(loc=loc, kind=kind, datetime=parse_rfc3339(stamp))


def _synthetic_record(key="http://x.example/e"):
    obj = ScholarlyObject(
        entry_page=ResourceDescriptor(uri=key, role=ResourceRole.ENTRY_PAGE)
    )
    return IngestRecord(
        object=obj,
        trigger_loc=key,
        trigger_kind=ChangeKind.CREATED,
        trigger_datetime=parse_rfc3339("2026-01-05T12:00:00Z"),
        mode=IngestMode.HARVEST,
        completeness=CompletenessReport(passed=True),
        bibliography=BibliographyReport(matched=None),
        substance=SubstanceReport(passed=True, configured=False),
    )


def _pdf(length, uri="http://x.example/a.pdf"):
    return FetchSummary(uri=uri, status=200, length=length, media_type="application/pdf")


def _html(length, uri="http://x.example/a.html"):
    return FetchSummary(uri=uri, status=200, length=length, media_type="text/html")


class TestPlanning:
    def test_one_task_per_event_in_feed_order(self):
        events = (
            _event("http://h.example/a"),
            _event("http://h.example/b", ChangeKind.UPDATED, "2026-01-06T00:00:00Z"),
            _event("http://h.example/c", ChangeKind.DELETED, "2026-01-07T00:00:00Z"),
        )
        tasks = plan_from_feed(ChangeList(events=events))
        assert [t.trigger.loc for t in tasks] == [e.loc for e in events]
        assert all(t.mode is IngestMode.HARVEST for t in tasks)
        assert [t.tombstone for t in tasks] == [False, False, True]

    def test_filter_tag_rides_along(self):
        tasks = plan_from_feed(
            ChangeList(events=(_event("http://h.example/a"),)), filter_tag="journals"
        )
        assert tasks[0].filter_tag == "journals"

    def test_a_dump_makes_dump_tasks_carrying_it(self):
        feed = ChangeList(events=(_event("http://h.example/a"), _event("http://h.example/b")))
        dumped = plan_from_feed(feed, dump=b"zip")
        assert [(t.mode, t.dump) for t in dumped] == [(IngestMode.DUMP, b"zip")] * 2
        harvested = plan_from_feed(feed)
        assert [(t.mode, t.dump) for t in harvested] == [(IngestMode.HARVEST, None)] * 2


class TestHarvestIngest:
    def test_clean_object_passes_completeness(self, harvested):
        _, record, _ = harvested
        assert record.completeness.passed
        assert record.completeness.violations == ()
        assert record.completeness.failures == ()

    def test_bibliography_matches_registrar(self, harvested):
        _, record, _ = harvested
        assert record.bibliography.matched is True
        assert record.bibliography.report.discrepancies == ()
        assert record.bibliography.record.doi == "10.1371/journal.pone.0115253"

    def test_substance_thresholds_met(self, harvested):
        _, record, _ = harvested
        assert record.substance.passed
        assert record.substance.configured

    def test_every_publication_resource_fetched(self, harvested):
        _, record, _ = harvested
        by_uri = {f.uri: f for f in record.fetches}
        for uri in record.object.publication_uris:
            assert by_uri[uri].ok
        pdf = next(f for f in record.fetches if f.uri.endswith(".pdf"))
        assert pdf.media_type == "application/pdf"
        assert pdf.length == 2048

    def test_payloads_stored_content_addressed(self, harvested):
        _, record, store = harvested
        for fetch in record.fetches:
            if fetch.sha256 is not None:
                assert len(store.load_payload(fetch.sha256)) == fetch.length

    def test_record_persisted_under_identifying_uri(self, harvested, endpoint):
        _, record, store = harvested
        assert record.key == endpoint.doi_uri
        assert store.versions(record.key) == [1]
        loaded = store.load_record(record.key)
        assert loaded.to_json_dict() == record.to_json_dict()

    def test_created_at_is_utc(self, harvested):
        _, record, _ = harvested
        assert record.created_at.tzinfo is not None
        assert record.created_at.utcoffset().total_seconds() == 0

    def test_reingest_appends_versions_with_same_verdicts(
        self, endpoint, client, tmp_path
    ):
        store = IngestStore(tmp_path)
        feed = parse_change_list(
            client.fetch_resource(endpoint.uri("/changelist.xml")).body
        )
        task = plan_from_feed(feed)[0]
        first = ingest(task, client, store, POLICY)
        second = ingest(task, client, store, POLICY)
        assert store.versions(first.key) == [1, 2]
        assert store.load_record(first.key).created_at == second.created_at
        assert (
            first.completeness.passed,
            first.bibliography.matched,
            first.substance.passed,
        ) == (
            second.completeness.passed,
            second.bibliography.matched,
            second.substance.passed,
        )
        kinds = [entry[3] for entry in store.journal_entries()]
        assert kinds == ["harvest", "harvest"]

    def test_registrar_feed_trigger_reaches_same_object(
        self, endpoint, client, tmp_path
    ):
        feed = parse_change_list(
            client.fetch_resource(endpoint.uri("/registrar/changelist.xml")).body
        )
        task = plan_from_feed(feed)[0]
        assert task.trigger.loc == endpoint.doi_uri
        record = ingest(task, client, IngestStore(tmp_path), POLICY)
        assert record.completeness.passed
        assert record.object.entry_page.uri == endpoint.entry_uri

    def test_member_fetch_failure_fails_completeness(self, tmp_path):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {
                **spec.to_json_dict(),
                "status_scripts": [["/plosone/article.xml", [404, 404]]],
            }
        )
        with serve(spec) as ep:
            client = SignpostClient(FAST)
            task = IngestTask(trigger=_event(ep.entry_uri))
            record = ingest(task, client, IngestStore(tmp_path), POLICY)
        assert not record.completeness.passed
        assert any(uri.endswith("article.xml") for uri, _ in record.completeness.failures)
        xml = next(f for f in record.fetches if f.uri.endswith("article.xml"))
        assert xml.status == 404
        # the other questions are answered independently of the bad member
        assert record.bibliography.matched is True
        assert record.substance.passed

    def test_unreachable_start_still_persists_a_record(self, endpoint, client, tmp_path):
        store = IngestStore(tmp_path)
        task = IngestTask(trigger=_event(endpoint.uri("/plain")))
        record = ingest(task, client, store, POLICY)
        assert not record.completeness.passed
        assert record.completeness.violations[0].startswith("boundary discovery failed")
        assert record.bibliography.matched is None
        assert store.versions(record.key) == [1]

    def test_trigger_fixity_mismatch_is_a_failure(self, endpoint, client, tmp_path):
        trigger = ChangeEvent(
            loc=endpoint.entry_uri,
            kind=ChangeKind.CREATED,
            datetime=utcnow(),
            fixity=FixityInfo(algorithm="sha-256", digest="ab" * 32),
        )
        record = ingest(IngestTask(trigger=trigger), client, IngestStore(tmp_path), POLICY)
        assert not record.completeness.passed
        assert any("fixity" in reason for _, reason in record.completeness.failures)

    def test_unsupported_trigger_fixity_is_a_failure(self, endpoint, client, tmp_path):
        trigger = ChangeEvent(
            loc=endpoint.entry_uri,
            kind=ChangeKind.CREATED,
            datetime=utcnow(),
            fixity=FixityInfo(algorithm="sha-512", digest="ab" * 64),
        )
        store = IngestStore(tmp_path)
        record = ingest(IngestTask(trigger=trigger), client, store, POLICY)
        assert not record.completeness.passed
        failure = (endpoint.entry_uri, "fixity: unsupported algorithm sha-512")
        assert failure in record.completeness.failures
        assert store.versions(record.key) == [1]

    def test_tombstone_task_is_recorded(self, client, tmp_path):
        task = IngestTask(trigger=_event("http://h.example/x", ChangeKind.DELETED))
        store = IngestStore(tmp_path)
        record = ingest(task, client, store, POLICY)
        assert record.tombstone and record.trigger_kind is ChangeKind.DELETED
        assert not record.fetches
        assert store.load_record("http://h.example/x") == record
        assert [(key, kind) for _, key, _, kind in store.journal_entries()] == [
            ("http://h.example/x", "tombstone")
        ]


class TestEachMemberDownloadedOnce:
    def test_items_are_got_during_discovery_only(self, tmp_path):
        with serve(plos_spec(), landing_spec()) as ep:
            client = SignpostClient(FAST)
            feed = parse_change_list(client.fetch_resource(ep.publisher_feed_uri).body)
            ep.clear_log()
            store = IngestStore(tmp_path)
            records = [ingest(task, client, store, POLICY) for task in plan_from_feed(feed)]
            log = ep.log()
        assert all(r.completeness.passed for r in records)
        heads = [e.path for e in log if e.method == "HEAD"]
        gets = [e.path for e in log if e.method == "GET"]
        # only the landing page is HEADed; the feed types the PLOS entry
        # as an article, so its one GET serves discovery and the fetch
        assert heads == ["/journal/vol1/demo"]
        assert "/plosone/article" in gets
        assert not set(heads) & set(gets)
        assert len(gets) == len(set(gets)) == 10
        assert len(log) == 11

    def test_failed_discovery_get_is_fetched_again(self, tmp_path):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {**spec.to_json_dict(), "status_scripts": [["/plosone/article.xml", [404]]]}
        )
        xml = next(a for a in spec.assets if a.path == "/plosone/article.xml")
        with serve(spec) as ep:
            store = IngestStore(tmp_path)
            task = IngestTask(trigger=_event(ep.entry_uri))
            record = ingest(task, SignpostClient(FAST), store, POLICY)
            log = ep.log()
        xml_uri = ep.uri(xml.path)
        assert record.completeness.failures == ((xml_uri, f"HTTP 404 for {xml_uri}"),)
        assert not record.completeness.passed
        (fetch,) = [f for f in record.fetches if f.uri == xml_uri]
        assert fetch.status == 200
        assert fetch.sha256 == hashlib.sha256(xml.body()).hexdigest()
        assert store.load_payload(fetch.sha256) == xml.body()
        assert [e.method for e in log if e.path == xml.path] == ["GET", "GET"]
        assert len(log) == 8


def _timeless(record):
    """A record's JSON without its clock readings."""
    data = record.to_json_dict()
    del data["created_at"]
    for fetch in data["fetches"]:
        fetch.pop("fetched_at", None)
    return data


_AS_ARTICLE = parse_link_field(f'<{SEM_ARTICLE}>; rel="type"')


class TestContentTypedStart:
    """A trigger whose event types it as content is fetched by one GET,
    which serves both discovery and the fetch stage; without such a type
    link the start is HEADed. Either way the record is the same."""

    @staticmethod
    def _both(specs, events_of, tmp_path):
        """On one server, ((records, log), (records, log)) of ingesting
        ``events_of(ep, client)`` as given and with their links dropped;
        a log lists (method, path)."""
        runs = []
        with serve(*specs) as ep:
            client = SignpostClient(FAST)
            typed = events_of(ep, client)
            bare = [dataclasses.replace(e, links=LinkSet()) for e in typed]
            for name, events in (("typed", typed), ("bare", bare)):
                ep.clear_log()
                store = IngestStore(tmp_path / name)
                records = [
                    ingest(IngestTask(trigger=e), client, store, POLICY) for e in events
                ]
                runs.append((records, [(e.method, e.path) for e in ep.log()]))
        return runs

    def test_feed_records_equal_those_of_the_head_path(self, tmp_path):
        def feed_events(ep, client):
            return parse_change_list(client.fetch_resource(ep.publisher_feed_uri).body).events

        (typed, typed_log), (bare, bare_log) = self._both(
            (plos_spec(), landing_spec()), feed_events, tmp_path
        )
        assert all(r.completeness.passed for r in typed)
        assert [_timeless(r) for r in typed] == [_timeless(r) for r in bare]
        assert ("HEAD", "/plosone/article") in bare_log
        assert ("HEAD", "/plosone/article") not in typed_log
        assert typed_log.count(("GET", "/plosone/article")) == 1
        assert typed_log.count(("HEAD", "/journal/vol1/demo")) == 1
        assert len(typed_log) == len(set(typed_log)) == len(bare_log) - 1

    def test_a_landing_page_typed_as_an_article_is_got_once(self, tmp_path):
        def events(ep, client):
            return [dataclasses.replace(_event(ep.entry_uri), links=_AS_ARTICLE)]

        (typed, typed_log), (bare, bare_log) = self._both(
            (landing_spec(),), events, tmp_path
        )
        # its live links say humanStartPage: no member, so no fetch of it
        assert _timeless(typed[0]) == _timeless(bare[0])
        assert typed[0].completeness.passed
        entry = landing_spec().entry_path
        assert [m for m, path in typed_log if path == entry] == ["GET"]
        assert [m for m, path in bare_log if path == entry] == ["HEAD"]
        assert len(typed_log) == len(set(typed_log)) == len(bare_log)

    def test_an_entry_that_answers_404_is_requested_once(self, tmp_path):
        spec = FixtureSpec.from_json_dict(
            {**plos_spec().to_json_dict(), "status_scripts": [["/plosone/article", [404, 404]]]}
        )

        def events(ep, client):
            return [dataclasses.replace(_event(ep.entry_uri), links=_AS_ARTICLE)]

        (typed, typed_log), (bare, bare_log) = self._both((spec,), events, tmp_path)
        assert typed_log == [("GET", "/plosone/article")]
        assert bare_log == [("HEAD", "/plosone/article")]
        assert _timeless(typed[0]) == _timeless(bare[0])
        (failure,) = typed[0].completeness.failures
        assert failure[1].startswith("HTTP 404 for ")

    def test_a_redirecting_start_reaches_the_same_record(self, tmp_path):
        def events(ep, client):
            return [dataclasses.replace(_event(ep.doi_uri), links=_AS_ARTICLE)]

        (typed, typed_log), (bare, bare_log) = self._both(
            (plos_spec(),), events, tmp_path
        )
        assert typed[0].completeness.passed
        assert _timeless(typed[0]) == _timeless(bare[0])
        # every hop of the DOI's walk is requested once, by GET
        walk = [path for m, path in bare_log if m == "HEAD"]
        assert walk[-1] == "/plosone/article"
        assert [path for m, path in typed_log if m == "HEAD"] == []
        assert [path for m, path in typed_log[: len(walk)]] == walk
        assert len(typed_log) == len(set(typed_log)) == len(bare_log) - 1


class TestRegistrarFallback:
    def test_no_metadata_link_falls_back_to_works_api(self, tmp_path):
        spec = degrade(plos_spec(), "no-entry-describedby")
        with serve(spec) as ep:
            client = SignpostClient(FAST)
            registrar = CrossRefClient(client, api_base=ep.base_uri)
            record = ingest(
                IngestTask(trigger=_event(ep.entry_uri)),
                client,
                IngestStore(tmp_path),
                POLICY,
                registrar,
                resource_policy=ep.policy(),
            )
        assert record.bibliography.matched is None
        assert record.bibliography.record.doi == "10.1371/journal.pone.0115253"
        assert any("publisher metadata" in n for n in record.bibliography.notes)

    def test_works_api_connection_failure_is_a_note(self, tmp_path):
        class NoWorksApi(requests.Session):
            def request(self, method, url, **kwargs):
                if "/works/" in url:
                    raise requests.ConnectionError("connection refused")
                return super().request(method, url, **kwargs)

        spec = degrade(plos_spec(), "no-entry-describedby")
        with serve(spec) as ep:
            client = SignpostClient(FAST, session=NoWorksApi())
            store = IngestStore(tmp_path)
            record = ingest(
                IngestTask(trigger=_event(ep.entry_uri)),
                client,
                store,
                POLICY,
                CrossRefClient(client, api_base=ep.base_uri),
                resource_policy=ep.policy(),
            )
        assert record.completeness.passed
        assert record.bibliography.record is None
        (note,) = [n for n in record.bibliography.notes if n.startswith("registrar lookup")]
        assert note.startswith("registrar lookup failed for 10.1371/journal.pone.0115253: ")
        assert "connection refused" in note
        assert store.versions(record.key) == [1]

    def test_without_fallback_the_notes_say_so(self, tmp_path):
        spec = degrade(plos_spec(), "no-entry-describedby")
        with serve(spec) as ep:
            client = SignpostClient(FAST)
            record = ingest(
                IngestTask(trigger=_event(ep.entry_uri)),
                client,
                IngestStore(tmp_path),
                POLICY,
            )
        assert record.bibliography.matched is None
        assert record.bibliography.record is None
        assert any("no registrar metadata link" in n for n in record.bibliography.notes)


def _describedby_on(count, *kept):
    """``count`` distinct specs in the order of their feed (by deposit
    time), the describedby links of all but those at ``kept`` dropped."""
    specs = sorted(gen.distinct_specs(count), key=lambda spec: spec.deposited)
    return [
        spec if index in kept else degrade(spec, "no-entry-describedby")
        for index, spec in enumerate(specs)
    ]


class TestRegistrarWindow:
    """``ingest_all`` looks up a window's registrar DOIs with one
    works-list request: those of the identifying URIs, and those of
    describedby links to the registrar's own works documents, which are
    then not fetched. Its records equal those of one ``ingest`` a task,
    each with its own ``fetch_work``, clock readings aside."""

    @staticmethod
    def _both(specs, tmp_path, works_api=None):
        """(records of ``ingest_all``, records of ``ingest`` per task, and
        the works-API paths ``ingest_all`` requested of ``works_api``,
        by default the server of ``specs`` itself)."""
        with serve(*specs) as ep:
            api = works_api or ep
            client = SignpostClient(FAST)
            feed = parse_change_list(client.fetch_resource(ep.publisher_feed_uri).body)
            tasks = plan_from_feed(feed)
            registrar = CrossRefClient(client, api_base=api.base_uri)
            api.clear_log()
            batched = ingest_all(
                tasks,
                client,
                IngestStore(tmp_path / "batched"),
                POLICY,
                registrar,
                resource_policy=ep.policy(),
            )
            works = [e.path for e in api.log() if e.path.startswith("/works")]
            single = [
                ingest(
                    task,
                    client,
                    IngestStore(tmp_path / "single"),
                    POLICY,
                    registrar,
                    resource_policy=ep.policy(),
                )
                for task in tasks
            ]
        return batched, single, works

    def test_one_list_request_for_a_feed(self, tmp_path):
        specs = _describedby_on(6, 1, 4)
        batched, single, works = self._both(specs, tmp_path)
        # linked or not, every DOI is named in the list, and nothing else is asked
        assert works == [
            "/works?filter=" + ",".join(f"doi:{s.doi}" for s in specs) + "&rows=6"
        ]
        assert [r.bibliography.record.doi for r in batched] == [s.doi for s in specs]
        assert not any("/works/" in f.uri for r in batched for f in r.fetches)
        assert [_timeless(r) for r in batched] == [_timeless(r) for r in single]

    def test_a_linked_record_names_its_link_as_source(self, tmp_path):
        specs = _describedby_on(3, 0, 2)
        batched, single, works = self._both(specs, tmp_path)
        assert works[0].startswith("/works?filter=")
        # the list answers the batched records, one fetch_work each single one
        links = [batched[i].object.bibliographic_resources[0].uri for i in (0, 2)]
        assert [link.split("/works/")[1] for link in links] == [specs[0].doi, specs[2].doi]
        for records in (batched, single):
            sources = [r.bibliography.record.source_uri for r in records]
            assert sources == [links[0], None, links[1]]

    def test_a_link_on_another_base_is_fetched_and_stored(self, tmp_path):
        specs = _describedby_on(3, 1)
        with serve(*specs) as api:
            batched, single, works = self._both(specs, tmp_path, works_api=api)
        # the unlinked DOIs are listed at the registrar's base
        assert works == [f"/works?filter=doi:{specs[0].doi},doi:{specs[2].doi}&rows=2"]
        linked = batched[1]
        target = linked.object.bibliographic_resources[0].uri
        assert not target.startswith(api.base_uri)
        (fetch,) = [f for f in linked.fetches if f.uri == target]
        assert fetch.ok and fetch.media_type == "application/json"
        store = IngestStore(tmp_path / "batched")
        assert json.loads(store.load_payload(fetch.sha256))["message"]["DOI"] == specs[1].doi
        assert linked.bibliography.record.source_uri == target
        assert [_timeless(r) for r in batched] == [_timeless(r) for r in single]

    def test_a_linked_doi_the_list_omits_is_asked_at_its_link(self, tmp_path, monkeypatch):
        specs = _describedby_on(3, 0, 1, 2)
        omitted = specs[1].doi
        specs[1] = dataclasses.replace(
            specs[1], status_scripts=((f"/works/{omitted}", (404, 404)),)
        )
        listed = CrossRefClient.fetch_works

        def omitting(self, dois):
            return {doi: work for doi, work in listed(self, dois).items() if doi != omitted}

        monkeypatch.setattr(CrossRefClient, "fetch_works", omitting)
        batched, single, works = self._both(specs, tmp_path)
        assert works == [
            "/works?filter=" + ",".join(f"doi:{s.doi}" for s in specs) + "&rows=3",
            f"/works/{omitted}",
        ]
        target = batched[1].object.bibliographic_resources[0].uri
        (note,) = [n for n in batched[1].bibliography.notes if n.startswith("registrar")]
        assert note == f"registrar lookup failed for {omitted}: 404 for {target}"
        kept = "no registrar baseline; publisher record kept"
        assert batched[1].bibliography.notes[1:] == (kept,)
        assert [_timeless(r) for r in batched] == [_timeless(r) for r in single]

    def test_a_harvest_asks_the_works_api_by_list_only(self, tmp_path, capsys):
        specs = _describedby_on(4, 0, 3)
        with serve(*specs) as ep:
            rc = run(
                [
                    "harvest",
                    "--feed",
                    ep.publisher_feed_uri,
                    "--store",
                    str(tmp_path / "store"),
                    "--api-base",
                    ep.base_uri,
                ]
            )
            works = [e.path for e in ep.log() if e.path.startswith("/works")]
        records = json.loads(capsys.readouterr().out)["records"]
        assert rc == 0
        assert len(works) == 1 and works[0].startswith("/works?filter=")
        assert [r["bibliography"]["record"]["doi"] for r in records] == [s.doi for s in specs]

    def test_a_list_answering_500_gives_the_per_doi_notes(self, tmp_path):
        specs = _describedby_on(3)
        specs[0] = dataclasses.replace(specs[0], status_scripts=(("/works", (500,)),))
        batched, single, works = self._both(specs, tmp_path)
        assert works[0].startswith("/works?filter=")
        assert works[1:] == [f"/works/{spec.doi}" for spec in specs]
        assert [_timeless(r) for r in batched] == [_timeless(r) for r in single]
        assert all(r.bibliography.record is not None for r in batched)

    def test_a_doi_the_list_omits_is_looked_up_alone(self, tmp_path):
        specs = _describedby_on(3)
        # a works API that knows the first two works only
        with serve(*specs[:2]) as api:
            batched, single, works = self._both(specs, tmp_path, works_api=api)
        assert len(works) == 2
        assert works[0].startswith("/works?filter=")
        assert works[1] == f"/works/{specs[2].doi}"
        assert [_timeless(r) for r in batched] == [_timeless(r) for r in single]
        (note,) = [n for n in batched[2].bibliography.notes if n.startswith("registrar")]
        assert note.startswith(f"registrar lookup failed for {specs[2].doi}: 404 for ")
        assert batched[0].bibliography.record.doi == specs[0].doi

    def test_a_doi_holding_a_comma_is_looked_up_alone(self, tmp_path):
        specs = _describedby_on(3)
        specs[1] = dataclasses.replace(specs[1], doi="10.5555/a,b")
        batched, single, works = self._both(specs, tmp_path)
        assert works == [
            f"/works?filter=doi:{specs[0].doi},doi:{specs[2].doi}&rows=2",
            "/works/10.5555/a,b",
        ]
        assert batched[1].bibliography.record.doi == "10.5555/a,b"
        assert [_timeless(r) for r in batched] == [_timeless(r) for r in single]

    def test_windows_hold_at_most_the_window_constant(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harvester, "REGISTRAR_WINDOW", 2)
        specs = _describedby_on(5)
        with serve(*specs) as ep:
            client = SignpostClient(FAST)
            feed = parse_change_list(client.fetch_resource(ep.publisher_feed_uri).body)
            tombstone = _event(ep.uri("/gone"), ChangeKind.DELETED)
            events = [*feed.events[:3], tombstone, *feed.events[3:]]
            store = IngestStore(tmp_path)
            ep.clear_log()
            records = ingest_all(
                plan_from_feed(ChangeList(events=tuple(events))),
                client,
                store,
                POLICY,
                CrossRefClient(client, api_base=ep.base_uri),
                resource_policy=ep.policy(),
            )
            works = [e.path for e in ep.log() if e.path.startswith("/works")]
        # windows: two DOIs, one DOI and the tombstone, two DOIs
        assert [path.split("?")[0] for path in works] == ["/works", f"/works/{specs[2].doi}", "/works"]
        assert [r.trigger_loc for r in records] == [e.loc for e in events]
        assert [key for _, key, _, _ in store.journal_entries()] == [r.key for r in records]
        assert records[3].tombstone
        assert all(r.bibliography.record is not None for r in records if not r.tombstone)


@pytest.fixture(scope="module")
def bodies(harvested, client):
    _, record, _ = harvested
    out = {}
    for uri in record.object.publication_uris:
        out[uri] = client.fetch_resource(uri).body
    for bib in record.object.bibliographic_resources:
        out[bib.uri] = client.fetch_resource(bib.uri).body
    return out


class TestDumpIngest:
    def test_dump_replay_agrees_with_live_harvest(self, harvested, bodies, tmp_path):
        task, live, _ = harvested
        trigger, dump = pack_object_dump(
            live.object, bodies, task.trigger.datetime
        )
        replayed = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=dump),
            None,
            IngestStore(tmp_path),
            POLICY,
        )
        assert replayed.mode is IngestMode.DUMP
        assert set(replayed.object.publication_uris) == set(live.object.publication_uris)
        assert replayed.completeness.passed == live.completeness.passed
        assert replayed.bibliography.matched == live.bibliography.matched
        assert replayed.substance.passed == live.substance.passed
        assert [e[3] for e in IngestStore(tmp_path).journal_entries()] == ["dump"]

    def test_landing_pattern_replay_agrees_too(self, tmp_path):
        with serve(landing_spec()) as ep:
            client = SignpostClient(FAST)
            feed = parse_change_list(
                client.fetch_resource(ep.uri("/changelist.xml")).body
            )
            task = plan_from_feed(feed)[0]
            live = ingest(task, client, IngestStore(tmp_path / "live"), POLICY)
            payload_uris = set(live.object.publication_uris) | {
                b.uri for b in live.object.bibliographic_resources
            }
            bodies = {uri: client.fetch_resource(uri).body for uri in payload_uris}
            trigger, dump = pack_object_dump(live.object, bodies, task.trigger.datetime)
            replayed = ingest(
                IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=dump),
                None,
                IngestStore(tmp_path / "dump"),
                POLICY,
            )
        assert live.completeness.passed and replayed.completeness.passed
        assert set(replayed.object.publication_uris) == set(live.object.publication_uris)
        assert replayed.bibliography.matched == live.bibliography.matched
        assert replayed.substance.passed == live.substance.passed

    def test_single_corrupt_byte_is_detected(self, harvested, bodies, tmp_path):
        task, live, _ = harvested
        trigger, dump = pack_object_dump(live.object, bodies, task.trigger.datetime)
        manifest, payloads = unpack_change_dump(dump)
        pdf_path = next(
            path for path, ev in manifest.entries if ev.loc.endswith(".pdf")
        )
        source = zipfile.ZipFile(io.BytesIO(dump))
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as out:
            for info in source.infolist():
                data = source.read(info.filename)
                if info.filename == pdf_path:
                    data = data[:-1] + bytes([data[-1] ^ 0x01])
                out.writestr(info.filename, data)
        corrupted = buffer.getvalue()
        store = IngestStore(tmp_path)
        record = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=corrupted),
            None,
            store,
            POLICY,
        )
        assert not record.completeness.passed
        assert any(
            uri.endswith(".pdf") and reason == "fixity: digest-mismatch"
            for uri, reason in record.completeness.failures
        )
        # the bytes that failed fixity are still stored, under their own digest
        received = zipfile.ZipFile(io.BytesIO(corrupted)).read(pdf_path)
        (pdf,) = [f for f in record.fetches if f.uri.endswith(".pdf")]
        assert pdf.sha256 == hashlib.sha256(received).hexdigest()
        assert store.load_payload(pdf.sha256) == received

    def test_resource_missing_from_dump_is_a_failure(self, harvested, bodies, tmp_path):
        task, live, _ = harvested
        trigger, dump = pack_object_dump(live.object, bodies, task.trigger.datetime)
        manifest, payloads = unpack_change_dump(dump)
        kept = [
            (event, payloads[path])
            for path, event in manifest.entries
            if not event.loc.endswith(".xml")
        ]
        record = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=pack_change_dump(kept)),
            None,
            IngestStore(tmp_path),
            POLICY,
        )
        assert not record.completeness.passed
        assert any(
            uri.endswith(".xml") and reason == "missing from dump"
            for uri, reason in record.completeness.failures
        )

    def test_shared_index_replays_like_bytes(self, harvested, bodies, tmp_path):
        task, live, _ = harvested
        trigger, dump = pack_object_dump(live.object, bodies, task.trigger.datetime)
        from_bytes = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=dump),
            None,
            IngestStore(tmp_path / "bytes"),
            POLICY,
        )
        with ChangeDumpIndex(io.BytesIO(dump)) as index:
            tasks = plan_from_feed(ChangeList(events=(trigger, trigger)), dump=index)
            from_index = [
                ingest(t, None, IngestStore(tmp_path / "index"), POLICY) for t in tasks
            ]
        for record in from_index:
            assert record.completeness == from_bytes.completeness
            assert record.bibliography.matched == from_bytes.bibliography.matched
            assert [(f.uri, f.sha256, f.length) for f in record.fetches] == [
                (f.uri, f.sha256, f.length) for f in from_bytes.fetches
            ]

    def test_unreadable_member_is_a_failure(self, harvested, bodies, tmp_path):
        task, live, _ = harvested
        trigger, dump = pack_object_dump(live.object, bodies, task.trigger.datetime)
        source = zipfile.ZipFile(io.BytesIO(dump))
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as out:
            for info in source.infolist():
                out.writestr(info.filename, source.read(info.filename))
        manifest, _ = unpack_change_dump(dump)
        pdf_path = next(path for path, ev in manifest.entries if ev.loc.endswith(".pdf"))
        info = zipfile.ZipFile(buffer).getinfo(pdf_path)
        # flip the first byte of the stored member data; its CRC no longer holds
        offset = info.header_offset + 30 + len(info.filename) + len(info.extra)
        damaged = bytearray(buffer.getvalue())
        damaged[offset] ^= 0x01
        record = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=bytes(damaged)),
            None,
            IngestStore(tmp_path),
            POLICY,
        )
        assert not record.completeness.passed
        assert [uri for uri, _ in record.completeness.failures] == [
            uri for uri in live.object.publication_uris if uri.endswith(".pdf")
        ]
        assert sum(f.status is None for f in record.fetches) == 1

    def test_verify_live_confirms_an_honest_dump(
        self, harvested, bodies, client, tmp_path
    ):
        task, live, _ = harvested
        trigger, dump = pack_object_dump(live.object, bodies, task.trigger.datetime)
        record = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=dump),
            client,
            IngestStore(tmp_path),
            POLICY,
            verify_live=True,
        )
        assert record.completeness.passed

    def test_verify_live_catches_an_undersold_boundary(
        self, harvested, bodies, client, tmp_path
    ):
        task, live, _ = harvested
        trimmed = dataclasses.replace(
            live.object, publication_resources=live.object.publication_resources[:-1]
        )
        subset = {
            uri: bodies[uri]
            for uri in set(bodies) - {live.object.publication_resources[-1].uri}
        }
        trigger, dump = pack_object_dump(trimmed, subset, task.trigger.datetime)
        honest = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=dump),
            None,
            IngestStore(tmp_path / "a"),
            POLICY,
        )
        assert honest.completeness.passed
        checked = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=dump),
            client,
            IngestStore(tmp_path / "b"),
            POLICY,
            verify_live=True,
        )
        assert not checked.completeness.passed
        assert any(
            "live boundary differs" in reason
            for _, reason in checked.completeness.failures
        )

    def test_dump_task_without_bytes_is_rejected(self, tmp_path):
        task = IngestTask(trigger=_event("http://h.example/a"), mode=IngestMode.DUMP)
        with pytest.raises(ValueError):
            ingest(task, None, IngestStore(tmp_path), POLICY)

    def test_pack_refuses_missing_publication_bodies(self, harvested, bodies):
        _, live, _ = harvested
        partial = dict(bodies)
        del partial[live.object.publication_resources[0].uri]
        with pytest.raises(ValueError):
            pack_object_dump(live.object, partial, utcnow())


    def test_bib_missing_from_dump_is_reported_as_a_live_404_would_be(
        self, harvested, bodies, tmp_path
    ):
        task, live, _ = harvested
        bib_uri = next(
            b.uri for b in live.object.bibliographic_resources if b.uri.endswith(".bib")
        )
        kept = {uri: body for uri, body in bodies.items() if uri != bib_uri}
        trigger, dump = pack_object_dump(live.object, kept, task.trigger.datetime)
        record = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=dump),
            None,
            IngestStore(tmp_path),
            POLICY,
        )
        assert record.completeness.passed
        assert record.completeness.failures == ((bib_uri, "missing from dump"),)
        assert record.bibliography.matched is True
        assert f"publisher metadata fetch failed: {bib_uri}" in record.bibliography.notes

    def test_works_missing_from_dump_is_reported_as_a_live_404_would_be(
        self, harvested, bodies, tmp_path
    ):
        task, live, _ = harvested
        works_uri = next(uri for uri in bodies if "/works/" in uri)
        kept = {uri: body for uri, body in bodies.items() if uri != works_uri}
        trigger, dump = pack_object_dump(live.object, kept, task.trigger.datetime)
        record = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=dump),
            None,
            IngestStore(tmp_path),
            POLICY,
        )
        assert record.completeness.passed
        assert record.completeness.failures == ((works_uri, "missing from dump"),)
        assert record.bibliography.matched is None
        assert f"registrar metadata fetch failed: {works_uri}" in record.bibliography.notes


def _comparable(record):
    """A record's JSON without what legitimately differs between a live
    harvest and a replay: the mode, the clock, and the per-member links,
    since a dump carries only the event links."""
    data = record.to_json_dict()
    del data["mode"], data["created_at"]
    for fetch in data["fetches"]:
        fetch.pop("fetched_at", None)
    obj = data["object"]
    members = [obj["entry_page"], *obj["publication_resources"], *obj["bibliographic_resources"]]
    for member in members:
        member.pop("links", None)
    return data


class TestLiveDumpParity:
    @pytest.mark.parametrize("pattern", [plos_spec, landing_spec])
    @pytest.mark.parametrize("ablation", [None, "no-entry-describedby"])
    def test_replay_of_a_harvest_gives_the_same_record(self, pattern, ablation, tmp_path):
        spec = pattern() if ablation is None else degrade(pattern(), ablation)
        with serve(spec) as ep:
            store = IngestStore(tmp_path / "live")
            live = ingest(
                IngestTask(trigger=_event(ep.entry_uri)),
                SignpostClient(FAST),
                store,
                POLICY,
                resource_policy=ep.policy(),
            )
            policy = ep.policy()
        bodies = {f.uri: store.load_payload(f.sha256) for f in live.fetches if f.sha256}
        trigger, dump = pack_object_dump(live.object, bodies, live.trigger_datetime)
        replayed = ingest(
            IngestTask(trigger=trigger, mode=IngestMode.DUMP, dump=dump),
            None,
            IngestStore(tmp_path / "dump"),
            POLICY,
            resource_policy=policy,
        )
        assert live.completeness.passed
        assert _comparable(replayed) == _comparable(live)


class TestTombstone:
    def test_marks_record_and_keeps_payloads(self, tmp_path):
        store = IngestStore(tmp_path)
        digest = store.store_payload(b"kept payload")
        task = IngestTask(trigger=_event("http://h.example/gone", ChangeKind.DELETED))
        (record,) = ingest_all([task], None, store)
        assert record.tombstone
        assert record.completeness.passed
        assert store.load_payload(digest) == b"kept payload"
        assert store.load_record(record.key).tombstone
        assert [e[3] for e in store.journal_entries()] == ["tombstone"]


class TestSubstance:
    def test_unconfigured_policy_passes_with_a_note(self):
        report = _substance((), None, None)
        assert report.passed and not report.configured
        assert "no substance thresholds" in report.notes[0]

    def test_zero_thresholds_pass_vacuously(self):
        report = _substance((), None, SubstancePolicy(default=SubstanceRule()))
        assert report.passed and report.configured

    def test_missing_pdf_fails_the_count(self):
        policy = SubstancePolicy(default=SubstanceRule(min_pdf_count=1))
        assert not _substance((_html(500),), None, policy).passed
        assert _substance((_pdf(500),), None, policy).passed

    def test_byte_floor_filters_small_files(self):
        policy = SubstancePolicy(
            default=SubstanceRule(min_pdf_count=1, min_pdf_bytes=100_000)
        )
        assert _substance((_pdf(1_794_628),), None, policy).passed
        assert not _substance((_pdf(99_999),), None, policy).passed

    def test_floor_above_every_file_fails(self):
        policy = SubstancePolicy(
            default=SubstanceRule(min_pdf_count=1, min_pdf_bytes=2_000_000)
        )
        assert not _substance((_pdf(1_794_628),), None, policy).passed

    def test_failed_fetches_do_not_count(self):
        policy = SubstancePolicy(default=SubstanceRule(min_pdf_count=1))
        broken = FetchSummary(uri="http://x.example/a.pdf", status=404)
        assert not _substance((broken,), None, policy).passed

    def test_tagged_rule_beats_default(self):
        policy = SubstancePolicy(
            rules=(("journals", SubstanceRule(min_pdf_count=2)),),
            default=SubstanceRule(min_pdf_count=0),
        )
        assert not _substance((_pdf(10),), "journals", policy).passed
        assert _substance((_pdf(10),), None, policy).passed

    def test_unknown_tag_without_default_is_unconfigured(self):
        policy = SubstancePolicy(rules=(("journals", SubstanceRule(min_pdf_count=1)),))
        report = _substance((), "data", policy)
        assert report.passed and not report.configured

    def test_negative_threshold_is_rejected(self):
        with pytest.raises(ValueError):
            SubstanceRule(min_pdf_count=-1)

    def test_stricter_policy_reverses_a_stored_verdict(self, harvested):
        _, record, _ = harvested
        strict = SubstancePolicy(
            default=SubstanceRule(min_pdf_count=1, min_pdf_bytes=4096)
        )
        assert record.substance.passed
        assert not _substance(record.fetches, record.filter_tag, strict).passed

    def test_policy_round_trips_through_json(self):
        policy = SubstancePolicy(
            rules=(("journals", SubstanceRule(min_pdf_count=2, min_html_bytes=10)),),
            default=SubstanceRule(min_pdf_count=1),
        )
        assert SubstancePolicy.from_json_dict(policy.to_json_dict()) == policy


class TestStore:
    def test_payloads_deduplicate_by_digest(self, tmp_path):
        store = IngestStore(tmp_path)
        first = store.store_payload(b"same bytes")
        path = store.payload_path(first)
        os.utime(path, ns=(10**9, 10**9))
        inode = path.stat().st_ino
        second = store.store_payload(b"same bytes")
        assert first == second
        assert store.load_payload(first) == b"same bytes"
        assert [p for p in (tmp_path / "payloads").rglob("*") if p.is_file()] == [path]
        assert path.stat().st_ino == inode
        assert path.stat().st_mtime_ns == 10**9

    def test_first_payload_creates_its_shard(self, tmp_path):
        store = IngestStore(tmp_path)
        digest = hashlib.sha256(b"fresh").hexdigest()
        shard = tmp_path / "payloads" / digest[:2]
        assert not shard.exists()
        assert store.store_payload(b"fresh") == digest
        assert (shard / digest).read_bytes() == b"fresh"

    def test_unknown_payload_and_record_raise(self, tmp_path):
        store = IngestStore(tmp_path)
        with pytest.raises(UnknownKey):
            store.load_payload("ab" * 32)
        with pytest.raises(UnknownKey):
            store.load_record("http://x.example/none")

    def test_unknown_version_raises(self, tmp_path):
        store = IngestStore(tmp_path)
        record = _synthetic_record()
        store.save_record(record)
        with pytest.raises(UnknownKey):
            store.load_record(record.key, version=2)

    def test_latest_version_wins_and_history_stays(self, tmp_path):
        store = IngestStore(tmp_path)
        first = _synthetic_record()
        second = dataclasses.replace(first, filter_tag="journals")
        store.save_record(first)
        store.save_record(second)
        assert store.versions(first.key) == [1, 2]
        assert store.load_record(first.key).filter_tag == "journals"
        assert store.load_record(first.key, version=1).filter_tag is None

    def test_record_files_are_one_line_of_sorted_json(self, tmp_path):
        store = IngestStore(tmp_path)
        record = _synthetic_record()
        store.save_record(record)
        text = (store._key_dir(record.key) / "0001.json").read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert store.load_record(record.key) == record

    def test_concurrent_writers_never_overwrite(self, tmp_path):
        store = IngestStore(tmp_path)
        record = _synthetic_record()
        errors = []

        def write():
            try:
                for _ in range(50):
                    store.save_record(record)
            except StoreFailure as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.versions(record.key) == list(range(1, 401))
        journaled = [v for _, key, v, _ in store.journal_entries() if key == record.key]
        assert len(journaled) == 400
        assert sorted(journaled) == list(range(1, 401))

    def test_stale_listing_never_overwrites(self, tmp_path, monkeypatch):
        store = IngestStore(tmp_path)
        record = _synthetic_record()
        store.save_record(record)
        store.save_record(dataclasses.replace(record, filter_tag="journals"))
        second = store._key_dir(record.key) / "0002.json"
        kept = second.read_bytes()
        monkeypatch.setattr(IngestStore, "versions", lambda self, key: [1])
        store.save_record(dataclasses.replace(record, filter_tag="books"))
        monkeypatch.undo()
        assert store.versions(record.key) == [1, 2, 3]
        assert second.read_bytes() == kept
        assert store.load_record(record.key, version=3).filter_tag == "books"
        assert store.journal_entries()[-1][2] == 3

    def test_record_write_error_ends_in_store_failure(self, tmp_path):
        store = IngestStore(tmp_path)
        record = _synthetic_record()
        store._key_dir(record.key).write_text("not a directory")
        with pytest.raises(StoreFailure):
            store.save_record(record)

    def test_short_writes_still_write_every_byte(self, tmp_path, monkeypatch):
        # os.write may write fewer bytes than it is given; the store
        # writes on until every byte is down
        write, calls = os.write, []

        def short(fd, data):
            calls.append(len(data))
            return write(fd, bytes(data[:7]))

        monkeypatch.setattr(harvester.os, "write", short)
        store = IngestStore(tmp_path)
        payload = random.Random(5).randbytes(100 * 1024)
        digest = store.store_payload(payload)
        record = _synthetic_record()
        store.save_record(record)
        monkeypatch.undo()
        assert max(calls) > 7 and len(calls) > 100 * 1024 // 7
        assert store.load_payload(digest) == payload
        text = (store._key_dir(record.key) / "0001.json").read_text(encoding="utf-8")
        assert text == record.json_text + "\n"
        assert store.load_record(record.key) == record
        assert store.fsck() == []
        [(stamp, key, version, kind)] = store.journal_entries()
        assert (stamp, key, version, kind) == (
            format_rfc3339(record.created_at), record.key, 1, "harvest"
        )

    def test_keys_decode_quoted_directories(self, tmp_path):
        store = IngestStore(tmp_path)
        record = _synthetic_record(key="http://x.example/a?b=c&d=e")
        store.save_record(record)
        assert store.keys() == ["http://x.example/a?b=c&d=e"]

    def test_a_key_holding_other_line_breaks_keeps_its_journal_lines(self, tmp_path):
        # a redirect's Location can bring U+0085 into an entry URI; only
        # "\n" ends a journal line
        key = "http://x.example/a\x85b\u2028c\rd"
        store = IngestStore(tmp_path)
        store.save_record(_synthetic_record(key=key))
        store.save_record(_synthetic_record(key=key))
        assert [(k, v) for _, k, v, _ in store.journal_entries()] == [(key, 1), (key, 2)]
        assert store.keys() == [key]

    def test_fsck_clean_store_reports_nothing(self, tmp_path):
        store = IngestStore(tmp_path)
        store.store_payload(b"payload")
        store.save_record(_synthetic_record())
        assert store.fsck() == []

    def test_fsck_flags_tampered_payload(self, tmp_path):
        store = IngestStore(tmp_path)
        digest = store.store_payload(b"original")
        store.payload_path(digest).write_bytes(b"tampered")
        problems = store.fsck()
        assert len(problems) == 1
        assert digest in problems[0]

    def test_fsck_flags_unreadable_record(self, tmp_path):
        store = IngestStore(tmp_path)
        record = _synthetic_record()
        store.save_record(record)
        path = store._key_dir(record.key) / "0001.json"
        path.write_text("{", encoding="utf-8")
        problems = store.fsck()
        assert len(problems) == 1
        assert "0001.json" in problems[0]

    def test_fsck_reads_records_as_text_mode_would(self, tmp_path):
        # a record file is read as bytes; the problems are what a
        # text-mode read (universal newlines, strict UTF-8) gave
        store = IngestStore(tmp_path)
        bodies = {
            "a": b'{"schema_version": 1,\r\n\r\n  x}',
            "b": b'{"schema_version": 1,\r  \r x}',
            "c": b'{"created_at": "\xff"}',
            "d": b'\xef\xbb\xbf{"schema_version": 1}',
        }
        expected = []
        for key, body in bodies.items():
            store.save_record(_synthetic_record(key=key))
            path = store._key_dir(key) / "0001.json"
            path.write_bytes(body)
            try:
                IngestRecord.from_json_dict(json.loads(path.read_text(encoding="utf-8")))
            except (ValueError, KeyError) as exc:
                expected.append(f"record {key}/0001.json: {exc}")
        assert len(expected) == 4
        assert store.fsck() == expected

    def test_fsck_flags_a_link_value_no_parser_writes(self, tmp_path):
        # link attributes are shared through a cache, so a JSON list where
        # a string belongs is a problem to report, not a crash
        store = IngestStore(tmp_path)
        record = _synthetic_record()
        store.save_record(record)
        path = store._key_dir(record.key) / "0001.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["object"]["entry_page"]["links"] = {
            "links": [{"rel": "item", "target": "t", "extra": [["title", ["a"]]]}]
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        assert store.fsck() == [
            "record http%3A%2F%2Fx.example%2Fe/0001.json: unhashable type: 'list'"
        ]

    def test_fsck_flags_a_fixity_algorithm_that_is_no_string(self, tmp_path):
        store = IngestStore(tmp_path)
        store.save_record(_synthetic_record(key="k"))
        path = store._key_dir("k") / "0001.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["object"]["entry_page"]["fixity"] = {"algorithm": 5, "digest": "00"}
        path.write_text(json.dumps(data), encoding="utf-8")
        problems = store.fsck()
        assert len(problems) == 1
        assert "k/0001.json" in problems[0]

    def test_fsck_flags_records_missing_a_required_field(self, tmp_path):
        # created_at has a default factory: a record without one is a
        # problem, not a record stamped with the time fsck read it
        store = IngestStore(tmp_path)
        for key, missing in (("a", "created_at"), ("b", "trigger")):
            store.save_record(_synthetic_record(key=key))
            path = store._key_dir(key) / "0001.json"
            data = json.loads(path.read_text(encoding="utf-8"))
            del data[missing]
            path.write_text(json.dumps(data), encoding="utf-8")
        assert store.fsck() == [
            "record a/0001.json: 'created_at'",
            "record b/0001.json: 'trigger'",
        ]

    def test_fsck_reports_in_sorted_path_order(self, tmp_path):
        # the problems, in the order of a sorted recursive listing of
        # payloads/: a stray directory's files come where its name sorts
        store = IngestStore(tmp_path)
        store.store_payload(b"alpha")
        truncated = store.payload_path(store.store_payload(b"truncate me"))
        truncated.write_bytes(b"trunc")
        renamed = store.payload_path(store.store_payload(b"renamed away"))
        renamed.rename(renamed.with_name("51" + "0" * 62))
        (truncated.parent / "a7-stray").mkdir()
        (truncated.parent / "a7-stray" / "note").write_bytes(b"stray")
        (tmp_path / "payloads" / "8e" / "8e-empty").mkdir()
        (tmp_path / "payloads" / "README").write_bytes(b"top level")
        store.save_record(_synthetic_record(key="http://x.example/a"))
        store.save_record(_synthetic_record(key="http://x.example/b"))
        store.save_record(_synthetic_record(key="http://x.example/b"))
        (store._key_dir("http://x.example/b") / "0001.json").write_text("{", encoding="utf-8")
        assert store.fsck() == [
            "payload 5100000000000000000000000000000000000000000000000000000000000000:"
            " content digest 5142ef41791b683affdf999a68b76d0980be719a11a5176f9bd21de7dcc118ed",
            "payload README:"
            " content digest cfde079781fe5327deed2f9cc4d91c913954e2dec7d17171dfbb958817e3b54e",
            "payload note:"
            " content digest e224ddc6b55af8b2a88404a0b6cb2617db0dfc25b3584a4dd7c4358d911e91f5",
            "payload a7256e504b39e49c35d0df94ee629e9d08fbd682c578b069c03799388b923fc0:"
            " content digest 9e08e9f870dfbd00ca1746e56440b1aa59ddd7a4d884ef115774c6b89aee5e54",
            "record http%3A%2F%2Fx.example%2Fb/0001.json:"
            " Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        ]

    def test_unusable_root_raises_store_failure(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(StoreFailure):
            IngestStore(blocker / "store")


# every class the record codec writes, with a generator of its values
_CODEC_TYPES = [
    (IngestRecord, random_ingest_record),
    (ScholarlyObject, gen.random_scholarly_object),
    (ResourceDescriptor, lambda rng: gen.random_descriptor(rng, rng.choice(list(ResourceRole)))),
    (FetchSummary, gen.random_fetch_summary),
    (CompletenessReport, gen.random_completeness_report),
    (BibliographyReport, gen.random_bibliography_report),
    (SubstanceReport, gen.random_substance_report),
    (SubstanceRule, gen.random_substance_rule),
    (SubstancePolicy, gen.random_substance_policy),
    (BibRecord, gen.random_bib_record),
    (Discrepancy, gen.random_discrepancy),
    (ReconciliationReport, gen.random_reconciliation_report),
    (AssetSpec, lambda rng: rng.choice(gen.random_fixture_spec(rng).assets)),
    (FixtureSpec, gen.random_fixture_spec),
    (CheckResult, gen.random_check_result),
    (AuditReport, gen.random_audit_report),
]


class TestRecordRoundTrip:
    def test_live_record_survives_json(self, harvested):
        _, record, _ = harvested
        restored = IngestRecord.from_json_dict(record.to_json_dict())
        assert restored == record

    @pytest.mark.parametrize(
        "cls, make", _CODEC_TYPES, ids=[cls.__name__ for cls, _ in _CODEC_TYPES]
    )
    def test_random_records_survive_json(self, cls, make):
        rng = random.Random(20260823)
        for _ in range(200):
            record = make(rng)
            restored = cls.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
            assert restored == record
            assert restored.to_json_dict() == record.to_json_dict()

    def test_fetch_summary_ok_semantics(self):
        assert FetchSummary(uri="u", status=200).ok
        assert not FetchSummary(uri="u", status=404).ok
        assert not FetchSummary(uri="u", status=None).ok

    def test_mode_wire_names(self):
        assert IngestMode.HARVEST.value == "harvest"
        assert IngestMode.DUMP.value == "dump"
