"""Tests for the embedded publisher/registrar fixture server."""

import hashlib
import http.client
import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from sgp.bibliography import parse_bibtex, parse_ris, from_crossref, reconcile
from gen import distinct_specs
from sgp.codec import DECODE_ERRORS
from sgp.crossref import parse_work, parse_work_list
from sgp.fixtures import (
    ABLATION_KEYS,
    ABLATION_RECOMMENDATION,
    FixtureSpec,
    UnknownFeature,
    degrade,
    landing_spec,
    plos_spec,
    serve,
)
from sgp.links import MalformedLinkField, parse_link_field
from sgp.resourcesync import parse_change_list


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, *args, **kwargs):
        return None


_OPENER = urllib.request.build_opener(_NoRedirect)


def _request(uri, method):
    req = urllib.request.Request(uri, method=method)
    try:
        with _OPENER.open(req, timeout=5) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def head(uri):
    return _request(uri, "HEAD")


def get(uri):
    return _request(uri, "GET")


def links_of(headers):
    return parse_link_field(headers.get("Link", ""), strict=True)


@pytest.fixture(scope="module")
def endpoint():
    with serve(plos_spec()) as ep:
        yield ep


def serve_degraded(key):
    return serve(degrade(plos_spec(), key))


class TestEntryPage:
    def test_head_has_eight_links(self, endpoint):
        status, headers, _ = head(endpoint.entry_uri)
        assert status == 200
        assert len(links_of(headers)) == 8

    def test_link_breakdown(self, endpoint):
        _, headers, _ = head(endpoint.entry_uri)
        links = links_of(headers)
        by_rel = {}
        for link in links:
            by_rel.setdefault(link.rel.value, []).append(link)
        assert len(by_rel["type"]) == 1
        assert len(by_rel["persistent-id"]) == 1
        assert len(by_rel["item"]) == 3
        assert len(by_rel["describedby"]) == 3

    def test_type_is_article(self, endpoint):
        _, headers, _ = head(endpoint.entry_uri)
        (type_link,) = links_of(headers).select("type")
        assert type_link.target == "info:eu-repo/semantics/article"

    def test_persistent_id_is_doi_uri(self, endpoint):
        _, headers, _ = head(endpoint.entry_uri)
        (pid,) = links_of(headers).select("persistent-id")
        assert pid.target == endpoint.doi_uri

    def test_items_carry_type_and_sem_type(self, endpoint):
        _, headers, _ = head(endpoint.entry_uri)
        items = links_of(headers).select("item")
        assert [l.attrs.media_type for l in items] == [
            "application/pdf",
            "application/xml",
            "text/html",
        ]
        assert all(l.attrs.sem_type for l in items)

    def test_describedby_profiles(self, endpoint):
        _, headers, _ = head(endpoint.entry_uri)
        profiles = [l.attrs.profile for l in links_of(headers).select("describedby")]
        assert profiles[0] == "https://github.com/CrossRef/rest-api-doc"
        assert profiles[1] == "http://bibtex.org"
        assert "RIS" in profiles[2]

    def test_get_and_head_share_headers(self, endpoint):
        _, get_headers, body = get(endpoint.entry_uri)
        _, head_headers, _ = head(endpoint.entry_uri)
        assert get_headers.get("Link") == head_headers.get("Link")
        assert body.startswith(b"<html>")


class TestDoiResolution:
    def test_doi_303_with_describedby(self, endpoint):
        status, headers, _ = get(endpoint.doi_uri)
        assert status == 303
        assert headers["Location"].endswith("/locate/10.1371/journal.pone.0115253")
        (link,) = links_of(headers)
        assert link.rel.value == "describedby"
        assert link.target == endpoint.works_uri
        assert link.attrs.media_type == "application/json"

    def test_locate_302_to_entry(self, endpoint):
        status, headers, _ = get(endpoint.base_uri + "/locate/10.1371/journal.pone.0115253")
        assert status == 302
        assert headers["Location"] == endpoint.entry_uri


class TestAssets:
    def test_pdf_links(self, endpoint):
        _, headers, body = get(endpoint.asset_uris()[0])
        links = links_of(headers)
        assert len(links) == 3
        (type_link,) = links.select("type")
        assert type_link.target == "info:eu-repo/semantics/article"
        (pid,) = links.select("persistent-id")
        assert pid.target == endpoint.doi_uri
        (coll,) = links.select("collection")
        assert coll.target == endpoint.entry_uri
        assert coll.attrs.media_type == "text/html"
        assert body.startswith(b"%PDF")

    def test_pdf_padded_to_requested_size(self):
        with serve(plos_spec(pdf_bytes=4096)) as ep:
            _, _, body = get(ep.asset_uris()[0])
        assert len(body) == 4096

    def test_head_reports_content_length_without_body(self, endpoint):
        _, headers, body = head(endpoint.asset_uris()[0])
        assert int(headers["Content-Length"]) > 0
        assert body == b""


class TestCitations:
    def test_bibtex_reconciles_with_works_record(self, endpoint):
        _, _, bib_body = get(endpoint.uri("/plosone/article.bib"))
        _, _, work_body = get(endpoint.works_uri)
        publisher = parse_bibtex(bib_body.decode())
        registrar = from_crossref(parse_work(work_body))
        report = reconcile(publisher, registrar)
        assert report.matched
        assert report.discrepancies == ()

    def test_ris_reconciles_with_bibtex(self, endpoint):
        _, _, bib_body = get(endpoint.uri("/plosone/article.bib"))
        _, _, ris_body = get(endpoint.uri("/plosone/article.ris"))
        report = reconcile(parse_bibtex(bib_body.decode()), parse_ris(ris_body.decode()))
        assert report.matched
        assert report.discrepancies == ()

    def test_citation_carries_describes_backlink(self, endpoint):
        _, headers, _ = get(endpoint.uri("/plosone/article.ris"))
        (link,) = links_of(headers)
        assert link.rel.value == "describes"
        assert link.target == endpoint.entry_uri


class TestWorksApi:
    def test_single_work_envelope(self, endpoint):
        _, headers, body = get(endpoint.works_uri)
        assert headers["Content-Type"] == "application/json"
        work = parse_work(body)
        assert work.doi == "10.1371/journal.pone.0115253"
        assert work.member_id == "340"
        assert work.publisher == "Public Library of Science"
        assert len(work.authors) == 7


class TestWorksListApi:
    """``/works?filter=doi:A,doi:B&rows=N`` answers from the same work
    documents as ``/works/<doi>``."""

    @pytest.fixture(scope="class")
    def three(self):
        specs = distinct_specs(3)
        with serve(*specs) as ep:
            yield ep, [spec.doi for spec in specs]

    def _list(self, ep, query):
        status, headers, body = get(f"{ep.base_uri}/works?{query}")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        return body

    def test_items_are_the_single_route_works(self, three):
        ep, dois = three
        body = self._list(ep, f"filter=doi:{dois[2]},doi:{dois[0]}&rows=2")
        items = parse_work_list(body).items
        assert sorted(w.doi for w in items) == sorted([dois[0], dois[2]])
        for view in ep.views:
            if view.spec.doi in (dois[0], dois[2]):
                assert parse_work(get(view.works_uri)[2]) in items
        assert json.loads(body)["message"]["total-results"] == 2

    def test_doi_matching_ignores_case(self, three):
        ep, dois = three
        items = parse_work_list(self._list(ep, f"filter=doi:{dois[1].upper()}&rows=5")).items
        assert [w.doi for w in items] == [dois[1]]

    def test_unknown_dois_are_left_out(self, three):
        ep, dois = three
        query = f"filter=doi:10.9999/absent,doi:{dois[0]}&rows=5"
        items = parse_work_list(self._list(ep, query)).items
        assert [w.doi for w in items] == [dois[0]]
        none = parse_work_list(self._list(ep, "filter=doi:10.9999/absent&rows=5"))
        assert none.items == ()

    def test_rows_is_honoured(self, three):
        ep, dois = three
        named = ",".join(f"doi:{doi}" for doi in dois)
        body = self._list(ep, f"filter={named}&rows=2")
        assert len(parse_work_list(body).items) == 2
        assert json.loads(body)["message"]["total-results"] == 3
        assert parse_work_list(self._list(ep, f"filter={named}&rows=0")).items == ()

    @pytest.mark.parametrize("query", ["filter=issn:0000-0000", "filter=doi:10.5/x&rows=many"])
    def test_what_the_route_cannot_answer_is_a_400(self, three, query):
        ep, _ = three
        assert get(f"{ep.base_uri}/works?{query}")[0] == 400


class TestFeeds:
    def test_registrar_feed_announces_doi(self, endpoint):
        _, _, body = get(endpoint.registrar_feed_uri)
        feed = parse_change_list(body.decode(), strict=True)
        (event,) = feed.events
        assert event.loc == endpoint.doi_uri
        assert event.kind.value == "created"
        (describedby,) = event.links.select("describedby")
        assert describedby.target == endpoint.works_uri

    def test_publisher_feed_announces_entry(self, endpoint):
        _, _, body = get(endpoint.publisher_feed_uri)
        feed = parse_change_list(body.decode(), strict=True)
        (event,) = feed.events
        assert event.loc == endpoint.entry_uri
        assert len(event.links) == 8

    def test_two_objects_two_events(self):
        with serve(plos_spec(), landing_spec()) as ep:
            _, _, body = get(ep.publisher_feed_uri)
            feed = parse_change_list(body.decode(), strict=True)
            assert len(feed.events) == 2
            assert {e.loc for e in feed.events} == {
                ep.views[0].entry_uri,
                ep.views[1].entry_uri,
            }


class TestLandingPattern:
    def test_entry_is_start_page_not_content(self):
        with serve(landing_spec()) as ep:
            _, headers, _ = head(ep.entry_uri)
            links = links_of(headers)
            (type_link,) = links.select("type")
            assert type_link.target == "info:eu-repo/semantics/humanStartPage"
            obj = ep.scholarly_object()
        assert ep.entry_uri not in obj.publication_uris
        assert len(obj.publication_resources) == 2

    def test_plos_object_has_four_resources(self, endpoint):
        obj = endpoint.scholarly_object()
        assert len(obj.publication_resources) == 4
        assert endpoint.entry_uri in obj.publication_uris

    def test_policy_recognises_served_doi(self, endpoint):
        assert endpoint.policy().is_persistent_uri(endpoint.doi_uri)
        assert not endpoint.policy().is_persistent_uri(endpoint.entry_uri)


class TestAblations:
    def test_registry_covers_all_recommendations(self):
        assert sorted(ABLATION_RECOMMENDATION.values()) == sorted(
            f"R{i}" for i in range(1, 13)
        )
        assert set(ABLATION_RECOMMENDATION) <= ABLATION_KEYS

    def test_unknown_feature_rejected(self):
        with pytest.raises(UnknownFeature):
            degrade(plos_spec(), "no-such-feature")

    def test_degrade_idempotent_and_composable(self):
        spec = plos_spec()
        once = degrade(spec, "no-entry-item-links")
        assert degrade(once, "no-entry-item-links") == once
        both = degrade(once, "no-feed-describedby")
        assert both.ablations == {"no-entry-item-links", "no-feed-describedby"}
        assert spec.ablations == frozenset()

    def test_empty_registrar_feed(self):
        with serve_degraded("empty-registrar-feed") as ep:
            _, _, body = get(ep.registrar_feed_uri)
            assert parse_change_list(body.decode()).events == ()
            _, _, pub = get(ep.publisher_feed_uri)
            assert len(parse_change_list(pub.decode()).events) == 1

    def test_registrar_loc_not_doi(self):
        with serve_degraded("registrar-loc-not-doi") as ep:
            _, _, body = get(ep.registrar_feed_uri)
            (event,) = parse_change_list(body.decode()).events
            assert event.loc == ep.entry_uri

    def test_no_doi_describedby(self):
        with serve_degraded("no-doi-describedby") as ep:
            status, headers, _ = get(ep.doi_uri)
            assert status == 303
            assert "Link" not in headers

    def test_empty_publisher_feed(self):
        with serve_degraded("empty-publisher-feed") as ep:
            _, _, body = get(ep.publisher_feed_uri)
            assert parse_change_list(body.decode()).events == ()

    def test_publisher_loc_not_entry(self):
        with serve_degraded("publisher-loc-not-entry") as ep:
            _, _, body = get(ep.publisher_feed_uri)
            (event,) = parse_change_list(body.decode()).events
            assert event.loc == ep.asset_uris()[0]

    def test_no_feed_item_links_leaves_entry_alone(self):
        with serve_degraded("no-feed-item-links") as ep:
            _, _, body = get(ep.publisher_feed_uri)
            (event,) = parse_change_list(body.decode()).events
            assert event.links.select("item") == ()
            assert event.links.select("describedby") != ()
            _, headers, _ = head(ep.entry_uri)
            assert len(links_of(headers).select("item")) == 3

    def test_no_entry_item_links_leaves_feed_alone(self):
        with serve_degraded("no-entry-item-links") as ep:
            _, headers, _ = head(ep.entry_uri)
            assert links_of(headers).select("item") == ()
            _, _, body = get(ep.publisher_feed_uri)
            (event,) = parse_change_list(body.decode()).events
            assert len(event.links.select("item")) == 3

    def test_no_collection_backlink(self):
        with serve_degraded("no-collection-backlink") as ep:
            _, headers, _ = head(ep.asset_uris()[0])
            links = links_of(headers)
            assert links.select("collection") == ()
            assert links.select("persistent-id") != ()

    def test_no_feed_describedby(self):
        with serve_degraded("no-feed-describedby") as ep:
            _, _, body = get(ep.publisher_feed_uri)
            (event,) = parse_change_list(body.decode()).events
            assert event.links.select("describedby") == ()
            _, headers, _ = head(ep.entry_uri)
            assert len(links_of(headers).select("describedby")) == 3

    def test_no_feed_persistent_id(self):
        with serve_degraded("no-feed-persistent-id") as ep:
            _, _, body = get(ep.publisher_feed_uri)
            (event,) = parse_change_list(body.decode()).events
            assert event.links.select("persistent-id") == ()
            _, headers, _ = head(ep.entry_uri)
            assert links_of(headers).select("persistent-id") != ()

    def test_no_entry_describedby(self):
        with serve_degraded("no-entry-describedby") as ep:
            _, headers, _ = head(ep.entry_uri)
            assert links_of(headers).select("describedby") == ()
            _, _, body = get(ep.publisher_feed_uri)
            (event,) = parse_change_list(body.decode()).events
            assert len(event.links.select("describedby")) == 3

    def test_no_asset_persistent_id(self):
        with serve_degraded("no-asset-persistent-id") as ep:
            _, headers, _ = head(ep.asset_uris()[0])
            assert links_of(headers).select("persistent-id") == ()
            _, entry_headers, _ = head(ep.entry_uri)
            assert links_of(entry_headers).select("persistent-id") != ()

    def test_no_doi_anywhere(self):
        with serve_degraded("no-doi-anywhere") as ep:
            _, entry_headers, _ = head(ep.entry_uri)
            assert links_of(entry_headers).select("persistent-id") == ()
            _, asset_headers, _ = head(ep.asset_uris()[0])
            assert links_of(asset_headers).select("persistent-id") == ()
            assert ep.scholarly_object().identifying_uri is None

    def test_no_describes_backlink(self):
        with serve_degraded("no-describes-backlink") as ep:
            _, headers, _ = get(ep.uri("/plosone/article.bib"))
            assert "Link" not in headers

    def test_malformed_entry_header(self):
        with serve_degraded("malformed-entry-header") as ep:
            _, headers, _ = head(ep.entry_uri)
            with pytest.raises(MalformedLinkField):
                parse_link_field(headers["Link"], strict=True)


class TestServerBehavior:
    def test_unknown_path_404(self, endpoint):
        status, _, _ = get(endpoint.uri("/no/such/path"))
        assert status == 404

    def test_plain_page_has_no_links(self, endpoint):
        status, headers, _ = get(endpoint.uri("/plain"))
        assert status == 200
        assert "Link" not in headers

    def test_loop_redirects_to_itself(self, endpoint):
        status, headers, _ = get(endpoint.uri("/loop"))
        assert status == 302
        assert headers["Location"] == endpoint.uri("/loop")

    def test_responses_are_byte_stable(self, endpoint):
        first = get(endpoint.works_uri)
        second = get(endpoint.works_uri)
        assert first == second
        assert get(endpoint.publisher_feed_uri)[2] == get(endpoint.publisher_feed_uri)[2]

    def test_scripted_statuses_then_normal(self):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {**spec.to_json_dict(), "status_scripts": [["/plosone/article", [503, 200]]]}
        )
        with serve(spec) as ep:
            assert get(ep.entry_uri)[0] == 503
            assert get(ep.entry_uri)[0] == 200
            assert get(ep.entry_uri)[0] == 200

    def test_scripted_429_carries_retry_after(self):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {**spec.to_json_dict(), "status_scripts": [["/plosone/article", [429]]]}
        )
        with serve(spec) as ep:
            status, headers, _ = get(ep.entry_uri)
        assert status == 429
        assert headers["Retry-After"] == "0"

    def test_request_log_orders_and_clears(self, endpoint):
        endpoint.clear_log()
        head(endpoint.entry_uri)
        get(endpoint.asset_uris()[1])
        log = endpoint.log()
        assert [(e.method, e.path) for e in log] == [
            ("HEAD", "/plosone/article"),
            ("GET", "/plosone/article.xml"),
        ]
        assert log[0].timestamp <= log[1].timestamp
        endpoint.clear_log()
        assert endpoint.log() == []


class TestSpecSerialization:
    @pytest.mark.parametrize(
        "change",
        [
            lambda data: data.update(entry_path="/plosone/art\ticle"),
            lambda data: data["assets"][0].update(path="/plosone/article .pdf"),
            lambda data: data.update(doi="10.1371/a b"),
        ],
        ids=["entry-path", "asset-path", "doi"],
    )
    def test_path_breaking_the_link_target_rule_is_refused(self, change):
        data = plos_spec().to_json_dict()
        change(data)
        with pytest.raises(DECODE_ERRORS, match="link-target rule"):
            FixtureSpec.from_json_dict(data)

    def test_round_trip(self):
        spec = degrade(plos_spec(), "no-entry-item-links")
        data = json.loads(json.dumps(spec.to_json_dict()))
        assert FixtureSpec.from_json_dict(data) == spec

    def test_round_trip_with_scripts(self):
        spec = landing_spec()
        spec = FixtureSpec.from_json_dict(
            {**spec.to_json_dict(), "status_scripts": [["/journal/vol1/demo", [500, 200]]]}
        )
        again = FixtureSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert again == spec
        assert again.status_scripts == (("/journal/vol1/demo", (500, 200)),)


GOLDEN_RESPONSES = Path(__file__).parent / "data" / "golden" / "fixture_responses.json"
PATTERNS = {"plos_spec": plos_spec, "landing_spec": landing_spec}
FIXTURES = ("clean", *sorted(ABLATION_KEYS))
BASE = "http://fixture.invalid"
# set by the server, not by the fixture: the clock and the Python version
_UNPINNED = frozenset({"Date", "Server"})


def _routes(spec):
    """Every path the server answers for one spec, plus one it does not."""
    doi = spec.doi
    return [
        f"/doi/{doi}",
        f"/locate/{doi}",
        spec.entry_path,
        *(asset.path for asset in spec.assets),
        spec.entry_path + ".bib",
        spec.entry_path + ".ris",
        f"/works/{doi}",
        f"/works?filter=doi:{doi}",
        "/registrar/changelist.xml",
        "/changelist.xml",
        "/loop",
        "/plain",
        "/no/such/path",
    ]


def golden_responses(pattern, fixture):
    """One entry of ``fixture_responses.json`` per route of one fixture:
    the GET's status, its headers in order and the sha256 of its body,
    with the server's base URI replaced by ``BASE``. ``Content-Length``
    is checked against the body here and then left out, since the base
    URI's length is the port's."""
    spec = PATTERNS[pattern]()
    if fixture != "clean":
        spec = degrade(spec, fixture)
    entries = []
    with serve(spec) as ep:
        host, port = ep.base_uri[len("http://") :].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            for path in _routes(spec):
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                headers = []
                for name, value in response.getheaders():
                    if name == "Content-Length":
                        assert int(value) == len(body)
                    elif name not in _UNPINNED:
                        headers.append([name, value.replace(ep.base_uri, BASE)])
                normalised = body.replace(ep.base_uri.encode(), BASE.encode())
                entries.append(
                    {
                        "pattern": pattern,
                        "fixture": fixture,
                        "path": path,
                        "status": response.status,
                        "headers": headers,
                        "body_sha256": hashlib.sha256(normalised).hexdigest(),
                    }
                )
        finally:
            connection.close()
    return entries


class TestGoldenResponses:
    """Every route of both patterns, clean and under each ablation,
    answers as recorded in ``data/golden/fixture_responses.json``. The
    file was written once by ``golden_responses`` and is never
    regenerated: the stand-in's bytes are what the benchmark's
    per-object response size measures."""

    @pytest.fixture(scope="class")
    def golden(self):
        by_case = {}
        for entry in json.loads(GOLDEN_RESPONSES.read_text(encoding="utf-8")):
            by_case.setdefault((entry["pattern"], entry["fixture"]), []).append(entry)
        return by_case

    def test_every_case_is_recorded(self, golden):
        assert sorted(golden) == sorted((p, f) for p in PATTERNS for f in FIXTURES)
        assert sum(len(entries) for entries in golden.values()) == 464

    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_responses_are_unchanged(self, golden, pattern, fixture):
        assert golden_responses(pattern, fixture) == golden[pattern, fixture]
