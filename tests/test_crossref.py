"""Works-API parsing, DOI handling, deposit classification, and the
client's mapping of navigator outcomes to registrar errors."""

import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgp.crossref import (
    CrossRefClient,
    CrossRefWork,
    DepositCategory,
    PartialDate,
    InvalidDoi,
    MalformedJson,
    MissingDoi,
    NotAWork,
    NotFound,
    RateLimited,
    ServiceError,
    classify_deposit,
    metadata_uri_for,
    normalize_doi,
    parse_work,
    parse_work_list,
    work_list_uri_for,
)
from sgp.navigator import PolitenessPolicy, SignpostClient


class TestNormalizeDoi:
    def test_plain_lowercased(self):
        assert normalize_doi("10.1045/SEPTEMBER2015-Rosenthal") == (
            "10.1045/september2015-rosenthal"
        )

    def test_strips_doi_scheme(self):
        assert normalize_doi("doi:10.1371/journal.pone.0115253") == (
            "10.1371/journal.pone.0115253"
        )

    def test_strips_info_uri(self):
        assert normalize_doi("info:doi/10.1371/journal.pone.0115253") == (
            "10.1371/journal.pone.0115253"
        )

    @pytest.mark.parametrize(
        "prefix",
        [
            "http://dx.doi.org/",
            "https://dx.doi.org/",
            "http://doi.org/",
            "https://doi.org/",
        ],
    )
    def test_strips_resolver(self, prefix):
        assert normalize_doi(prefix + "10.1029/JD094iD06p08425") == (
            "10.1029/jd094id06p08425"
        )

    def test_rejects_missing_slash(self):
        with pytest.raises(InvalidDoi):
            normalize_doi("10.1045")

    def test_rejects_empty(self):
        with pytest.raises(InvalidDoi):
            normalize_doi("")

    @given(st.text(alphabet="abcdefXYZ0123456789./-_;()", min_size=3, max_size=40))
    @settings(max_examples=200)
    def test_idempotent(self, raw):
        try:
            once = normalize_doi(raw)
        except InvalidDoi:
            return
        assert normalize_doi(once) == once


class TestMetadataUri:
    def test_plain_doi_untouched(self):
        assert metadata_uri_for("10.1045/september2015-rosenthal") == (
            "http://api.crossref.org/works/10.1045/september2015-rosenthal"
        )

    def test_reserved_characters_encoded(self):
        uri = metadata_uri_for("10.5/a b<c>#d?e")
        assert uri.endswith("/works/10.5/a%20b%3Cc%3E%23d%3Fe")

    def test_sub_delims_kept(self):
        uri = metadata_uri_for("10.5/x(1);y=2,z:@w")
        assert uri.endswith("/works/10.5/x(1);y=2,z:@w")

    def test_already_encoded_input_is_stable(self):
        doi = "10.5/a%20b"
        uri = metadata_uri_for(doi)
        assert uri.endswith("/works/10.5/a%20b")

    def test_custom_base_trailing_slash(self):
        uri = metadata_uri_for("10.5/x", api_base="http://localhost:9999/api/")
        assert uri == "http://localhost:9999/api/works/10.5/x"

    def test_work_list_names_every_doi(self):
        uri = work_list_uri_for(["10.5/a", "10.5/B"], api_base="http://localhost:9/")
        assert uri == "http://localhost:9/works?filter=doi:10.5/a,doi:10.5/B&rows=2"

    def test_work_list_encodes_what_a_query_reserves(self):
        uri = work_list_uri_for(["10.5/a&b+c d#e%41"])
        assert uri.endswith("?filter=doi:10.5/a%26b%2Bc%20d%23e%2541&rows=1")

    def test_work_list_cannot_name_a_doi_with_a_comma(self):
        with pytest.raises(InvalidDoi):
            work_list_uri_for(["10.5/a", "10.5/b,c"])

    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_idempotent(self, suffix):
        doi = "10.5/" + suffix
        once = metadata_uri_for(doi)
        again = "http://api.crossref.org/works/" + once.split("/works/", 1)[1]
        assert metadata_uri_for(once.split("/works/", 1)[1]) == again


@pytest.fixture(scope="module")
def work(data_dir):
    return parse_work((data_dir / "work_rosenthal.json").read_text())


@pytest.fixture(scope="module")
def listing(data_dir):
    return parse_work_list((data_dir / "worklist_recent.json").read_text())


class TestParseWork:
    def test_identity(self, work):
        assert work.doi == "10.1045/september2015-rosenthal"
        assert work.url == "http://dx.doi.org/10.1045/september2015-rosenthal"
        assert work.doi_prefix == "10.1045"

    def test_bibliographic_fields(self, work):
        assert work.title == ("Enhancing the LOCKSS Digital Preservation Technology",)
        assert work.subtitle == ()
        assert work.container_title == ("D-Lib Magazine",)
        assert work.issn == ("1082-9873",)
        assert work.volume == "21"
        assert work.issue == "9/10"
        assert work.page is None
        assert work.work_type == "journal-article"
        assert work.reference_count == 0
        assert work.publisher == "CNRI Acct"

    def test_authors(self, work):
        assert [a.family for a in work.authors] == [
            "Rosenthal",
            "Vargas",
            "Lipkis",
            "Griffin",
        ]
        assert work.authors[0].given == "David S. H."
        assert work.authors[0].affiliations == ()

    def test_timestamps(self, work):
        utc = timezone.utc
        assert work.created == datetime(2015, 9, 15, 11, 9, 53, tzinfo=utc)
        assert work.deposited == datetime(2015, 9, 15, 12, 46, 38, tzinfo=utc)
        assert work.indexed == datetime(2015, 12, 22, 3, 16, 21, tzinfo=utc)

    def test_issued_partial_date(self, work):
        assert work.issued is not None
        assert (work.issued.year, work.issued.month, work.issued.day) == (2015, 9, None)

    def test_registrar_pointers(self, work):
        assert work.member == "http://id.crossref.org/member/72"
        assert work.prefix == "http://id.crossref.org/prefix/10.1045"
        assert work.member_id == "72"

    def test_bare_work_object_accepted(self, data_dir):
        envelope = json.loads((data_dir / "work_rosenthal.json").read_text())
        bare = parse_work(envelope["message"])
        assert bare == parse_work(envelope)

    def test_wrong_message_type(self):
        doc = {"message-type": "member", "message": {"DOI": "10.5/x"}}
        with pytest.raises(NotAWork):
            parse_work(doc)

    def test_malformed_json(self):
        with pytest.raises(MalformedJson):
            parse_work("{not json")

    def test_missing_doi(self):
        with pytest.raises(MissingDoi):
            parse_work({"message-type": "work", "message": {"title": ["x"]}})

    def test_no_invented_fields(self):
        work = parse_work({"DOI": "10.5/x"})
        assert work.url is None
        assert work.title == ()
        assert work.authors == ()
        assert work.created is None
        assert work.deposited is None
        assert work.issued is None
        assert work.member is None
        assert work.reference_count is None
        assert work.license_links == ()
        assert work.fulltext_links == ()


# a work message that parses, and wrong-typed values a hostile API might
# put in it; each must give NotAWork, never a TypeError or AttributeError
_GOOD = {"DOI": "10.5/x", "title": ["T"], "issued": {"date-parts": [[2014, 12]]}}
_HOSTILE = {
    "author-not-object": {"author": ["x"]},
    "author-not-list": {"author": "Doe"},
    "affiliation-not-object": {"author": [{"family": "Doe", "affiliation": ["Uni"]}]},
    "family-not-string": {"author": [{"family": 5}]},
    "license-not-object": {"license": ["http://x.example/l"]},
    "link-not-object": {"link": [None]},
    "issued-not-object": {"issued": [2014]},
    "date-parts-a-string": {"issued": {"date-parts": "2014"}},
    "date-parts-flat": {"issued": {"date-parts": [2014, 12]}},
    "date-part-not-int": {"issued": {"date-parts": [[2014, "12"]]}},
    "date-part-null-month": {"issued": {"date-parts": [[2014, None]]}},
    "date-time-not-string": {"created": {"date-time": 5}},
    "date-time-garbage": {"created": {"date-time": "yesterday"}},
    "timestamp-not-number": {"created": {"timestamp": "soon"}},
    "title-not-list": {"title": "T"},
    "title-null-item": {"title": [None]},
    "issn-number": {"ISSN": [10829873]},
    "volume-not-string": {"volume": 9},
    "member-not-string": {"member": {"id": 340}},
    "reference-count-not-number": {"reference-count": []},
}


class TestHostileWork:
    @pytest.mark.parametrize("change", _HOSTILE.values(), ids=list(_HOSTILE))
    def test_parse_work_raises_not_a_work(self, change):
        assert parse_work(_GOOD).issued == PartialDate(2014, 12)
        with pytest.raises(NotAWork):
            parse_work({**_GOOD, **change})

    @pytest.mark.parametrize("change", _HOSTILE.values(), ids=list(_HOSTILE))
    def test_one_hostile_item_spoils_the_list(self, change):
        items = [_GOOD, {**_GOOD, **change}]
        with pytest.raises(NotAWork):
            parse_work_list({"message-type": "work-list", "status": "ok", "message": {"items": items}})

    @pytest.mark.parametrize("items", [["10.5/x"], [None], "10.5/x", {"DOI": "10.5/x"}])
    def test_items_that_are_not_objects(self, items):
        with pytest.raises(NotAWork):
            parse_work_list({"message-type": "work-list", "status": "ok", "message": {"items": items}})

    @pytest.mark.parametrize("parts", ["2014", [2014], [["2014"]], [[True]], [[2014.0]]])
    def test_date_parts_of_the_wrong_shape(self, parts):
        with pytest.raises(NotAWork):
            PartialDate.from_date_parts(parts)

    @pytest.mark.parametrize("parts", [None, [], [[]], [[None]]])
    def test_empty_date_parts_mean_no_date(self, parts):
        assert PartialDate.from_date_parts(parts) is None


class TestParseWorkList:
    def test_envelope(self, listing):
        assert len(listing.items) == 2

    def test_order_preserved(self, listing):
        assert [w.doi for w in listing.items] == [
            "10.1029/jd094id06p08425",
            "10.1016/j.jmaa.2016.03.023",
        ]

    def test_first_item_details(self, listing):
        wiley = listing.items[0]
        assert wiley.member == "http://id.crossref.org/member/311"
        assert wiley.prefix == "http://id.crossref.org/prefix/10.1002"
        assert wiley.doi_prefix == "10.1029"
        assert wiley.page == "8425-8433"
        assert wiley.created == datetime(2008, 2, 6, 13, 40, 44, tzinfo=timezone.utc)
        assert wiley.deposited == datetime(2016, 3, 17, 19, 59, 58, tzinfo=timezone.utc)
        assert wiley.license_links == (
            ("http://doi.wiley.com/10.1002/tdm_license_1", "tdm"),
            ("http://onlinelibrary.wiley.com/termsAndConditions", "vor"),
        )
        assert wiley.fulltext_links[0][1] == "application/pdf"

    def test_second_item_fresh_registration_shape(self, listing):
        elsevier = listing.items[1]
        assert elsevier.created == elsevier.deposited
        assert elsevier.member_id == "78"
        assert "α-theory" in elsevier.title[0]

    def test_wrong_message_type(self, data_dir):
        doc = json.loads((data_dir / "work_rosenthal.json").read_text())
        with pytest.raises(NotAWork):
            parse_work_list(doc)

    def test_bad_status(self):
        with pytest.raises(NotAWork):
            parse_work_list(
                {"message-type": "work-list", "status": "failed", "message": {}}
            )


class TestClassifyDeposit:
    def test_same_minute_deposit_is_new_registration(self, listing):
        verdict = classify_deposit(listing.items[1], {})
        assert verdict.category is DepositCategory.NEW_REGISTRATION

    def test_old_work_from_other_member_is_possible_transfer(self, listing):
        verdict = classify_deposit(listing.items[0], {"10.1029": "13"})
        assert verdict.category is DepositCategory.POSSIBLE_TRANSFER
        assert "13" in verdict.evidence
        assert "311" in verdict.evidence

    def test_uri_valued_map_entries_accepted(self, listing):
        verdict = classify_deposit(
            listing.items[0],
            {"http://id.crossref.org/prefix/10.1029": "http://id.crossref.org/member/13"},
        )
        assert verdict.category is DepositCategory.POSSIBLE_TRANSFER

    def test_old_work_unknown_prefix_is_update(self, listing):
        verdict = classify_deposit(listing.items[0], {})
        assert verdict.category is DepositCategory.METADATA_UPDATE

    def test_old_work_matching_owner_is_update(self, listing):
        verdict = classify_deposit(listing.items[0], {"10.1029": "311"})
        assert verdict.category is DepositCategory.METADATA_UPDATE

    def test_missing_timestamps_never_new(self):
        work = CrossRefWork(doi="10.5/x")
        verdict = classify_deposit(work, {})
        assert verdict.category is DepositCategory.METADATA_UPDATE

    @given(gap_seconds=st.integers(min_value=0, max_value=400_000))
    @settings(max_examples=100)
    def test_window_boundary(self, gap_seconds):
        base = datetime(2016, 3, 17, 12, 0, 0, tzinfo=timezone.utc)
        work = CrossRefWork(
            doi="10.5/x", created=base, deposited=base + timedelta(seconds=gap_seconds)
        )
        window = timedelta(hours=24)
        verdict = classify_deposit(work, {}, window=window)
        expected_new = gap_seconds <= window.total_seconds()
        assert (verdict.category is DepositCategory.NEW_REGISTRATION) == expected_new

    @given(
        gap_hours=st.integers(min_value=0, max_value=96),
        windows=st.lists(
            st.integers(min_value=0, max_value=96), min_size=2, max_size=6
        ),
    )
    @settings(max_examples=100)
    def test_monotone_in_window(self, gap_hours, windows):
        base = datetime(2016, 1, 1, tzinfo=timezone.utc)
        work = CrossRefWork(
            doi="10.5/x", created=base, deposited=base + timedelta(hours=gap_hours)
        )
        verdicts = [
            classify_deposit(work, {}, window=timedelta(hours=h)).category
            is DepositCategory.NEW_REGISTRATION
            for h in sorted(windows)
        ]
        # once the growing window covers the gap it must stay covered
        assert verdicts == sorted(verdicts)


class StubResponse:
    def __init__(self, status_code, body="", headers=None):
        self.status_code = status_code
        self.content = body.encode("utf-8")
        self.headers = headers or {}


class StubSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def request(self, method, url, **kw):
        self.calls.append(url)
        return self.responses.pop(0)


FAST_RETRY = PolitenessPolicy(retries=2, backoff=0.0)


def _client(responses):
    session = StubSession(responses)
    return CrossRefClient(SignpostClient(FAST_RETRY, session=session)), session


def _work_body():
    return json.dumps(
        {"message-type": "work", "status": "ok", "message": {"DOI": "10.5/x"}}
    )


class TestClient:
    def test_fetch_work_uses_metadata_uri(self):
        client, session = _client([StubResponse(200, _work_body())])
        work = client.fetch_work("DOI:10.5/X")
        assert work.doi == "10.5/x"
        assert session.calls == ["http://api.crossref.org/works/10.5/x"]

    def test_retries_through_outage(self):
        client, session = _client([StubResponse(503), StubResponse(200, _work_body())])
        assert client.fetch_work("10.5/x").doi == "10.5/x"
        assert len(session.calls) == 2

    def test_persistent_outage_raises(self):
        client, session = _client([StubResponse(503)] * 3)
        with pytest.raises(ServiceError) as err:
            client.fetch_work("10.5/x")
        assert err.value.status == 503
        assert len(session.calls) == 3

    def test_not_found_is_immediate(self):
        client, session = _client([StubResponse(404)])
        with pytest.raises(NotFound):
            client.fetch_work("10.5/x")
        assert len(session.calls) == 1

    def test_rate_limit_retried_then_ok(self):
        client, session = _client(
            [
                StubResponse(429, headers={"Retry-After": "0"}),
                StubResponse(200, _work_body()),
            ]
        )
        assert client.fetch_work("10.5/x").doi == "10.5/x"

    def test_fetch_works_makes_one_list_request(self):
        items = [{"DOI": "10.5/X"}, {"DOI": "10.5/y"}]
        body = json.dumps(
            {"message-type": "work-list", "status": "ok", "message": {"items": items}}
        )
        client, session = _client([StubResponse(200, body)])
        works = client.fetch_works(["doi:10.5/x", "10.5/Y", "10.5/z"])
        assert sorted(works) == ["10.5/x", "10.5/y"]
        assert works["10.5/x"].doi == "10.5/x"
        assert session.calls == [
            "http://api.crossref.org/works?filter=doi:10.5/x,doi:10.5/y,doi:10.5/z&rows=3"
        ]

    def test_fetch_works_maps_status_like_fetch_work(self):
        client, session = _client([StubResponse(500)])
        with pytest.raises(ServiceError) as err:
            client.fetch_works(["10.5/x", "10.5/y"])
        assert err.value.status == 500

    @pytest.mark.parametrize(
        "statuses, error, calls",
        [([429] * 3, RateLimited, 3), ([500], ServiceError, 1)],
    )
    def test_status_maps_to_registrar_error(self, statuses, error, calls):
        client, session = _client([StubResponse(s) for s in statuses])
        with pytest.raises(error) as err:
            client.fetch_work("10.5/x")
        assert err.value.status == statuses[0]
        assert len(session.calls) == calls


class TestDoiAt:
    """``doi_at`` names a DOI only for the client's own works document
    of it, written exactly as ``metadata_uri_for`` writes it."""

    @pytest.mark.parametrize(
        "uri, doi",
        [
            ("http://api.crossref.org/works/10.5/x", "10.5/x"),
            ("http://api.crossref.org/works/10.5/a%20b", "10.5/a b"),
            ("http://api.crossref.org/works/10.5/a,b", "10.5/a,b"),
        ],
    )
    def test_own_document_names_its_doi(self, uri, doi):
        client = CrossRefClient(None)
        assert client.doi_at(uri) == doi
        assert metadata_uri_for(doi, api_base=client.api_base) == uri

    @pytest.mark.parametrize(
        "uri",
        [
            "https://api.crossref.org/works/10.5/x",
            "http://api.crossref.org/v1/works/10.5/x",
            "http://api.crossref.org/works/10.5/X",
            "http://api.crossref.org/works/10.5/x?mailto=a",
            "http://api.crossref.org/works/10.5/a%2Fb",
            "http://api.crossref.org/works/doi:10.5/x",
            "http://api.crossref.org/works/10.5",
            "http://api.crossref.org/works?filter=doi:10.5/x",
        ],
    )
    def test_anything_else_names_none(self, uri):
        assert CrossRefClient(None).doi_at(uri) is None

    def test_base_with_trailing_slash(self):
        client = CrossRefClient(None, api_base="http://127.0.0.1:8080/")
        assert client.doi_at("http://127.0.0.1:8080/works/10.5/x") == "10.5/x"
