"""Change list codecs, event emitters and dumps."""

import io
import random
import re
import string
import tracemalloc
import warnings
import zipfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgp.crossref import CROSSREF_PROFILE, CrossRefWork, MissingDoi
from sgp.fixity import (
    FixityInfo,
    UnsupportedAlgorithm,
    compute_fixity,
    verify_fixity,
)
from sgp.links import (
    DESCRIBEDBY,
    ITEM,
    PERSISTENT_ID,
    TYPE,
    LinkAttributes,
    LinkSet,
    RelationType,
    TypedLink,
    Vocabulary,
    link_attributes,
    parse_link_field,
    relation_type,
)
from sgp.resources import object_from_links
from sgp.rfc3339 import format_rfc3339
from sgp.resourcesync import (
    ChangeDumpIndex,
    ChangeDumpManifest,
    ChangeEvent,
    ChangeKind,
    ChangeList,
    ChangeListError,
    CorruptArchive,
    FeedViolation,
    FeedWarning,
    MalformedXml,
    ManifestPathCollision,
    MissingChangeAttribute,
    MissingPayload,
    UnknownChangeKind,
    emit_change_list,
    emit_publisher_event,
    emit_registrar_event,
    emit_resource_event,
    pack_change_dump,
    parse_change_list,
    unpack_change_dump,
)

from gen import random_change_list, random_dump_entries

UTC = timezone.utc

DOI_URI = "http://dx.doi.org/10.1371/journal.pone.0115253"
API_URI = "http://api.crossref.org/works/10.1371/journal.pone.0115253"
ENTRY_URI = "http://journals.plos.org/plosone/article?id=10.1371/journal.pone.0115253"


def urlset(*fragments, md='<rs:md capability="changelist"/>'):
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
        'xmlns:rs="http://www.openarchives.org/rs/terms/">'
        + md
        + "".join(fragments)
        + "</urlset>"
    )


def url(loc, md_attrs, *ln):
    return f"<url><loc>{loc}</loc><rs:md {md_attrs}/>{''.join(ln)}</url>"


class TestParseGoldenRegistrar:
    def test_single_created_event(self, data_dir):
        feed = parse_change_list((data_dir / "registrar_event.xml").read_bytes())
        assert len(feed.events) == 1
        event = feed.events[0]
        assert event.loc == DOI_URI
        assert event.kind is ChangeKind.CREATED
        assert event.datetime == datetime(2014, 12, 26, tzinfo=UTC)

    def test_describedby_link(self, data_dir):
        feed = parse_change_list((data_dir / "registrar_event.xml").read_bytes())
        links = feed.events[0].links
        assert len(links) == 1
        link = links.first(DESCRIBEDBY)
        assert link.target == API_URI
        assert link.attrs.media_type == "application/json"
        assert link.attrs.profile == CROSSREF_PROFILE

    def test_strict_parse_is_quiet(self, data_dir):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_change_list((data_dir / "registrar_event.xml").read_bytes(), strict=True)


@pytest.fixture(scope="module")
def event(data_dir):
    feed = parse_change_list((data_dir / "publisher_event.xml").read_bytes())
    assert len(feed.events) == 1
    return feed.events[0]


class TestParseGoldenPublisher:
    def test_loc_is_entry_page(self, event):
        assert event.loc == ENTRY_URI

    def test_link_census(self, event):
        assert len(event.links) == 8
        assert len(event.links.select(TYPE)) == 1
        assert len(event.links.select(PERSISTENT_ID)) == 1
        assert len(event.links.select(ITEM)) == 3
        assert len(event.links.select(DESCRIBEDBY)) == 3

    def test_self_nature_and_identity(self, event):
        assert event.links.first(TYPE).target == "info:eu-repo/semantics/article"
        assert event.links.first(PERSISTENT_ID).target == DOI_URI

    def test_item_attributes(self, event):
        items = event.links.select(ITEM)
        assert [link.attrs.media_type for link in items] == [
            "application/pdf",
            "application/xml",
            "text/html",
        ]
        assert [link.attrs.sem_type for link in items] == [
            "info:eu-repo/semantics/article",
            "info:eu-repo/semantics/article",
            "info:eu-repo/semantics/objectFile",
        ]

    def test_describedby_profiles(self, event):
        profiles = [link.attrs.profile for link in event.links.select(DESCRIBEDBY)]
        assert profiles[0] == CROSSREF_PROFILE
        assert profiles[1] == "http://bibtex.org"
        assert "ris" in profiles[2].lower()


class TestParseEdgeCases:
    def test_empty_urlset(self):
        feed = parse_change_list(urlset())
        assert feed.events == ()
        assert feed.capability == "changelist"

    def test_no_root_md(self):
        feed = parse_change_list(urlset(md=""))
        assert feed.events == ()

    def test_interval_attributes(self):
        feed = parse_change_list(
            urlset(
                md='<rs:md capability="changelist" from="2016-01-01T00:00:00Z" '
                'until="2016-02-01T00:00:00Z"/>'
            )
        )
        assert feed.from_time == datetime(2016, 1, 1, tzinfo=UTC)
        assert feed.until_time == datetime(2016, 2, 1, tzinfo=UTC)

    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            parse_change_list("<urlset><url>")

    def test_wrong_root(self):
        with pytest.raises(MalformedXml):
            parse_change_list("<sitemapindex/>")

    def test_url_without_md(self):
        doc = urlset("<url><loc>http://x.example/1</loc></url>")
        with pytest.raises(MissingChangeAttribute):
            parse_change_list(doc)

    def test_md_without_change(self):
        doc = urlset(url("http://x.example/1", 'datetime="2016-01-01T00:00:00Z"'))
        with pytest.raises(MissingChangeAttribute):
            parse_change_list(doc)

    def test_unknown_change_kind(self):
        doc = urlset(
            url("http://x.example/1", 'change="destroyed" datetime="2016-01-01T00:00:00Z"')
        )
        with pytest.raises(UnknownChangeKind):
            parse_change_list(doc)

    def test_missing_datetime(self):
        doc = urlset(url("http://x.example/1", 'change="created"'))
        with pytest.raises(MalformedXml):
            parse_change_list(doc)

    def test_bad_datetime(self):
        doc = urlset(url("http://x.example/1", 'change="created" datetime="yesterday"'))
        with pytest.raises(MalformedXml):
            parse_change_list(doc)

    @pytest.mark.parametrize("bad", ["\t", "&#10;", "&#13;", "&#133;", "&#8232;"])
    def test_loc_with_whitespace_or_control_character(self, bad):
        doc = urlset(
            url(f"http://x.example/a{bad}b", 'change="created" datetime="2016-01-01T00:00:00Z"')
        )
        with pytest.raises(MalformedXml, match="whitespace or a control character"):
            parse_change_list(doc)

    @pytest.mark.parametrize("bad", ["&#9;", "&#10;", "&#133;", "&#8232;", " ", "&#127;"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_ln_href_with_whitespace_or_control_character(self, bad, strict):
        # the href becomes a record key and a tab-separated journal field,
        # so it is held to the rule of a loc
        doc = urlset(
            url(
                "http://x.example/1",
                'change="created" datetime="2016-01-01T00:00:00Z"',
                f'<rs:ln rel="persistent-id" href="http://x.example/a{bad}b"/>',
            )
        )
        with pytest.raises(MalformedXml, match="whitespace or a control character"):
            parse_change_list(doc, strict=strict)

    def test_fixity_attributes(self):
        doc = urlset(
            url(
                "http://x.example/1",
                'change="updated" datetime="2016-01-01T00:00:00Z" '
                'hash="sha-256:'
                + "ab" * 32
                + '" length="17"',
            )
        )
        event = parse_change_list(doc).events[0]
        assert event.fixity == FixityInfo("sha-256", "ab" * 32, 17)

    def test_ln_without_href(self):
        doc = urlset(
            url(
                "http://x.example/1",
                'change="created" datetime="2016-01-01T00:00:00Z"',
                '<rs:ln rel="describedby"/>',
            )
        )
        with pytest.raises(MalformedXml):
            parse_change_list(doc)

    def test_ln_type_that_is_no_media_type_is_kept_as_an_extra(self):
        doc = urlset(
            url(
                "http://x.example/1",
                'change="created" datetime="2016-01-01T00:00:00Z"',
                '<rs:ln rel="item" href="http://x.example/a" type="not a type"/>',
            )
        )
        link = parse_change_list(doc).events[0].links.links[0]
        assert link.attrs.media_type is None
        assert link.attrs.extra == (("type", "not a type"),)
        relayed = parse_change_list(emit_change_list(parse_change_list(doc)))
        assert relayed.events[0].links.links[0].attrs == link.attrs
        with pytest.raises(MalformedXml, match="not a media type"):
            parse_change_list(doc, strict=True)

    @given(value=st.text(alphabet=st.characters(blacklist_categories=("Cs",))))
    @settings(max_examples=200, deadline=None)
    def test_any_ln_type_parses_or_is_a_change_list_error(self, value):
        doc = urlset(
            url(
                "http://x.example/1",
                'change="created" datetime="2016-01-01T00:00:00Z"',
                f'<rs:ln rel="item" href="http://x.example/a" type={quoteattr(value)}/>',
            )
        ).encode("utf-8")
        for strict in (False, True):
            try:
                parse_change_list(doc, strict=strict)
            except ChangeListError:
                pass

    def test_text_with_a_lone_surrogate_is_a_change_list_error(self):
        doc = urlset(
            url("http://x.example/\ud800", 'change="created" datetime="2016-01-01T00:00:00Z"')
        )
        for strict in (False, True):
            with pytest.raises(ChangeListError):
                parse_change_list(doc, strict=strict)

    def test_multi_token_rel_expands(self):
        doc = urlset(
            url(
                "http://x.example/1",
                'change="created" datetime="2016-01-01T00:00:00Z"',
                '<rs:ln rel="describedby describes" href="http://x.example/m"/>',
            )
        )
        links = parse_change_list(doc).events[0].links
        assert len(links) == 2
        assert {link.rel.value for link in links} == {"describedby", "describes"}

    def test_unsorted_events_warn(self):
        doc = urlset(
            url("http://x.example/2", 'change="created" datetime="2016-02-01T00:00:00Z"'),
            url("http://x.example/1", 'change="created" datetime="2016-01-01T00:00:00Z"'),
        )
        with pytest.warns(FeedWarning, match="ordered"):
            feed = parse_change_list(doc)
        assert len(feed.events) == 2
        with pytest.raises(FeedViolation):
            parse_change_list(doc, strict=True)

    def test_capability_mismatch_warns(self):
        doc = urlset(md='<rs:md capability="resourcelist"/>')
        with pytest.warns(FeedWarning, match="capability"):
            parse_change_list(doc)
        with pytest.raises(FeedViolation):
            parse_change_list(doc, strict=True)

    def test_inverted_interval_warns(self):
        doc = urlset(
            md='<rs:md capability="changelist" from="2016-02-01T00:00:00Z" '
            'until="2016-01-01T00:00:00Z"/>'
        )
        with pytest.warns(FeedWarning):
            parse_change_list(doc)

    def test_deleted_with_item_link_warns(self):
        doc = urlset(
            url(
                "http://x.example/1",
                'change="deleted" datetime="2016-01-01T00:00:00Z"',
                '<rs:ln rel="item" href="http://x.example/a"/>',
            )
        )
        with pytest.warns(FeedWarning, match="deleted"):
            parse_change_list(doc)
        with pytest.raises(FeedViolation):
            parse_change_list(doc, strict=True)


class TestParseAsAStream:
    """What a reader of the whole tree gave, pinned for a reader that
    builds each entry as its ``<url>`` ends."""

    def test_a_fault_after_a_bad_url_is_still_malformed_xml(self):
        doc = urlset(
            "<url><loc>http://x.example/1</loc></url>",
            url("http://x.example/2", 'change="created" datetime="2016-01-01T00:00:00Z"'),
        )
        truncated = doc[: -len("</urlset>")]
        with pytest.raises(MissingChangeAttribute):
            parse_change_list(doc)
        for text in (truncated, truncated.encode("utf-8")):
            with pytest.raises(MalformedXml):
                parse_change_list(text)

    def test_a_str_is_read_as_utf8_whatever_it_declares(self):
        doc = urlset(
            url("http://a.example/\u00e9", 'change="created" datetime="2016-01-01T00:00:00Z"')
        ).replace('encoding="UTF-8"', 'encoding="ISO-8859-1"')
        assert parse_change_list(doc).events[0].loc == "http://a.example/\u00e9"
        # bytes are decoded as declared
        latin = parse_change_list(doc.encode("iso-8859-1"))
        assert latin.events[0].loc == "http://a.example/\u00e9"

    def test_a_url_inside_a_url_is_ignored(self):
        md = 'change="created" datetime="2016-01-01T00:00:00Z"'
        inner = url("http://x.example/inner", md)
        doc = urlset(
            f"<url><loc>http://x.example/outer</loc><rs:md {md}/>{inner}</url>",
            f"<other>{inner}</other>",
        )
        assert [event.loc for event in parse_change_list(doc).events] == [
            "http://x.example/outer"
        ]

    def test_a_root_md_after_the_urls_still_counts(self):
        doc = urlset(
            url("http://x.example/1", 'change="created" datetime="2016-01-02T00:00:00Z"'),
            '<rs:md capability="changelist" from="2016-01-01T00:00:00Z"/>',
            '<rs:md capability="resourcelist" from="2015-01-01T00:00:00Z"/>',
            md="",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            feed = parse_change_list(doc, strict=True)
        assert feed.capability == "changelist"
        assert feed.from_time == datetime(2016, 1, 1, tzinfo=UTC)
        assert [event.loc for event in feed.events] == ["http://x.example/1"]

    def test_complaints_and_the_first_bad_url_come_in_tree_order(self):
        # the root md's complaint first, though it follows the urls; then
        # each url's in order up to the first that fails; later urls unread
        doc = urlset(
            url(
                "http://x.example/2",
                'change="deleted" datetime="2016-02-01T00:00:00Z"',
                '<rs:ln rel="item" href="http://x.example/a"/>',
            ),
            url("http://x.example/1", 'change="created" datetime="2016-01-01T00:00:00Z"'),
            "<url><loc>http://x.example/3</loc></url>",
            url("http://x.example/4", 'change="destroyed" datetime="2016-01-01T00:00:00Z"'),
            '<rs:md capability="resourcelist"/>',
            md="",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(MissingChangeAttribute, match="x.example/3"):
                parse_change_list(doc)
        assert [str(w.message) for w in caught] == [
            "capability 'resourcelist', expected 'changelist'",
            "http://x.example/2: deleted event carries item links",
        ]
        with pytest.raises(FeedViolation, match="capability"):
            parse_change_list(doc, strict=True)
        ordered = doc.replace('<rs:md capability="resourcelist"/>', "")
        with pytest.raises(FeedViolation, match="deleted event"):
            parse_change_list(ordered, strict=True)

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_a_feed_longer_than_a_chunk_reads_whole(self, as_bytes):
        # non-ASCII locs of varying length put multi-byte characters
        # across the boundaries at which the text is fed
        WIDE = "\u4e2d"
        t0 = datetime(2016, 1, 1, tzinfo=UTC)
        locs = [f"http://x.example/\u00e9{WIDE * (i % 7)}/{i}" for i in range(3000)]
        doc = urlset(
            *(
                url(loc, f'change="updated" datetime="{format_rfc3339(t0 + timedelta(seconds=i))}"')
                for i, loc in enumerate(locs)
            )
        )
        assert len(doc.encode("utf-8")) > 4 * 65536
        feed = parse_change_list(doc.encode("utf-8") if as_bytes else doc)
        assert [event.loc for event in feed.events] == locs


class TestEmit:
    def test_zero_events(self):
        text = emit_change_list(ChangeList())
        feed = parse_change_list(text, strict=True)
        assert feed.events == ()
        assert feed.capability == "changelist"

    def test_golden_round_trip(self, data_dir):
        original = parse_change_list((data_dir / "publisher_event.xml").read_bytes())
        again = parse_change_list(emit_change_list(original), strict=True)
        assert again.events == original.events

    def test_emit_sorts_by_datetime(self):
        late = ChangeEvent(
            loc="http://x.example/2",
            kind=ChangeKind.CREATED,
            datetime=datetime(2016, 2, 1, tzinfo=UTC),
        )
        early = ChangeEvent(
            loc="http://x.example/1",
            kind=ChangeKind.CREATED,
            datetime=datetime(2016, 1, 1, tzinfo=UTC),
        )
        feed = parse_change_list(
            emit_change_list(ChangeList(events=(late, early))), strict=True
        )
        assert [event.loc for event in feed.events] == [
            "http://x.example/1",
            "http://x.example/2",
        ]

    def test_emit_refuses_deleted_with_items(self):
        links = parse_link_field('<http://x.example/a>; rel="item"')
        event = ChangeEvent(
            loc="http://x.example/1",
            kind=ChangeKind.DELETED,
            datetime=datetime(2016, 1, 1, tzinfo=UTC),
            links=links,
        )
        with pytest.raises(FeedViolation):
            emit_change_list(ChangeList(events=(event,)))

    def test_emit_refuses_an_extra_that_would_retarget_the_link(self):
        links = parse_link_field(
            "<http://x.example/a>; rel=item; type=text/html; type=application/pdf; "
            'href="http://evil.example/"'
        )
        assert links.links[0].attrs.extra == (("href", "http://evil.example/"),)
        event = ChangeEvent(
            loc="http://x.example/1",
            kind=ChangeKind.CREATED,
            datetime=datetime(2016, 1, 1, tzinfo=UTC),
            links=links,
        )
        with pytest.raises(FeedViolation, match="'href'"):
            emit_change_list(ChangeList(events=(event,)))

    @pytest.mark.parametrize(
        "target",
        [
            "http://a.example/a b",
            "http://a.example/\tb",
            "http://a.example/\u2028",
            "",
            # XML 1.0 excludes these: written, the feed would not parse
            "http://a.example/\ufffe",
            "http://a.example/\ud800",
        ],
    )
    def test_emit_refuses_a_link_target_the_reader_refuses(self, target):
        event = ChangeEvent(
            loc="http://x.example/1",
            kind=ChangeKind.CREATED,
            datetime=datetime(2016, 1, 1, tzinfo=UTC),
            links=LinkSet((TypedLink(target=target, rel=ITEM),)),
        )
        with pytest.raises(FeedViolation, match="href"):
            emit_change_list(ChangeList(events=(event,)))
        with pytest.raises(FeedViolation, match="href"):
            pack_change_dump([(event, b"x")])

    @pytest.mark.parametrize(
        "loc",
        [
            "http://x.example/a\tb",
            "http://x.example/a b",
            " http://x.example/1",
            "http://x.example/\uffff",
        ],
    )
    def test_emit_refuses_a_loc_the_reader_refuses(self, loc):
        event = ChangeEvent(
            loc=loc, kind=ChangeKind.CREATED, datetime=datetime(2016, 1, 1, tzinfo=UTC)
        )
        with pytest.raises(FeedViolation, match="loc"):
            emit_change_list(ChangeList(events=(event,)))
        with pytest.raises(FeedViolation, match="loc"):
            pack_change_dump([(event, b"x")])

    def test_emit_refuses_inverted_interval(self):
        feed = ChangeList(
            from_time=datetime(2016, 2, 1, tzinfo=UTC),
            until_time=datetime(2016, 1, 1, tzinfo=UTC),
        )
        with pytest.raises(FeedViolation):
            emit_change_list(feed)

    def test_subsecond_input_truncated(self):
        event = ChangeEvent(
            loc="http://x.example/1",
            kind=ChangeKind.UPDATED,
            datetime=datetime(2016, 1, 1, 12, 0, 0, 500_000, tzinfo=UTC),
        )
        feed = parse_change_list(emit_change_list(ChangeList(events=(event,))))
        assert feed.events[0].datetime == datetime(2016, 1, 1, 12, 0, 0, tzinfo=UTC)

    def test_random_round_trips(self):
        rng = random.Random(20160317)
        for _ in range(200):
            original = random_change_list(rng)
            again = parse_change_list(emit_change_list(original), strict=True)
            assert again.events == original.events
            assert again.from_time == original.from_time
            assert again.until_time == original.until_time


class TestRegistrarEvent:
    def test_matches_golden_payload(self, data_dir):
        work = CrossRefWork(
            doi="10.1371/journal.pone.0115253",
            deposited=datetime(2014, 12, 26, tzinfo=UTC),
        )
        emitted = emit_registrar_event(work)
        golden = parse_change_list((data_dir / "registrar_event.xml").read_bytes())
        assert emitted == golden.events[0]

    def test_datetime_is_deposited(self, data_dir):
        work = CrossRefWork(
            doi="10.5/x", deposited=datetime(2016, 3, 17, 19, 58, 50, tzinfo=UTC)
        )
        assert emit_registrar_event(work).datetime == work.deposited

    def test_uppercase_doi_lowercased_in_loc(self):
        work = CrossRefWork(
            doi="10.1029/JD094iD06p08425",
            deposited=datetime(2016, 3, 17, tzinfo=UTC),
        )
        event = emit_registrar_event(work)
        assert event.loc == "http://dx.doi.org/10.1029/jd094id06p08425"
        assert event.links.first(DESCRIBEDBY).target.endswith(
            "/works/10.1029/jd094id06p08425"
        )

    def test_deleted_carries_no_links(self):
        work = CrossRefWork(doi="10.5/x", deposited=datetime(2016, 1, 1, tzinfo=UTC))
        event = emit_registrar_event(work, ChangeKind.DELETED)
        assert event.kind is ChangeKind.DELETED
        assert len(event.links) == 0

    def test_missing_doi(self):
        work = CrossRefWork(doi="", deposited=datetime(2016, 1, 1, tzinfo=UTC))
        with pytest.raises(MissingDoi):
            emit_registrar_event(work)

    def test_missing_deposited(self):
        with pytest.raises(ValueError):
            emit_registrar_event(CrossRefWork(doi="10.5/x"))


@pytest.fixture(scope="module")
def plos_object(data_dir):
    links = parse_link_field((data_dir / "entry_head_link.txt").read_text().strip())
    return object_from_links(ENTRY_URI, links, entry_media_type="text/html")


class TestPublisherEvent:
    def test_matches_golden_link_for_link(self, data_dir, plos_object):
        emitted = emit_publisher_event(
            plos_object, ChangeKind.CREATED, datetime(2014, 12, 26, tzinfo=UTC)
        )
        golden = parse_change_list((data_dir / "publisher_event.xml").read_bytes())
        expected = golden.events[0]
        assert emitted.loc == expected.loc
        assert emitted.kind is expected.kind
        assert emitted.datetime == expected.datetime
        got = [
            (l.rel, l.target, l.attrs.media_type, l.attrs.profile, l.attrs.sem_type)
            for l in emitted.links
        ]
        want = [
            (l.rel, l.target, l.attrs.media_type, l.attrs.profile, l.attrs.sem_type)
            for l in expected.links
        ]
        assert got == want

    def test_no_bibliographic_resources(self):
        links = parse_link_field(
            '<info:eu-repo/semantics/article>; rel="type", '
            '<http://x.example/a.pdf>; rel="item"; type="application/pdf"'
        )
        obj = object_from_links("http://x.example/1", links)
        event = emit_publisher_event(obj, ChangeKind.CREATED, datetime(2016, 1, 1, tzinfo=UTC))
        assert event.links.select(DESCRIBEDBY) == ()

    def test_deleted_suppresses_items(self, plos_object):
        event = emit_publisher_event(
            plos_object, ChangeKind.DELETED, datetime(2016, 1, 1, tzinfo=UTC)
        )
        assert event.links.select(ITEM) == ()
        # still announces what was deleted
        assert event.links.first(PERSISTENT_ID).target == DOI_URI
        parse_change_list(emit_change_list(ChangeList(events=(event,))), strict=True)

    def test_composition_reconstructs_boundary(self, plos_object):
        event = emit_publisher_event(
            plos_object, ChangeKind.UPDATED, datetime(2016, 1, 1, tzinfo=UTC)
        )
        relayed = parse_change_list(emit_change_list(ChangeList(events=(event,))))
        rebuilt = object_from_links(relayed.events[0].loc, relayed.events[0].links)
        assert rebuilt.publication_uris == plos_object.publication_uris
        assert rebuilt.identifying_uri == plos_object.identifying_uri
        assert [b.uri for b in rebuilt.bibliographic_resources] == [
            b.uri for b in plos_object.bibliographic_resources
        ]


class TestResourceEvent:
    def test_shape(self):
        event = emit_resource_event(
            "http://x.example/a.pdf",
            entry_uri="http://x.example/1",
            when=datetime(2016, 1, 1, tzinfo=UTC),
            identifying_uri="http://dx.doi.org/10.5/x",
            sem_type="info:eu-repo/semantics/article",
            fixity=compute_fixity(b"body"),
        )
        assert event.loc == "http://x.example/a.pdf"
        assert event.kind is ChangeKind.UPDATED
        assert event.links.first(TYPE).target == "info:eu-repo/semantics/article"
        collection = [l for l in event.links if l.rel.value == "collection"]
        assert [l.target for l in collection] == ["http://x.example/1"]
        assert event.links.first(PERSISTENT_ID).target == "http://dx.doi.org/10.5/x"

    def test_round_trips(self):
        event = emit_resource_event(
            "http://x.example/a.pdf",
            entry_uri="http://x.example/1",
            when=datetime(2016, 1, 1, tzinfo=UTC),
        )
        feed = parse_change_list(emit_change_list(ChangeList(events=(event,))), strict=True)
        assert feed.events == (event,)


def _created(loc, when, **kwargs):
    return ChangeEvent(loc=loc, kind=ChangeKind.CREATED, datetime=when, **kwargs)


class TestChangeDump:
    def test_round_trip_two_payloads(self):
        t0 = datetime(2016, 1, 1, tzinfo=UTC)
        entries = [
            (_created("http://x.example/1", t0), b"alpha"),
            (_created("http://x.example/2", t0 + timedelta(hours=1)), b"beta"),
        ]
        manifest, payloads = unpack_change_dump(pack_change_dump(entries))
        assert [event.loc for _, event in manifest.entries] == [
            "http://x.example/1",
            "http://x.example/2",
        ]
        paths = [path for path, _ in manifest.entries]
        assert payloads[paths[0]] == b"alpha"
        assert payloads[paths[1]] == b"beta"

    def test_deleted_entry_has_no_payload(self):
        t0 = datetime(2016, 1, 1, tzinfo=UTC)
        entries = [
            (_created("http://x.example/1", t0), b"alpha"),
            (
                ChangeEvent(
                    loc="http://x.example/2",
                    kind=ChangeKind.DELETED,
                    datetime=t0 + timedelta(hours=1),
                ),
                None,
            ),
        ]
        manifest, payloads = unpack_change_dump(pack_change_dump(entries))
        assert manifest.entries[1][0] is None
        assert len(payloads) == 1

    def test_missing_payload(self):
        entries = [(_created("http://x.example/1", datetime(2016, 1, 1, tzinfo=UTC)), None)]
        with pytest.raises(MissingPayload):
            pack_change_dump(entries)

    def test_deleted_with_payload(self):
        event = ChangeEvent(
            loc="http://x.example/1",
            kind=ChangeKind.DELETED,
            datetime=datetime(2016, 1, 1, tzinfo=UTC),
        )
        with pytest.raises(FeedViolation):
            pack_change_dump([(event, b"ghost")])

    def test_fixity_added_and_verifies(self):
        entries = [(_created("http://x.example/1", datetime(2016, 1, 1, tzinfo=UTC)), b"alpha")]
        manifest, payloads = unpack_change_dump(pack_change_dump(entries))
        path, event = manifest.entries[0]
        assert event.fixity is not None
        assert event.fixity.algorithm == "sha-256"
        assert verify_fixity(payloads[path], event.fixity).ok

    def test_tamper_detected(self):
        entries = [(_created("http://x.example/1", datetime(2016, 1, 1, tzinfo=UTC)), b"alpha")]
        manifest, payloads = unpack_change_dump(pack_change_dump(entries))
        path, event = manifest.entries[0]
        body = bytearray(payloads[path])
        body[0] ^= 0x01
        verdict = verify_fixity(bytes(body), event.fixity)
        assert not verdict.ok
        assert "digest" in verdict.reason

    def test_corrupt_archive(self):
        with pytest.raises(CorruptArchive):
            unpack_change_dump(b"this is not a zip")

    def test_archive_without_manifest(self):
        import io

        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            archive.writestr("resources/0000.dat", b"alpha")
        with pytest.raises(CorruptArchive):
            unpack_change_dump(buffer.getvalue())

    def test_manifest_references_missing_file(self):
        import io

        entries = [(_created("http://x.example/1", datetime(2016, 1, 1, tzinfo=UTC)), b"alpha")]
        blob = pack_change_dump(entries)
        source = zipfile.ZipFile(io.BytesIO(blob))
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as trimmed:
            trimmed.writestr("manifest.xml", source.read("manifest.xml"))
        with pytest.raises(CorruptArchive):
            unpack_change_dump(buffer.getvalue())

    def test_deterministic_bytes(self):
        t0 = datetime(2016, 1, 1, tzinfo=UTC)
        entries = [
            (_created("http://x.example/1", t0), b"alpha"),
            (_created("http://x.example/2", t0 + timedelta(hours=1)), b"beta"),
        ]
        assert pack_change_dump(entries) == pack_change_dump(entries)

    def test_random_round_trips(self):
        rng = random.Random(19991231)
        for _ in range(50):
            entries = random_dump_entries(rng)
            blob = pack_change_dump(entries, add_fixity=False)
            manifest, payloads = unpack_change_dump(blob)
            assert len(manifest.entries) == len(entries)
            unpacked = sorted(
                (event for _, event in manifest.entries), key=lambda e: (e.datetime, e.loc)
            )
            packed = sorted(
                (event for event, _ in entries), key=lambda e: (e.datetime, e.loc)
            )
            assert unpacked == packed
            by_loc = {
                event.loc: path for path, event in manifest.entries if path is not None
            }
            for event, payload in entries:
                if payload is not None:
                    assert payloads[by_loc[event.loc]] == payload

    def test_verify_all_random_payloads(self):
        rng = random.Random(77)
        entries = [
            (entry, payload)
            for entry, payload in random_dump_entries(rng, max_entries=10)
            if payload is not None
        ]
        if not entries:
            entries = [(_created("http://x.example/1", datetime(2016, 1, 1, tzinfo=UTC)), b"x")]
        manifest, payloads = unpack_change_dump(pack_change_dump(entries))
        for path, event in manifest.entries:
            assert verify_fixity(payloads[path], event.fixity).ok


# the member names pack_change_dump gives _two_entry_dump's payloads
_A, _B = "resources/0000.dat", "resources/0001.dat"


def _two_entry_dump():
    t0 = datetime(2016, 1, 1, tzinfo=UTC)
    entries = [
        (_created("http://x.example/1", t0), b"alpha"),
        (_created("http://x.example/2", t0 + timedelta(hours=1)), b"beta"),
    ]
    return pack_change_dump(entries)


def _rezip(blob, change):
    """Copy of the archive ``blob`` with each member passed through
    ``change(name, data)``; a member for which it returns None is dropped."""
    source = zipfile.ZipFile(io.BytesIO(blob))
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as out:
        for info in source.infolist():
            data = change(info.filename, source.read(info.filename))
            if data is not None:
                out.writestr(info.filename, data)
    return buffer.getvalue()


def _colliding_dump():
    blob = _two_entry_dump()
    return _rezip(
        blob,
        lambda name, data: data.replace(f'path="{_B}"'.encode(), f'path="{_A}"'.encode())
        if name == "manifest.xml"
        else data,
    )


class TestChangeDumpIndex:
    def test_lookups_without_reading_members(self, tmp_path, monkeypatch):
        path = tmp_path / "dump.zip"
        path.write_bytes(_two_entry_dump())
        reads = []
        read = zipfile.ZipFile.read
        monkeypatch.setattr(
            zipfile.ZipFile, "read", lambda self, name: reads.append(name) or read(self, name)
        )
        with ChangeDumpIndex(path) as index:
            assert reads == ["manifest.xml"]
            member, event = index.entry("http://x.example/2")
            assert member == _B
            assert event.loc == "http://x.example/2"
            assert index.entry("http://x.example/3") is None
            assert reads == ["manifest.xml"]
            assert index.read(member) == b"beta"
        assert reads == ["manifest.xml", _B]

    def test_agrees_with_unpack(self):
        blob = _two_entry_dump()
        manifest, payloads = unpack_change_dump(blob)
        with ChangeDumpIndex(io.BytesIO(blob)) as index:
            assert index.manifest == manifest
            assert {path: index.read(path) for path in payloads} == payloads

    def test_entry_media_type_from_collection_backlinks(self):
        t0 = datetime(2016, 1, 1, tzinfo=UTC)
        entry = "http://x.example/entry"

        def member(loc, media_type):
            backlink = TypedLink(
                target=entry,
                rel=RelationType("collection"),
                attrs=LinkAttributes(media_type=media_type),
                source=loc,
            )
            return _created(loc, t0, links=LinkSet((backlink,)))

        blob = pack_change_dump(
            [
                (member("http://x.example/a", None), b"a"),
                (member("http://x.example/b", "application/xhtml+xml"), b"b"),
                (member("http://x.example/c", "text/html"), b"c"),
            ]
        )
        with ChangeDumpIndex(io.BytesIO(blob)) as index:
            # the first typed backlink in manifest order wins
            assert index.entry_media_type(entry) == "application/xhtml+xml"
            assert index.entry_media_type("http://x.example/other") is None

    @pytest.mark.parametrize(
        "make,error",
        [
            (lambda: b"this is not a zip", CorruptArchive),
            (lambda: _two_entry_dump()[:-40], CorruptArchive),
            (
                lambda: _rezip(
                    _two_entry_dump(), lambda name, data: None if name == "manifest.xml" else data
                ),
                CorruptArchive,
            ),
            (
                lambda: _rezip(
                    _two_entry_dump(),
                    lambda name, data: None if name == _B else data,
                ),
                CorruptArchive,
            ),
            (_colliding_dump, ManifestPathCollision),
        ],
        ids=["bad-zip", "truncated", "no-manifest", "missing-member", "path-collision"],
    )
    def test_rejects_what_unpack_rejects(self, make, error, tmp_path):
        blob = make()
        with pytest.raises(error):
            unpack_change_dump(blob)
        with pytest.raises(error):
            ChangeDumpIndex(io.BytesIO(blob))
        path = tmp_path / "dump.zip"
        path.write_bytes(blob)
        with pytest.raises(error):
            ChangeDumpIndex(path)

    def test_damaged_member_is_a_corrupt_archive(self):
        # _rezip stores members uncompressed, so the payload bytes are in plain sight
        stored = _rezip(_two_entry_dump(), lambda name, data: data)
        damaged = stored.replace(b"alpha", b"alphA")
        with ChangeDumpIndex(io.BytesIO(damaged)) as index:
            assert index.read(_B) == b"beta"
            with pytest.raises(CorruptArchive):
                index.read(_A)

    def test_closes_what_it_opened(self, tmp_path):
        path = tmp_path / "dump.zip"
        path.write_bytes(_two_entry_dump())
        with ChangeDumpIndex(path) as index:
            assert index.read(_A) == b"alpha"
        with pytest.raises(ValueError, match="closed"):
            index.read(_A)
        handle = io.BytesIO(path.read_bytes())
        with ChangeDumpIndex(handle) as index:
            pass
        assert not handle.closed

    def test_closes_the_file_when_the_manifest_is_bad(self, tmp_path):
        path = tmp_path / "dump.zip"
        path.write_bytes(_colliding_dump())
        with pytest.raises(ManifestPathCollision) as caught:
            ChangeDumpIndex(path)
        # the traceback still holds the half-built index and its archive
        index = caught.traceback[-1].frame.f_locals["self"]
        with pytest.raises(ValueError, match="closed"):
            index.read(_A)


class TestFixity:
    EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    def test_empty_payload_known_digest(self):
        info = compute_fixity(b"")
        assert info.digest == self.EMPTY_SHA256
        assert verify_fixity(b"", info).ok
        assert verify_fixity(b"", FixityInfo("sha-256", self.EMPTY_SHA256, 0)).ok

    def test_correct_digest_wrong_length(self):
        info = FixityInfo("sha-256", self.EMPTY_SHA256, 1)
        verdict = verify_fixity(b"", info)
        assert not verdict.ok
        assert verdict.reason == "length-mismatch"

    def test_unsupported_algorithm(self):
        # recording an exotic algorithm is fine; verifying it is not
        info = FixityInfo("sha-512", "00" * 64, None)
        with pytest.raises(UnsupportedAlgorithm):
            verify_fixity(b"", info)
        with pytest.raises(UnsupportedAlgorithm):
            compute_fixity(b"", algorithm="sha-512")

    def test_md5_token(self):
        info = compute_fixity(b"alpha", algorithm="md5")
        assert info.token.startswith("md5:")
        assert len(info.digest) == 32
        assert verify_fixity(b"alpha", info).ok

    @given(payload=st.binary(max_size=512))
    @settings(max_examples=100)
    def test_verify_of_computed_always_passes(self, payload):
        for algorithm in ("md5", "sha-256"):
            assert verify_fixity(payload, compute_fixity(payload, algorithm)).ok

    @pytest.mark.parametrize("algorithm", ["sha-256", "md5", "crc32"])
    @pytest.mark.parametrize("digest", ["g" * 64, "", "\u0663", "\u0663" * 64, "ab" * 31 + " a"])
    def test_non_hex_digests_rejected(self, algorithm, digest):
        with pytest.raises(ValueError, match="not hex"):
            FixityInfo(algorithm, digest)

    def test_upper_case_digest_is_folded(self):
        info = FixityInfo("SHA-256", self.EMPTY_SHA256.upper())
        assert (info.algorithm, info.digest) == ("sha-256", self.EMPTY_SHA256)

    def test_known_sha256_is_trusted_not_recomputed(self):
        info = FixityInfo("sha-256", self.EMPTY_SHA256, 0)
        assert verify_fixity(b"", info, sha256=self.EMPTY_SHA256).ok
        verdict = verify_fixity(b"", info, sha256="00" * 32)
        assert (verdict.ok, verdict.reason) == (False, "digest-mismatch")
        # the length is still checked first
        verdict = verify_fixity(b"x", info, sha256=self.EMPTY_SHA256)
        assert verdict.reason == "length-mismatch"

    def test_known_sha256_is_ignored_for_other_algorithms(self):
        info = compute_fixity(b"alpha", algorithm="md5")
        assert verify_fixity(b"alpha", info, sha256="00" * 32).ok
        assert not verify_fixity(b"beta", info, sha256="00" * 32).ok


# ----------------------------------------------------- parse parity

# a vocabulary with aliases: parsing rewrites each persistent-id alias to
# "persistent-id" and reads each sem-type alias as the sem-type attribute
_VOCABULARY = Vocabulary(
    persistent_id_rels=("persistent-id", "cite-as", "Identifier"),
    sem_type_params=("sem-type", "semType", "kind"),
)
# unknown attributes, clear of the known ones and of the sem-type aliases;
# XML attribute names are case-sensitive, so "Type" and "Rel" are unknown
_EXTRA_NAMES = ["anchor", "hreflang", "title", "x-note", "Type", "Rel"]
# names a reader of rs:ln takes as the link's own, sem-type aliases included
_LN_NAMES = [
    "rel", "href", "type", "profile", "hash", "length", "modified", "path", "pri",
    "sem-type", "semType", "kind",
]
_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + " .,:;/()'\"\\=<>?&-_\u00e9\u65e5", max_size=12
)


def _mixed_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper))
    )


_RELS = st.one_of(
    st.sampled_from(
        ["item", "collection", "describedby", "describes", "type", "persistent-id",
         "cite-as", "identifier", "ext-note"]
    ).flatmap(_mixed_case),
    st.integers(0, 99).map(lambda n: f"http://rel.example/Rel{n}"),
)


@st.composite
def _links(draw, loc, rels=_RELS, extra_names=_EXTRA_NAMES):
    names = draw(st.lists(st.sampled_from(extra_names), max_size=3, unique=True))
    attrs = link_attributes(
        draw(st.none() | st.sampled_from(["application/pdf", "Text/HTML", "application/ld+json"])),
        draw(st.none() | st.integers(0, 9).map(lambda n: f"http://profile.example/p{n}")),
        draw(st.none() | st.sampled_from(["info:eu-repo/semantics/article", "Dataset"])),
        tuple((name, draw(_TEXT)) for name in names),
    )
    return TypedLink(
        target=f"http://host.example/res/{draw(st.integers(0, 999))}",
        rel=relation_type(draw(rels)),
        attrs=attrs,
        source=loc,
    )


def _fixities():
    return st.builds(
        lambda payload, algorithm, with_length: compute_fixity(
            payload, algorithm, with_length=with_length
        ),
        st.binary(max_size=16),
        st.sampled_from(["md5", "sha-256"]),
        st.booleans(),
    ).map(lambda f: FixityInfo(f.algorithm.upper(), f.digest.upper(), f.length))


@st.composite
def _events(draw, kinds=tuple(ChangeKind), extra_names=_EXTRA_NAMES):
    loc = f"http://host{draw(st.integers(0, 9))}.example/res/{draw(st.integers(0, 99999))}"
    kind = draw(st.sampled_from(kinds))
    when = datetime(2000, 1, 1, tzinfo=UTC) + timedelta(seconds=draw(st.integers(0, 10**9)))
    if kind is ChangeKind.DELETED:
        # a deleted event carries no item links
        not_item = _RELS.filter(lambda rel: rel.casefold() != "item")
        links = draw(st.lists(_links(loc, not_item, extra_names), max_size=2))
        return ChangeEvent(loc=loc, kind=kind, datetime=when, links=LinkSet(tuple(links)))
    links = draw(st.lists(_links(loc, extra_names=extra_names), max_size=4))
    fixity = draw(st.none() | _fixities())
    return ChangeEvent(
        loc=loc, kind=kind, datetime=when, links=LinkSet(tuple(links)), fixity=fixity
    )


def _as_parsed(event):
    """What parsing ``event``'s XML must give, in a comparable form: alias
    rels come back in their canonical spelling, links as their JSON."""
    links = LinkSet(
        tuple(
            replace(link, rel=RelationType(_VOCABULARY.canonical_rel_token(link.rel.value)))
            for link in event.links
        )
    )
    return (event.loc, event.kind, event.datetime, event.fixity, links.to_json_dict())


def _comparable(event):
    return (event.loc, event.kind, event.datetime, event.fixity, event.links.to_json_dict())


@given(_links("http://host.example/entry"))
@settings(max_examples=150, deadline=None)
def test_a_link_round_trips_through_its_json(link):
    assert TypedLink.from_json_dict(link.to_json_dict()) == link


def _upper_hashes(xml):
    """``xml`` with every hash attribute's value in upper case."""
    return re.sub(rb'(hash=")([^"]*)', lambda m: m.group(1) + m.group(2).upper(), xml)


class TestParseParity:
    @given(events=st.lists(_events(), max_size=6), bounded=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_change_list_round_trips(self, events, bounded):
        ordered = sorted(events, key=lambda e: e.datetime)
        from_time = until_time = None
        if bounded and ordered:
            from_time = ordered[0].datetime - timedelta(hours=1)
            until_time = ordered[-1].datetime + timedelta(hours=1)
        original = ChangeList(events=tuple(events), from_time=from_time, until_time=until_time)
        xml = _upper_hashes(emit_change_list(original, vocabulary=_VOCABULARY).encode())
        parsed = parse_change_list(xml, strict=True, vocabulary=_VOCABULARY)
        assert [_comparable(e) for e in parsed.events] == [_as_parsed(e) for e in ordered]
        assert (parsed.from_time, parsed.until_time) == (from_time, until_time)

    @given(events=st.lists(_events(extra_names=_EXTRA_NAMES + _LN_NAMES), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_an_extra_never_changes_a_relayed_link(self, events):
        """An extra named like an rs:ln attribute is refused, or it comes
        back as itself."""
        try:
            xml = emit_change_list(ChangeList(events=tuple(events)), vocabulary=_VOCABULARY)
        except FeedViolation:
            extras = {name for e in events for link in e.links for name, _ in link.attrs.extra}
            assert extras & set(_LN_NAMES)
            return
        parsed = parse_change_list(_upper_hashes(xml.encode()), vocabulary=_VOCABULARY)
        ordered = sorted(events, key=lambda e: e.datetime)
        assert [_comparable(e) for e in parsed.events] == [_as_parsed(e) for e in ordered]

    @given(
        entries=st.lists(
            _events().flatmap(
                lambda event: st.tuples(
                    st.just(event),
                    st.none() if event.kind is ChangeKind.DELETED else st.binary(max_size=32),
                )
            ),
            min_size=1,
            max_size=5,
            unique_by=lambda entry: entry[0].loc,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_change_dump_manifest_round_trips(self, entries):
        blob = _rezip(
            pack_change_dump(entries, vocabulary=_VOCABULARY),
            lambda name, data: _upper_hashes(data) if name == "manifest.xml" else data,
        )
        expected = []
        for index, (event, payload) in enumerate(entries):
            if payload is None:
                expected.append((None, _as_parsed(event)))
                continue
            if event.fixity is None:
                event = replace(event, fixity=compute_fixity(payload))
            expected.append((f"resources/{index:04d}.dat", _as_parsed(event)))
        expected.sort(key=lambda pair: pair[1][2])
        with ChangeDumpIndex(io.BytesIO(blob), strict=True, vocabulary=_VOCABULARY) as index:
            got = [(path, _comparable(event)) for path, event in index.manifest.entries]
        assert got == expected


class TestHostileFeedBounds:
    def test_distinct_rels_and_media_types_keep_the_caches_bounded(self):
        count = 5000
        lns = "".join(
            f'<rs:ln rel="rel-{i}" href="http://x.example/{i}" type="application/x-{i}"/>'
            for i in range(count)
        )
        md = 'change="created" datetime="2016-01-01T00:00:00Z"'
        feed = parse_change_list(urlset(url("http://x.example/e", md, lns)))
        links = feed.events[0].links.links
        assert len(links) == count
        assert [(l.rel.value, l.attrs.media_type) for l in links[-2:]] == [
            (f"rel-{count - 2}", f"application/x-{count - 2}"),
            (f"rel-{count - 1}", f"application/x-{count - 1}"),
        ]
        for cache in (relation_type, link_attributes):
            info = cache.cache_info()
            assert info.maxsize is not None and info.maxsize < count
            assert info.currsize <= info.maxsize

    def test_a_long_change_list_is_read_without_its_tree(self):
        # beyond the events it returns, the parse holds one chunk's
        # elements at a time; a whole tree costs over a KiB an entry
        t0 = datetime(2016, 1, 1, tzinfo=UTC)
        count = 20000
        doc = urlset(
            *(
                url(
                    f"http://x.example/{i}",
                    f'change="created" datetime="{format_rfc3339(t0 + timedelta(seconds=i))}"',
                    f'<rs:ln rel="item" href="http://x.example/{i}.pdf" type="application/pdf"/>',
                )
                for i in range(count)
            )
        )
        tracemalloc.start()
        try:
            feed = parse_change_list(doc)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(feed.events) == count
        assert peak - retained < 4 * 2**20

    def test_a_dump_index_opens_within_its_manifest_and_a_bound(self):
        t0 = datetime(2016, 1, 1, tzinfo=UTC)
        count = 20000
        manifest = urlset(
            *(
                url(
                    f"http://x.example/{i}",
                    f'change="deleted" datetime="{format_rfc3339(t0 + timedelta(seconds=i))}"',
                )
                for i in range(count)
            ),
            md='<rs:md capability="changedump-manifest"/>',
        ).encode("utf-8")
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("manifest.xml", manifest)
        tracemalloc.start()
        try:
            index = ChangeDumpIndex(io.BytesIO(buffer.getvalue()))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with index:
            assert len(index.manifest.entries) == count
        # the manifest's bytes are read whole; its tree never is
        assert peak - retained < len(manifest) + 4 * 2**20
