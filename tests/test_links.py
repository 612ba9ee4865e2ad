import random
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_link_set
from sgp.links import (
    _BAD_TARGET,
    COLLECTION,
    DESCRIBEDBY,
    ITEM,
    PERSISTENT_ID,
    TYPE,
    InvalidBase,
    LinkAttributes,
    LinkSet,
    MalformedLinkField,
    RelationType,
    DEFAULT_VOCABULARY,
    TypedLink,
    Vocabulary,
    link_attributes,
    parse_link_field,
    relation_type,
    resolve_targets,
    select,
    serialize_link_field,
)

DOI = "10.1371/journal.pone.0115253"
ENTRY = f"http://journals.plos.org/plosone/article?id={DOI}"


def load(data_dir, name):
    return (data_dir / name).read_text()


class TestGoldenHeaders:
    def test_doi_head_single_describedby(self, data_dir):
        links = parse_link_field(load(data_dir, "doi_head_link.txt"))
        assert len(links) == 1
        (link,) = links
        assert link.rel == DESCRIBEDBY
        assert link.target == f"http://api.crossref.org/works/{DOI}"
        assert link.attrs.media_type == "application/json"
        assert link.attrs.profile == "https://github.com/CrossRef/rest-api-doc"
        assert link.attrs.sem_type is None

    def test_entry_head_eight_links(self, data_dir):
        links = parse_link_field(load(data_dir, "entry_head_link.txt"))
        assert len(links) == 8
        assert [l.rel.value for l in links] == [
            "type",
            "persistent-id",
            "item",
            "item",
            "item",
            "describedby",
            "describedby",
            "describedby",
        ]

    def test_entry_head_type_and_id(self, data_dir):
        links = parse_link_field(load(data_dir, "entry_head_link.txt"))
        assert links.targets(TYPE) == ("info:eu-repo/semantics/article",)
        assert links.targets(PERSISTENT_ID) == (f"http://dx.doi.org/{DOI}",)

    def test_entry_head_items(self, data_dir):
        links = parse_link_field(load(data_dir, "entry_head_link.txt"))
        items = select(links, ITEM)
        assert [i.target for i in items] == [
            f"http://journals.plos.org/plosone/article/asset?id={DOI}.PDF",
            f"http://journals.plos.org/plosone/article/asset?id={DOI}.XML",
            "http://journals.plos.org/plosone/article/asset"
            f"?unique&id=info:doi/{DOI}.s012",
        ]
        assert [i.attrs.media_type for i in items] == [
            "application/pdf",
            "application/xml",
            "text/html",
        ]
        assert [i.attrs.sem_type for i in items] == [
            "info:eu-repo/semantics/article",
            "info:eu-repo/semantics/article",
            "info:eu-repo/semantics/objectFile",
        ]

    def test_entry_head_describedby(self, data_dir):
        links = parse_link_field(load(data_dir, "entry_head_link.txt"))
        descs = select(links, DESCRIBEDBY)
        assert [(d.target, d.attrs.media_type, d.attrs.profile) for d in descs] == [
            (
                f"http://api.crossref.org/works/{DOI}",
                "application/json",
                "https://github.com/CrossRef/rest-api-doc",
            ),
            (
                f"http://journals.plos.org/plosone/article/citation/bibtex?id={DOI}",
                "text/plain",
                "http://bibtex.org",
            ),
            (
                f"http://journals.plos.org/plosone/article/citation/ris?id={DOI}",
                "text/plain",
                "https://en.wikipedia.org/wiki/RIS_(file_format)",
            ),
        ]

    def test_pdf_head_three_links(self, data_dir):
        links = parse_link_field(load(data_dir, "pdf_head_link.txt"))
        assert len(links) == 3
        assert links.targets(TYPE) == ("info:eu-repo/semantics/article",)
        assert links.targets(PERSISTENT_ID) == (f"http://dx.doi.org/{DOI}",)
        (coll,) = select(links, COLLECTION)
        assert coll.target == ENTRY
        assert coll.attrs.media_type == "text/html"
        assert coll.attrs.sem_type == "info:eu-repo/semantics/article"


class TestParsing:
    def test_empty_field(self):
        assert parse_link_field("") == LinkSet()
        assert parse_link_field("   ") == LinkSet()

    def test_bare_commas_skipped(self):
        links = parse_link_field(', , <http://a.example/>; rel=item ,')
        assert len(links) == 1

    def test_unquoted_values(self):
        (link,) = parse_link_field("<http://a.example/x>; rel=item; type=text/html")
        assert link.rel == ITEM
        assert link.attrs.media_type == "text/html"

    def test_multi_token_rel_expands(self):
        links = parse_link_field('<http://a.example/>; rel="item collection"; type=text/html')
        assert [l.rel.value for l in links] == ["item", "collection"]
        # both carry the shared attribute record
        assert all(l.attrs.media_type == "text/html" for l in links)

    def test_rel_case_insensitive_select(self):
        (link,) = parse_link_field('<http://a.example/>; rel="Item"')
        assert link.rel == ITEM
        assert select([link], "ITEM") == (link,)

    def test_extension_rel_uri_exact(self):
        (link,) = parse_link_field('<http://a.example/>; rel="http://rel.example/R"')
        assert link.rel == RelationType("http://rel.example/R")
        assert link.rel != RelationType("http://rel.example/r")

    def test_unknown_params_preserved_in_order(self):
        (link,) = parse_link_field(
            '<http://a.example/>; rel=item; hreflang=en; x-note="a b"; title'
        )
        assert link.attrs.extra == (("hreflang", "en"), ("x-note", "a b"), ("title", None))

    def test_duplicate_known_params_demoted(self):
        (link,) = parse_link_field(
            "<http://a.example/>; rel=item; type=text/html; type=text/plain", strict=True
        )
        assert link.attrs.media_type == "text/html"
        assert link.attrs.extra == (("type", "text/plain"),)

    def test_duplicate_known_params_dropped_when_lenient(self):
        (link,) = parse_link_field(
            "<http://a.example/>; rel=item; type=text/html; type=application/pdf; "
            'rel=collection; profile="http://p.example/1"; profile="http://p.example/2"; '
            "sem-type=Dataset; SEM-TYPE=Article; title=t"
        )
        assert link.rel == ITEM
        assert link.attrs == LinkAttributes(
            media_type="text/html",
            profile="http://p.example/1",
            sem_type="Dataset",
            extra=(("title", "t"),),
        )

    def test_invalid_media_type_demoted_when_lenient(self):
        (link,) = parse_link_field("<http://a.example/>; rel=item; type=nonsense")
        assert link.attrs.media_type is None
        assert link.attrs.extra == (("type", "nonsense"),)

    def test_invalid_media_type_rejected_when_strict(self):
        with pytest.raises(MalformedLinkField):
            parse_link_field("<http://a.example/>; rel=item; type=nonsense", strict=True)

    def test_missing_rel_is_error(self):
        assert parse_link_field("<http://a.example/>; type=text/html") == LinkSet()
        with pytest.raises(MalformedLinkField):
            parse_link_field("<http://a.example/>; type=text/html", strict=True)

    def test_quoted_escapes(self):
        (link,) = parse_link_field(r'<http://a.example/>; rel=item; title="a \"b\" \\ c"')
        assert link.attrs.extra == (("title", 'a "b" \\ c'),)

    def test_unbalanced_angle_offset(self):
        with pytest.raises(MalformedLinkField) as exc:
            parse_link_field("<http://a.example/x; rel=item", strict=True)
        assert exc.value.offset == 0

    def test_unterminated_quote_offset(self):
        field = '<http://a.example/>; rel="item'
        with pytest.raises(MalformedLinkField) as exc:
            parse_link_field(field, strict=True)
        assert exc.value.offset == field.index('"')

    def test_lenient_drops_only_bad_link_value(self):
        field = (
            "<http://a.example/1>; rel=item, "
            "junk-without-target; rel=item, "
            "<http://a.example/2>; rel=collection"
        )
        links = parse_link_field(field)
        assert [l.target for l in links] == ["http://a.example/1", "http://a.example/2"]

    @pytest.mark.parametrize(
        "bad",
        ["\x85", "\xa0", "\x00", "\x7f", "\t", "\u2028", "\ufffe", "\uffff", "\ud800", "\udfff"],
    )
    def test_target_with_whitespace_or_control_character_is_dropped(self, bad):
        # http.client hands Latin-1 bytes such as 0x85 through as they are;
        # no change list could carry the last four, which XML 1.0 excludes
        field = f'<http://a.example/1>; rel=item, <http://a.example/a{bad}b>; rel="persistent-id"'
        assert [l.target for l in parse_link_field(field)] == ["http://a.example/1"]
        with pytest.raises(MalformedLinkField, match="bad link target"):
            parse_link_field(field, strict=True)

    def test_target_holding_a_left_angle_bracket_is_dropped(self):
        field = "<http://a.example/<b>; rel=item, <http://a.example/1>; rel=item"
        assert [l.target for l in parse_link_field(field)] == ["http://a.example/1"]
        with pytest.raises(MalformedLinkField, match="bad link target"):
            parse_link_field(field, strict=True)

    def test_strict_fails_whole_field(self):
        field = "<http://a.example/1>; rel=item, junk"
        with pytest.raises(MalformedLinkField):
            parse_link_field(field, strict=True)

    def test_persistent_id_alias_canonicalized(self):
        voc = Vocabulary(persistent_id_rels=("persistent-id", "cite-as"))
        (link,) = parse_link_field(
            '<http://dx.doi.org/10.1/x>; rel="cite-as"', vocabulary=voc
        )
        assert link.rel == PERSISTENT_ID

    def test_sem_type_alias(self):
        voc = Vocabulary(sem_type_params=("sem-type", "semantic-type"))
        (link,) = parse_link_field(
            '<http://a.example/>; rel=item; semantic-type="info:eu-repo/semantics/article"',
            vocabulary=voc,
        )
        assert link.attrs.sem_type == "info:eu-repo/semantics/article"


class TestSerialization:
    def test_empty_set(self):
        assert serialize_link_field(LinkSet()) == ""

    def test_param_order(self):
        link = TypedLink(
            target="http://a.example/x",
            rel=ITEM,
            attrs=LinkAttributes(
                media_type="text/html",
                profile="http://p.example/",
                sem_type="info:eu-repo/semantics/article",
                extra=(("x-note", "hi"),),
            ),
        )
        text = serialize_link_field([link])
        assert text == (
            '<http://a.example/x>; rel="item"; type=text/html; '
            "profile=http://p.example/; "
            "sem-type=info:eu-repo/semantics/article; x-note=hi"
        )

    def test_quoting_only_when_needed(self):
        link = TypedLink(
            target="http://a.example/",
            rel=ITEM,
            attrs=LinkAttributes(extra=(("a", "plain-token"), ("b", "has space"), ("c", ""))),
        )
        text = serialize_link_field([link])
        assert "a=plain-token" in text
        assert 'b="has space"' in text
        assert 'c=""' in text

    def test_describedby_with_profile_reparses(self, data_dir):
        original = parse_link_field(load(data_dir, "doi_head_link.txt"))
        assert parse_link_field(serialize_link_field(original)) == original

    def test_bad_target_raises(self):
        for target in ["", "http://a.example/a b", "http://a.example/a\x85b", "http://a.example/<a>"]:
            with pytest.raises(ValueError):
                serialize_link_field([TypedLink(target=target, rel=ITEM)])


class TestResolve:
    def test_relative_target(self):
        (link,) = parse_link_field("</plosone/article?id=X>; rel=item")
        resolved = resolve_targets(LinkSet((link,)), "http://journals.plos.org/")
        assert resolved.links[0].target == "http://journals.plos.org/plosone/article?id=X"
        assert resolved.links[0].source == "http://journals.plos.org/"
        assert resolved.base == "http://journals.plos.org/"

    def test_info_scheme_passthrough(self):
        (link,) = parse_link_field("<info:eu-repo/semantics/article>; rel=type")
        resolved = resolve_targets(LinkSet((link,)), ENTRY)
        assert resolved.links[0].target == "info:eu-repo/semantics/article"

    def test_absolute_unchanged(self):
        (link,) = parse_link_field("<http://b.example/x>; rel=item")
        resolved = resolve_targets(LinkSet((link,)), "http://a.example/")
        assert resolved.links[0].target == "http://b.example/x"

    def test_invalid_base(self):
        with pytest.raises(InvalidBase):
            resolve_targets(LinkSet(), "no-scheme-here")

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            links = random_link_set(rng)
            once = resolve_targets(links, "http://base.example/dir/")
            twice = resolve_targets(once, "http://base.example/dir/")
            assert once == twice


class TestSelect:
    def test_preserves_order_and_subset(self):
        rng = random.Random(11)
        for _ in range(50):
            links = random_link_set(rng)
            got = select(links, ITEM)
            assert list(got) == [l for l in links if l.rel == ITEM]

    def test_unknown_rel_empty(self):
        rng = random.Random(12)
        assert select(random_link_set(rng), "no-such-rel-xyz") == ()


class TestSharedValues:
    def test_token_rels_compare_casefolded(self):
        for rel in (RelationType("Item"), relation_type("Item"), relation_type("ITEM")):
            assert rel == ITEM
            assert hash(rel) == hash(ITEM)
        assert relation_type("Item").value == "Item"

    def test_extension_rels_compare_exactly(self):
        assert relation_type("http://rel.example/Next") == RelationType("http://rel.example/Next")
        assert relation_type("http://rel.example/Next") != relation_type("http://rel.example/next")
        assert relation_type("http://rel.example/Next").key == "http://rel.example/Next"

    @pytest.mark.parametrize("value", ["", "item next", "item\t", "\nitem", "a\rb"])
    def test_rel_with_whitespace_or_empty_raises(self, value):
        with pytest.raises(ValueError):
            RelationType(value)
        with pytest.raises(ValueError):
            relation_type(value)

    def test_equal_values_share_one_instance(self):
        assert relation_type("x-shared") is relation_type("x-shared")
        attrs = link_attributes("application/pdf", None, None, (("title", "a"),))
        assert attrs is link_attributes("application/pdf", None, None, (("title", "a"),))
        assert attrs == LinkAttributes(media_type="application/pdf", extra=(("title", "a"),))
        restored = TypedLink.from_json_dict(
            {"rel": "x-shared", "target": "t", "type": "application/pdf", "extra": [["title", "a"]]}
        )
        assert restored.attrs is attrs

    def test_shared_attributes_still_check_the_media_type(self):
        with pytest.raises(ValueError):
            link_attributes("not a media type", None, None, ())

    def test_vocabulary_folds_aliases_once_and_compares_on_its_tuples(self):
        voc = Vocabulary(
            persistent_id_rels=("persistent-id", "Cite-As"), sem_type_params=("sem-type", "semType")
        )
        assert voc.canonical_rel_token("CITE-as") == "persistent-id"
        assert voc.canonical_rel_token("Item") == "Item"
        assert voc.is_sem_type_param("SEMTYPE")
        assert not voc.is_sem_type_param("type")
        assert Vocabulary() == DEFAULT_VOCABULARY
        assert hash(Vocabulary()) == hash(DEFAULT_VOCABULARY)
        assert voc != DEFAULT_VOCABULARY
        assert "folded" not in repr(voc)

    def test_select_by_spelling(self):
        links = parse_link_field('<a>; rel="Item", <b>; rel="describedby", <c>; rel="ITEM"')
        assert [link.target for link in select(links, "item")] == ["a", "c"]
        assert [link.target for link in links.select(ITEM)] == ["a", "c"]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_property(seed):
    rng = random.Random(seed)
    links = random_link_set(rng)
    assert parse_link_field(serialize_link_field(links)) == links


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_survives_strict(seed):
    rng = random.Random(seed)
    links = random_link_set(rng)
    assert parse_link_field(serialize_link_field(links), strict=True) == links


# any text, and lists of link-values whose parts hold the field's delimiters
_PART = st.text(alphabet='<>;,="\\ \t\x85a', max_size=6)
_LINK_VALUE = st.builds(
    "<{}>; {}{}".format, _PART, st.sampled_from(["rel=item", 'rel="a b"', "type=a/b; rel=x"]), _PART
)
_LINK_TEXT = st.text() | st.lists(_LINK_VALUE | _PART).map(",".join)


@settings(max_examples=300, deadline=None)
@given(_LINK_TEXT, st.booleans())
def test_whatever_parses_serialises(text, strict):
    try:
        links = parse_link_field(text, strict=strict)
    except MalformedLinkField:
        return
    serialize_link_field(links)


def _xml_char(c):
    """XML 1.0's Char production (section 2.2)."""
    return (
        c in "\t\n\r"
        or "\x20" <= c <= "\ud7ff"
        or "\ue000" <= c <= "\ufffd"
        or "\U00010000" <= c
    )


def test_the_target_rule_is_whitespace_and_control_characters():
    # the rule spells out what str.isspace accepts; a Unicode version that
    # changes that set fails here. It also holds what XML 1.0 cannot carry.
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    ruled = {
        c
        for c in chars
        if c.isspace() or unicodedata.category(c) == "Cc" or not _xml_char(c)
    }
    assert {"\ufffe", "\uffff", "\ud800", "\udfff"} <= ruled
    assert set(_BAD_TARGET.findall(chars)) == ruled
