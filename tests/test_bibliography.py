"""Record parsing, normalization, reconciliation, and the format registry."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgp.bibliography import (
    BibRecord,
    MalformedEntry,
    MissingTitle,
    MultipleEntries,
    Severity,
    SourceFormat,
    UnknownFormat,
    from_crossref,
    normalize,
    parse_bibtex,
    parse_crossref_json,
    parse_ris,
    parser_for,
    reconcile,
)
from sgp.crossref import CrossRefWork, parse_work

TITLE = "Scholarly Context Not Found: One in Five Articles Suffers from Reference Rot"
DOI = "10.1371/journal.pone.0115253"


@pytest.fixture(scope="module")
def bib_record(data_dir):
    return parse_bibtex((data_dir / "article.bib").read_text())


@pytest.fixture(scope="module")
def ris_record(data_dir):
    return parse_ris((data_dir / "article.ris").read_text())


@pytest.fixture(scope="module")
def rosenthal_work(data_dir):
    return parse_work((data_dir / "work_rosenthal.json").read_text())


class TestParseBibtex:
    def test_golden_fields(self, bib_record):
        assert bib_record.title == TITLE
        assert bib_record.doi == DOI
        assert bib_record.container == "PLoS ONE"
        assert bib_record.year == 2014
        assert bib_record.volume == "9"
        assert bib_record.issue == "12"
        assert bib_record.pages == "e115253"
        assert bib_record.source_format is SourceFormat.BIBTEX

    def test_golden_authors(self, bib_record):
        assert len(bib_record.authors) == 7
        assert bib_record.authors[0] == ("Klein", "Martin")
        assert bib_record.authors[1] == ("Van de Sompel", "Herbert")

    def test_empty_input(self):
        with pytest.raises(MalformedEntry):
            parse_bibtex("")

    def test_no_entry(self):
        with pytest.raises(MalformedEntry):
            parse_bibtex("just some prose, no entry here")

    def test_missing_title(self):
        with pytest.raises(MissingTitle):
            parse_bibtex("@article{k, author = {Klein, Martin}}")
        # MissingTitle is a MalformedEntry
        with pytest.raises(MalformedEntry):
            parse_bibtex("@article{k, author = {Klein, Martin}}")

    def test_brace_protection_stripped(self):
        record = parse_bibtex(
            "@article{r, title = {Enhancing the {LOCKSS} Digital Preservation Technology}}"
        )
        assert record.title == "Enhancing the LOCKSS Digital Preservation Technology"

    def test_quoted_and_bare_values(self):
        record = parse_bibtex('@article{k, title = "A Title", year = 2014}')
        assert record.title == "A Title"
        assert record.year == 2014

    def test_second_entry_ignored_by_default(self):
        text = "@article{a, title = {First}}\n@article{b, title = {Second}}"
        assert parse_bibtex(text).title == "First"

    def test_second_entry_rejected_when_strict(self):
        text = "@article{a, title = {First}}\n@article{b, title = {Second}}"
        with pytest.raises(MultipleEntries):
            parse_bibtex(text, strict=True)

    def test_unbalanced_braces(self):
        with pytest.raises(MalformedEntry):
            parse_bibtex("@article{k, title = {Oops")

    def test_single_name_author(self):
        record = parse_bibtex("@article{k, title = {T}, author = {Aristotle}}")
        assert record.authors == (("Aristotle", None),)

    def test_source_uri_carried(self):
        record = parse_bibtex(
            "@article{k, title = {T}}", source_uri="http://x.example/cite.bib"
        )
        assert record.source_uri == "http://x.example/cite.bib"


class TestParseRis:
    def test_golden_fields(self, ris_record):
        assert ris_record.title == TITLE
        assert ris_record.doi == DOI
        assert ris_record.container == "PLoS ONE"
        assert ris_record.year == 2014
        assert ris_record.volume == "9"
        assert ris_record.issue == "12"
        assert ris_record.pages == "e115253"
        assert ris_record.source_format is SourceFormat.RIS

    def test_golden_authors(self, ris_record):
        assert len(ris_record.authors) == 7
        assert ris_record.authors[0] == ("Klein", "Martin")
        assert ris_record.authors[-1] == ("Tobin", "Richard")

    def test_page_range_joined(self):
        record = parse_ris("TY  - JOUR\nTI  - T\nSP  - 8425\nEP  - 8433\nER  -")
        assert record.pages == "8425-8433"

    def test_t1_and_t2_fallbacks(self):
        record = parse_ris("TY  - JOUR\nT1  - Alt Title\nT2  - Alt Journal\nER  -")
        assert record.title == "Alt Title"
        assert record.container == "Alt Journal"

    def test_year_from_dated_py(self):
        record = parse_ris("TY  - JOUR\nTI  - T\nPY  - 2014/12/26/\nER  -")
        assert record.year == 2014

    def test_empty_input(self):
        with pytest.raises(MalformedEntry):
            parse_ris("")

    def test_missing_title(self):
        with pytest.raises(MissingTitle):
            parse_ris("TY  - JOUR\nAU  - Klein, Martin\nER  -")

    def test_second_entry_ignored_by_default(self):
        text = "TY  - JOUR\nTI  - First\nER  -\nTY  - JOUR\nTI  - Second\nER  -"
        assert parse_ris(text).title == "First"

    def test_second_entry_rejected_when_strict(self):
        text = "TY  - JOUR\nTI  - First\nER  -\nTY  - JOUR\nTI  - Second\nER  -"
        with pytest.raises(MultipleEntries):
            parse_ris(text, strict=True)

    def test_a1_author_lines(self):
        record = parse_ris("TY  - JOUR\nTI  - T\nA1  - Klein, Martin\nER  -")
        assert record.authors == (("Klein", "Martin"),)


class TestFromCrossref:
    def test_golden_fields(self, rosenthal_work):
        record = from_crossref(rosenthal_work)
        assert record.title == "Enhancing the LOCKSS Digital Preservation Technology"
        assert record.container == "D-Lib Magazine"
        assert record.year == 2015
        assert record.volume == "21"
        assert record.issue == "9/10"
        assert record.doi == "10.1045/september2015-rosenthal"
        assert record.source_format is SourceFormat.CROSSREF_JSON
        assert [family for family, _ in record.authors] == [
            "Rosenthal",
            "Vargas",
            "Lipkis",
            "Griffin",
        ]

    def test_missing_title(self):
        with pytest.raises(MissingTitle):
            from_crossref(CrossRefWork(doi="10.5/x"))

    def test_stable(self, rosenthal_work):
        assert from_crossref(rosenthal_work) == from_crossref(rosenthal_work)

    def test_parse_crossref_json(self, data_dir):
        record = parse_crossref_json((data_dir / "work_rosenthal.json").read_text())
        assert record == from_crossref(parse_work((data_dir / "work_rosenthal.json").read_text()))


def record(**overrides) -> BibRecord:
    base = dict(
        title=TITLE,
        source_format=SourceFormat.BIBTEX,
        doi=DOI,
        authors=(("Klein", "Martin"), ("Van de Sompel", "Herbert")),
        container="PLoS ONE",
        year=2014,
        volume="9",
        issue="12",
        pages="e115253",
    )
    base.update(overrides)
    return BibRecord(**base)


titles = st.text(
    alphabet="abcdefghij KLMNOP:.,-0123456789", min_size=1, max_size=40
).filter(lambda s: s.strip(".,;: "))
opt_text = st.none() | st.text(alphabet="abcdef 0123456789-", min_size=1, max_size=10)


@st.composite
def records(draw):
    author_names = draw(
        st.lists(
            st.tuples(
                st.text(alphabet="abcDEF", min_size=1, max_size=8),
                st.none() | st.text(alphabet="abc. ", min_size=1, max_size=6),
            ),
            max_size=4,
        )
    )
    return BibRecord(
        title=draw(titles),
        source_format=draw(st.sampled_from(list(SourceFormat))),
        doi=draw(st.none() | st.just("10.5/" + draw(st.text("abc123", min_size=1, max_size=6)))),
        authors=tuple(author_names),
        container=draw(opt_text),
        year=draw(st.none() | st.integers(min_value=1800, max_value=2100)),
        volume=draw(opt_text),
        issue=draw(opt_text),
        pages=draw(opt_text),
    )


class TestNormalize:
    def test_whitespace_collapsed(self):
        rec = normalize(record(title="Two  spaces   here"))
        assert rec.title == "Two spaces here"

    def test_doi_lowercased(self):
        rec = normalize(record(doi="10.1371/JOURNAL.PONE.0115253"))
        assert rec.doi == DOI

    def test_resolver_prefix_stripped(self):
        rec = normalize(record(doi="https://doi.org/" + DOI))
        assert rec.doi == DOI

    def test_trailing_punctuation_stripped(self):
        rec = normalize(record(title="A Title."))
        assert rec.title == "A Title"

    def test_internal_punctuation_kept(self):
        rec = normalize(record(title=TITLE))
        assert ":" in rec.title

    def test_page_dashes_unified(self):
        assert normalize(record(pages="8425--8433")).pages == "8425-8433"
        assert normalize(record(pages="8425–8433")).pages == "8425-8433"
        # a longer run is one range dash too, so normalising is idempotent
        assert normalize(record(pages="8425---8433")).pages == "8425-8433"
        assert normalize(record(pages="8425 - -- 8433")).pages == "8425-8433"

    @given(rec=records())
    @settings(max_examples=200)
    def test_idempotent(self, rec):
        try:
            once = normalize(rec)
        except MissingTitle:
            return
        assert normalize(once) == once


class TestReconcile:
    def test_identical_records_match(self):
        report = reconcile(record(), record())
        assert report.matched
        assert report.discrepancies == ()

    def test_title_word_changed_is_major(self, rosenthal_work):
        registrar = from_crossref(rosenthal_work)
        publisher = dataclasses.replace(
            registrar, title=registrar.title.replace("Enhancing", "Enchanting")
        )
        report = reconcile(publisher, registrar)
        assert not report.matched
        assert [d.field for d in report.discrepancies] == ["title"]
        assert report.discrepancies[0].severity is Severity.MAJOR

    def test_doi_mismatch_is_major(self):
        report = reconcile(record(), record(doi="10.1371/journal.pone.0000000"))
        assert not report.matched
        assert report.discrepancies[0].field == "doi"

    def test_missing_volume_is_minor(self, rosenthal_work):
        registrar = from_crossref(rosenthal_work)
        publisher = dataclasses.replace(registrar, volume=None)
        report = reconcile(publisher, registrar)
        assert report.matched
        assert [(d.field, d.severity) for d in report.discrepancies] == [
            ("volume", Severity.MINOR)
        ]
        assert report.discrepancies[0].right == "21"

    def test_title_case_insensitive(self):
        report = reconcile(record(), record(title=TITLE.upper()))
        assert report.matched
        assert report.discrepancies == ()

    def test_author_count_minor(self):
        report = reconcile(record(), record(authors=(("Klein", "Martin"),)))
        assert report.matched
        assert [d.field for d in report.discrepancies] == ["authors"]

    def test_family_name_minor(self):
        report = reconcile(
            record(),
            record(authors=(("Klein", "Martin"), ("Sompel", "Herbert"))),
        )
        assert report.matched
        assert [d.field for d in report.discrepancies] == ["authors"]

    def test_given_name_form_ignored(self):
        report = reconcile(
            record(),
            record(authors=(("Klein", "M."), ("Van de Sompel", "H."))),
        )
        assert report.discrepancies == ()

    def test_bibtex_and_ris_renditions_match(self, bib_record, ris_record):
        report = reconcile(bib_record, ris_record)
        assert report.matched
        assert report.discrepancies == ()

    def test_bibtex_against_registrar_copy(self, data_dir, rosenthal_work):
        publisher = parse_bibtex((data_dir / "rosenthal.bib").read_text())
        report = reconcile(publisher, from_crossref(rosenthal_work))
        assert report.matched
        assert report.discrepancies == ()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("container", "Other Journal"),
            ("year", 1999),
            ("volume", "10"),
            ("issue", "1"),
            ("pages", "1-2"),
        ],
    )
    def test_single_minor_mutation_stays_matched(self, field, value):
        mutated = record(**{field: value})
        report = reconcile(record(), mutated)
        assert report.matched
        assert [d.field for d in report.discrepancies] == [field]

    @given(left=records(), right=records())
    @settings(max_examples=100)
    def test_matched_verdict_symmetric(self, left, right):
        assert reconcile(left, right).matched == reconcile(right, left).matched

    @given(rec=records())
    @settings(max_examples=100)
    def test_self_reconcile_clean(self, rec):
        report = reconcile(rec, rec)
        assert report.matched
        assert report.discrepancies == ()


class TestParserFor:
    @pytest.mark.parametrize(
        "profile,expected",
        [
            ("http://bibtex.org", parse_bibtex),
            ("https://www.bibtex.org/", parse_bibtex),
            ("HTTP://BIBTEX.ORG", parse_bibtex),
            ("https://en.wikipedia.org/wiki/RIS_(file_format)", parse_ris),
            ("http://en.wikipedia.org/wiki/ris_(file_format)", parse_ris),
            ("https://github.com/CrossRef/rest-api-doc", parse_crossref_json),
        ],
    )
    def test_profile_registry(self, profile, expected):
        assert parser_for(profile=profile) is expected

    def test_media_type_fallback(self):
        assert parser_for(media_type="application/json") is parse_crossref_json
        assert parser_for(media_type="application/x-bibtex") is parse_bibtex
        assert (
            parser_for(media_type="application/x-research-info-systems") is parse_ris
        )

    def test_profile_wins_over_media_type(self):
        parser = parser_for(profile="http://bibtex.org", media_type="application/json")
        assert parser is parse_bibtex

    def test_unknown_profile_falls_back(self):
        parser = parser_for(
            profile="http://example.org/some-format", media_type="application/json"
        )
        assert parser is parse_crossref_json

    def test_text_plain_alone_is_ambiguous(self):
        with pytest.raises(UnknownFormat):
            parser_for(media_type="text/plain")

    def test_nothing_given(self):
        with pytest.raises(UnknownFormat):
            parser_for()


class TestJson:
    def test_record_shape(self):
        data = record().to_json_dict()
        assert data["title"] == TITLE
        assert data["doi"] == DOI
        assert data["authors"][1] == {"family": "Van de Sompel", "given": "Herbert"}
        assert data["source_format"] == "bibtex"

    def test_report_shape(self):
        report = reconcile(record(), record(volume="10"))
        data = report.to_json_dict()
        assert data["matched"] is True
        assert data["discrepancies"] == [
            {"field": "volume", "left": "9", "right": "10", "severity": "minor"}
        ]


class TestRoundTrip:
    def emit_bibtex(self, rec: BibRecord) -> str:
        lines = [f"  title = {{{rec.title}}}"]
        if rec.authors:
            joined = " and ".join(
                f"{family}, {given}" if given else family
                for family, given in rec.authors
            )
            lines.append(f"  author = {{{joined}}}")
        for name, field in (
            ("journal", "container"),
            ("volume", "volume"),
            ("number", "issue"),
            ("pages", "pages"),
            ("doi", "doi"),
        ):
            value = getattr(rec, field)
            if value is not None:
                lines.append(f"  {name} = {{{value}}}")
        if rec.year is not None:
            lines.append(f"  year = {{{rec.year}}}")
        return "@article{generated,\n" + ",\n".join(lines) + "\n}\n"

    def emit_ris(self, rec: BibRecord) -> str:
        lines = ["TY  - JOUR", f"TI  - {rec.title}"]
        for family, given in rec.authors:
            lines.append(f"AU  - {family}, {given}" if given else f"AU  - {family}")
        if rec.container is not None:
            lines.append(f"JO  - {rec.container}")
        if rec.year is not None:
            lines.append(f"PY  - {rec.year}")
        for tag, field in (("VL", "volume"), ("IS", "issue"), ("SP", "pages"), ("DO", "doi")):
            value = getattr(rec, field)
            if value is not None:
                lines.append(f"{tag}  - {value}")
        lines.append("ER  -")
        return "\n".join(lines) + "\n"

    @given(rec=records())
    @settings(max_examples=150)
    def test_bibtex_round_trip(self, rec):
        rec = normalize(
            dataclasses.replace(
                rec,
                source_format=SourceFormat.BIBTEX,
                authors=tuple((f, g) for f, g in rec.authors if "," not in f),
            )
        )
        parsed = parse_bibtex(self.emit_bibtex(rec))
        for field in ("title", "doi", "container", "year", "volume", "issue", "pages"):
            assert getattr(parsed, field) == getattr(rec, field)
        assert parsed.authors == rec.authors

    @given(rec=records())
    @settings(max_examples=150)
    def test_ris_round_trip(self, rec):
        rec = normalize(
            dataclasses.replace(
                rec,
                source_format=SourceFormat.RIS,
                authors=tuple((f, g) for f, g in rec.authors if "," not in f),
            )
        )
        parsed = parse_ris(self.emit_ris(rec))
        for field in ("title", "doi", "container", "year", "volume", "issue", "pages"):
            assert getattr(parsed, field) == getattr(rec, field)
        assert parsed.authors == rec.authors