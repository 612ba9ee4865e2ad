import json
import random

import pytest

from sgp.harvester import _doi_from_identifying
from sgp.links import (
    ITEM,
    LinkAttributes,
    LinkSet,
    RelationType,
    TypedLink,
    select,
)
from sgp.resources import (
    DEFAULT_POLICY,
    SEM_ARTICLE,
    SEM_OBJECT_FILE,
    SEM_START_PAGE,
    FetchFailure,
    NoEntryPage,
    PatternId,
    ResourcePolicy,
    ScholarlyObject,
    Violation,
    ViolationKind,
    boundary_closure,
    classify_pattern,
    object_from_links,
    pick_identifying_uri,
    validate_object,
)

DOI = "10.1371/journal.pone.0115253"
DOI_URI = f"http://dx.doi.org/{DOI}"
ENTRY = f"http://journals.plos.org/plosone/article?id={DOI}"
PDF = f"http://journals.plos.org/plosone/article/asset?id={DOI}.PDF"
XML = f"http://journals.plos.org/plosone/article/asset?id={DOI}.XML"
SUPP = f"http://journals.plos.org/plosone/article/asset?unique&id=info:doi/{DOI}.s012"
CROSSREF = f"http://api.crossref.org/works/{DOI}"
BIBTEX = f"http://journals.plos.org/plosone/article/citation/bibtex?id={DOI}"
RIS = f"http://journals.plos.org/plosone/article/citation/ris?id={DOI}"


def L(target, rel, type=None, profile=None, sem_type=None):
    return TypedLink(
        target=target,
        rel=RelationType(rel),
        attrs=LinkAttributes(media_type=type, profile=profile, sem_type=sem_type),
    )


def entry_links():
    return LinkSet(
        (
            L(SEM_ARTICLE, "type"),
            L(DOI_URI, "persistent-id"),
            L(PDF, "item", type="application/pdf", sem_type=SEM_ARTICLE),
            L(XML, "item", type="application/xml", sem_type=SEM_ARTICLE),
            L(SUPP, "item", type="text/html", sem_type=SEM_OBJECT_FILE),
            L(
                CROSSREF,
                "describedby",
                type="application/json",
                profile="https://github.com/CrossRef/rest-api-doc",
            ),
            L(BIBTEX, "describedby", type="text/plain", profile="http://bibtex.org"),
            L(
                RIS,
                "describedby",
                type="text/plain",
                profile="https://en.wikipedia.org/wiki/RIS_(file_format)",
            ),
        )
    )


def asset_links():
    return LinkSet(
        (
            L(SEM_ARTICLE, "type"),
            L(DOI_URI, "persistent-id"),
            L(ENTRY, "collection", type="text/html", sem_type=SEM_ARTICLE),
        )
    )


def plos_table():
    return {
        ENTRY: entry_links(),
        PDF: asset_links(),
        XML: asset_links(),
        SUPP: asset_links(),
    }


class TestBoundaryClosure:
    def test_plos_object(self):
        table = plos_table()
        obj = boundary_closure(ENTRY, lambda u: table[u])
        assert obj.publication_uris == (ENTRY, PDF, XML, SUPP)
        assert tuple(b.uri for b in obj.bibliographic_resources) == (CROSSREF, BIBTEX, RIS)
        assert obj.identifying_uri == DOI_URI
        assert obj.pattern == PatternId.PLOS_STYLE
        assert obj.failures == ()

    def test_entry_only_object(self):
        links = LinkSet((L(SEM_ARTICLE, "type"),))
        obj = boundary_closure("http://p.example/solo", lambda u: links)
        assert obj.publication_uris == ("http://p.example/solo",)

    def test_no_entry_page(self):
        with pytest.raises(NoEntryPage):
            boundary_closure("http://p.example/dead", lambda u: LinkSet())

    def test_entry_fetch_failure_raises(self):
        def oracle(uri):
            raise OSError("boom")

        with pytest.raises(FetchFailure):
            boundary_closure(ENTRY, oracle)

    def test_member_failure_recorded(self):
        table = plos_table()
        del table[XML]

        def oracle(uri):
            return table[uri]

        obj = boundary_closure(ENTRY, oracle)
        assert set(obj.publication_uris) == {ENTRY, PDF, XML, SUPP}
        assert len(obj.failures) == 1
        assert obj.failures[0][0] == XML

    def test_cycle_terminates(self):
        a, b = "http://g.example/a", "http://g.example/b"
        table = {
            a: LinkSet((L(SEM_ARTICLE, "type"), L(b, "item"))),
            b: LinkSet((L(a, "item"),)),
        }
        obj = boundary_closure(a, lambda u: table[u])
        assert set(obj.publication_uris) == {a, b}

    def test_matches_bfs_on_random_graphs(self):
        rng = random.Random(33)
        for _ in range(30):
            entry, table = random_item_graph(rng, max_nodes=20)
            obj = boundary_closure(entry, lambda u: table[u])
            want = {entry} | bfs_item_reachability(table, entry)
            assert set(obj.publication_uris) == want

    def test_identifying_uri_excluded_from_members(self):
        links = LinkSet(
            (
                L(SEM_ARTICLE, "type"),
                L(DOI_URI, "item"),
                L(DOI_URI, "persistent-id"),
            )
        )
        table = {"http://p.example/e": links, DOI_URI: LinkSet()}
        obj = boundary_closure("http://p.example/e", lambda u: table[u])
        assert DOI_URI not in obj.publication_uris


def bfs_item_reachability(table, start):
    seen = {start}
    queue = [t.target for t in select(table[start], ITEM)]
    reached = set()
    while queue:
        uri = queue.pop(0)
        if uri in seen:
            continue
        seen.add(uri)
        reached.add(uri)
        queue.extend(t.target for t in select(table.get(uri, LinkSet()), ITEM))
    return reached


def random_item_graph(rng, max_nodes=50):
    n = rng.randint(2, max_nodes)
    uris = [f"http://graph.example/n{i}" for i in range(n)]
    entry = uris[0]
    table = {}
    for i, uri in enumerate(uris):
        links = []
        if uri == entry:
            links.append(L(SEM_ARTICLE, "type"))
        elif rng.random() < 0.5:
            links.append(L(entry, "collection"))
        for _ in range(rng.randint(0, 3)):
            target = rng.choice(uris)
            links.append(
                L(
                    target,
                    "item",
                    type=rng.choice(["application/pdf", None]),
                )
            )
        table[uri] = LinkSet(tuple(links))
    return entry, table


class TestClassifyPattern:
    def test_plos_style(self):
        table = plos_table()
        obj = boundary_closure(ENTRY, lambda u: table[u])
        assert classify_pattern(obj) == PatternId.PLOS_STYLE

    def test_landing_with_shared_id_is_aps(self):
        land = "http://journal.example/abstract/1"
        links = LinkSet(
            (
                L(SEM_START_PAGE, "type"),
                L(DOI_URI, "persistent-id"),
                L("http://journal.example/pdf/1", "item", type="application/pdf"),
            )
        )
        obj = object_from_links(land, links)
        assert obj.pattern == PatternId.APS_STYLE

    def test_landing_with_local_id_is_arxiv(self):
        land = "http://repo.example/abs/1"
        links = LinkSet(
            (
                L(SEM_START_PAGE, "type"),
                L("http://repo.example/id/1", "persistent-id"),
                L("http://repo.example/pdf/1", "item", type="application/pdf"),
            )
        )
        obj = object_from_links(land, links)
        assert obj.pattern == PatternId.ARXIV_STYLE

    def test_bare_object_is_other(self):
        links = LinkSet(
            (L("http://x.example/pdf", "item", type="application/pdf"),)
        )
        obj = object_from_links("http://x.example/e", links)
        assert obj.pattern == PatternId.OTHER


class TestValidate:
    def closure(self, table):
        return boundary_closure(ENTRY, lambda u: table[u])

    def test_compliant_fixture_clean(self):
        assert validate_object(self.closure(plos_table())) == []

    def test_missing_back_link(self):
        table = plos_table()
        table[PDF] = LinkSet(
            (L(SEM_ARTICLE, "type"), L(DOI_URI, "persistent-id"))
        )
        violations = validate_object(self.closure(table))
        assert [v.kind for v in violations] == [ViolationKind.MISSING_BACK_LINK]
        assert violations[0].uri == PDF
        assert violations[0].severity == "major"

    def test_persistent_id_mismatch(self):
        table = plos_table()
        table[XML] = LinkSet(
            (
                L(SEM_ARTICLE, "type"),
                L("http://dx.doi.org/10.9999/other", "persistent-id"),
                L(ENTRY, "collection"),
            )
        )
        violations = validate_object(self.closure(table))
        assert [v.kind for v in violations] == [ViolationKind.PERSISTENT_ID_MISMATCH]

    def test_missing_mime_is_minor(self):
        table = plos_table()
        table[ENTRY] = LinkSet(
            tuple(
                TypedLink(l.target, l.rel, LinkAttributes(sem_type=l.attrs.sem_type))
                if l.rel == ITEM and l.target == SUPP
                else l
                for l in table[ENTRY]
            )
        )
        violations = validate_object(self.closure(table))
        assert [(v.kind, v.severity) for v in violations] == [
            (ViolationKind.MISSING_MIME, "minor")
        ]

    def test_empty_object(self):
        obj = ScholarlyObject(
            entry_page=boundary_closure(ENTRY, lambda u: plos_table()[u]).entry_page,
            publication_resources=(),
        )
        violations = validate_object(obj)
        assert [v.kind for v in violations] == [ViolationKind.EMPTY_OBJECT]

    def test_unvisited_members_not_judged(self):
        links = entry_links()
        obj = object_from_links(ENTRY, links)
        kinds = {v.kind for v in validate_object(obj)}
        assert ViolationKind.MISSING_BACK_LINK not in kinds


class TestTieBreaking:
    def test_prefers_shared_domain(self):
        links = LinkSet(
            (
                L("http://local.example/id/9", "persistent-id"),
                L(DOI_URI, "persistent-id"),
            )
        )
        assert pick_identifying_uri(links) == DOI_URI

    def test_first_among_equals(self):
        links = LinkSet(
            (
                L("http://dx.doi.org/10.1/a", "persistent-id"),
                L("http://dx.doi.org/10.1/b", "persistent-id"),
            )
        )
        assert pick_identifying_uri(links) == "http://dx.doi.org/10.1/a"

    def test_prefix_domain_entries(self):
        policy = ResourcePolicy(persistent_id_domains=("http://127.0.0.1:9/doi/",))
        assert policy.is_persistent_uri("http://127.0.0.1:9/doi/10.1/x")
        assert not policy.is_persistent_uri("http://127.0.0.1:9/other")


class TestPersistentIdentifiers:
    # uri, the identifier it names, the DOI the harvester reads from it
    @pytest.mark.parametrize(
        "uri, identifier, doi",
        [
            ("http://127.0.0.1:9/doi/10.1/X", "10.1/X", "10.1/x"),
            ("http://127.0.0.1:9/doi//10.1/x", "10.1/x", "10.1/x"),
            ("http://127.0.0.1:9/doi/10.1%2Fa%20b", "10.1/a b", "10.1/a b"),
            ("https://DX.DOI.org/10.1/Y", "10.1/Y", "10.1/y"),
            ("http://hdl.handle.net/1721.1/123", "1721.1/123", "1721.1/123"),
            ("https://doi.org/10.1000%2Fabc%3Fq", "10.1000/abc?q", "10.1000/abc?q"),
            ("https://doi.org/10.1/p?q=1#f", "10.1/p", "10.1/p"),
            ("https://doi.org/not-a-doi", "not-a-doi", None),
            ("https://doi.org", "", None),
            ("https://doi.org/", "", None),
            ("http://127.0.0.1:9/doi/", "", None),
            ("http://127.0.0.1:9/other/10.1/x", None, None),
            ("http://doi.org.example/10.1/x", None, None),
            ("urn:doi:10.1/x", None, None),
        ],
    )
    def test_one_rule_names_the_identifier(self, uri, identifier, doi):
        policy = DEFAULT_POLICY.resolving_at("http://127.0.0.1:9/entry")
        assert policy.identifier_in(uri) == identifier
        assert policy.is_persistent_uri(uri) is (identifier is not None)
        assert _doi_from_identifying(uri, policy) == doi

    def test_resolving_at_adds_the_origin_resolver_then_the_prefixes(self):
        policy = DEFAULT_POLICY.resolving_at("https://h.example:8/a/b?q=1", "urn:x:")
        assert policy.persistent_id_domains == (
            *DEFAULT_POLICY.persistent_id_domains,
            "https://h.example:8/doi/",
            "urn:x:",
        )
        assert policy.semantic_aliases == DEFAULT_POLICY.semantic_aliases


class TestJson:
    def test_object_round_trip(self):
        table = plos_table()
        obj = boundary_closure(ENTRY, lambda u: table[u])
        blob = json.dumps(obj.to_json_dict())
        assert ScholarlyObject.from_json_dict(json.loads(blob)) == obj

    def test_stable_field_order(self):
        table = plos_table()
        obj = boundary_closure(ENTRY, lambda u: table[u])
        assert list(obj.to_json_dict()) == [
            "entry_page",
            "publication_resources",
            "bibliographic_resources",
            "identifying_uri",
            "pattern",
        ]
