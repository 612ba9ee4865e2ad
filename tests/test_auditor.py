"""Tests for the twelve-point compliance audit."""

import dataclasses
import json
from pathlib import Path

import pytest
from gen import distinct_specs

from sgp.auditor import (
    AuditReport,
    Auditor,
    CheckResult,
    EmptyReport,
    RECOMMENDATIONS,
    Verdict,
    render_report,
)
from sgp.fixtures import (
    ABLATION_KEYS,
    ABLATION_RECOMMENDATION,
    AssetSpec,
    degrade,
    landing_spec,
    plos_spec,
    serve,
)
from sgp.navigator import PolitenessPolicy, SignpostClient
from sgp.resources import SEM_OBJECT_FILE
from sgp.resourcesync import parse_change_list
from sgp.rfc3339 import format_rfc3339

FAST = PolitenessPolicy(timeout=5, backoff=0.01)

ALL_IDS = [f"R{i}" for i in range(1, 13)]

GOLDEN_REPORTS = Path(__file__).parent / "data" / "golden" / "audit_matrix.jsonl"
PATTERNS = {"plos_spec": plos_spec, "landing_spec": landing_spec}
FIXTURES = ("clean", *sorted(ABLATION_KEYS))
# no registrar candidate, then the conventional registrar feed as one
REGISTRARS = ("none", "/registrar/changelist.xml")
BASE = "http://fixture.invalid"


def _audit(ep, entry_uri=None):
    auditor = Auditor(client=SignpostClient(FAST, strict=True), policy=ep.policy())
    return auditor.audit(
        entry_uri or ep.entry_uri,
        publisher_feed=ep.uri("/changelist.xml"),
        registrar_feed=ep.uri("/registrar/changelist.xml"),
    )


@pytest.fixture(scope="module")
def endpoint():
    with serve(plos_spec()) as ep:
        yield ep


@pytest.fixture(scope="module")
def report(endpoint):
    return _audit(endpoint)


def _result(check_id="R1", verdict=Verdict.PASS, **kw):
    evidence = kw.pop("evidence", (("http://x.example/feed", "fine"),))
    return CheckResult(check_id, verdict, evidence, **kw)


class TestCheckResult:
    def test_unknown_check_id_rejected(self):
        with pytest.raises(ValueError):
            CheckResult("R13", Verdict.PASS, (("u", "t"),))

    def test_pass_and_fail_need_evidence(self):
        with pytest.raises(ValueError):
            CheckResult("R1", Verdict.PASS)
        with pytest.raises(ValueError):
            CheckResult("R1", Verdict.FAIL)
        CheckResult("R1", Verdict.NOT_APPLICABLE)

    def test_recommendation_text_attached(self):
        assert "change feed" in _result("R1").recommendation
        assert set(RECOMMENDATIONS) == set(ALL_IDS)

    def test_json_round_trip(self):
        result = _result("R6", Verdict.FAIL, warnings=("item link without sem-type: u",))
        assert json.loads(json.dumps(result.to_json_dict())) == {
            "check": "R6",
            "verdict": "fail",
            "evidence": [["http://x.example/feed", "fine"]],
            "warnings": ["item link without sem-type: u"],
        }


class TestAuditReport:
    def test_empty_report_rejected(self):
        with pytest.raises(EmptyReport):
            AuditReport(target="http://x.example", results=())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            AuditReport(
                target="http://x.example", results=(_result("R1"), _result("R1"))
            )

    def test_result_lookup(self):
        rpt = AuditReport(target="t", results=(_result("R1"), _result("R2")))
        assert rpt.result_for("R2").check_id == "R2"
        with pytest.raises(KeyError):
            rpt.result_for("R3")

    def test_score_counts_only_applicable(self):
        rpt = AuditReport(
            target="t",
            results=(
                _result("R1"),
                _result("R2", Verdict.FAIL),
                _result("R3", Verdict.NOT_APPLICABLE, evidence=()),
            ),
        )
        assert rpt.score == "1/2"
        assert not rpt.all_passed
        assert [r.check_id for r in rpt.failed] == ["R2"]

    def test_json_round_trip(self, report):
        parsed = json.loads(json.dumps(report.to_json_dict()))
        assert parsed["target"] == report.target
        assert parsed["generated_at"] == format_rfc3339(report.generated_at)
        assert parsed["results"] == [r.to_json_dict() for r in report.results]


class TestRendering:
    def test_text_lists_every_check_and_the_score(self, report):
        text = render_report(report)
        for check_id in ALL_IDS:
            assert check_id in text
        assert "score: 12/12 recommendations met" in text

    def test_text_shows_warnings_when_present(self):
        rpt = AuditReport(
            target="t",
            results=(_result("R6", warnings=("item link without sem-type: u",)),),
        )
        assert "warnings:" in render_report(rpt)
        assert "R6: item link without sem-type: u" in render_report(rpt)

    def test_json_format_parses(self, report):
        parsed = json.loads(render_report(report, fmt="json"))
        assert parsed["score"] == "12/12"
        assert len(parsed["results"]) == 12

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            render_report(report, fmt="yaml")


class TestCompliantEndpoint:
    def test_twelve_checks_in_order(self, report):
        assert [r.check_id for r in report.results] == ALL_IDS

    def test_everything_passes(self, report):
        assert report.all_passed
        assert report.score == "12/12"
        assert all(r.verdict is Verdict.PASS for r in report.results)

    def test_no_warnings_on_the_clean_fixture(self, report):
        assert all(r.warnings == () for r in report.results)

    def test_evidence_names_real_uris(self, report, endpoint):
        uris = {uri for r in report.results for uri, _ in r.evidence}
        assert any(uri.startswith(endpoint.base_uri) for uri in uris)

    def test_default_publisher_feed_derived_from_entry_origin(self, endpoint):
        auditor = Auditor(
            client=SignpostClient(FAST, strict=True), policy=endpoint.policy()
        )
        rpt = auditor.audit(endpoint.entry_uri)
        publisher = rpt.results[3:]
        assert [r.check_id for r in publisher] == ALL_IDS[3:]
        assert all(r.verdict is Verdict.PASS for r in publisher)
        assert rpt.result_for("R4").evidence[0][0] == endpoint.uri("/changelist.xml")

    def test_registrar_only_audit(self, endpoint):
        auditor = Auditor(
            client=SignpostClient(FAST, strict=True), policy=endpoint.policy()
        )
        feed_uri = endpoint.uri("/registrar/changelist.xml")
        rpt = auditor.audit(endpoint.entry_uri, registrar_feed=feed_uri)
        registrar = rpt.results[:3]
        assert [r.check_id for r in registrar] == ["R1", "R2", "R3"]
        assert all(r.verdict is Verdict.PASS for r in registrar)
        assert rpt.result_for("R1").evidence[0][0] == feed_uri

    def test_without_registrar_feed_those_checks_are_skipped(self, endpoint):
        auditor = Auditor(
            client=SignpostClient(FAST, strict=True), policy=endpoint.policy()
        )
        rpt = auditor.audit(endpoint.entry_uri)
        for check_id in ("R1", "R2", "R3"):
            assert rpt.result_for(check_id).verdict is Verdict.NOT_APPLICABLE
        assert rpt.score == "9/9"

    def test_the_first_candidate_that_answers_is_the_registrar_feed(self, endpoint):
        auditor = Auditor(
            client=SignpostClient(FAST, strict=True), policy=endpoint.policy()
        )
        feed = endpoint.uri("/registrar/changelist.xml")
        endpoint.clear_log()
        rpt = auditor.audit(
            endpoint.entry_uri,
            publisher_feed=endpoint.uri("/changelist.xml"),
            registrar_candidates=[endpoint.uri("/no-such-feed.xml"), feed],
        )
        assert rpt.result_for("R1").verdict is Verdict.PASS
        assert rpt.result_for("R1").evidence[0][0] == feed
        gets = [e.path for e in endpoint.log() if e.method == "GET"]
        assert gets.count("/registrar/changelist.xml") == 1
        unanswered = auditor.audit(
            endpoint.entry_uri, registrar_candidates=[endpoint.uri("/no-such-feed.xml")]
        )
        for check_id in ("R1", "R2", "R3"):
            assert unanswered.result_for(check_id).verdict is Verdict.NOT_APPLICABLE

    def test_two_object_endpoint_audits_each_entry_clean(self):
        with serve(plos_spec(), landing_spec()) as ep:
            auditor = Auditor(
                client=SignpostClient(FAST, strict=True), policy=ep.policy()
            )
            for view in ep.views:
                rpt = auditor.audit(
                    view.entry_uri,
                    publisher_feed=ep.uri("/changelist.xml"),
                    registrar_feed=ep.uri("/registrar/changelist.xml"),
                )
                assert rpt.all_passed, (view.entry_uri, [r.check_id for r in rpt.failed])

    def test_entry_beyond_the_sample_is_located(self):
        # R5 must find the entry's own event anywhere in the feed, while
        # every other check still reads only the first five events
        with serve(*distinct_specs(8, patterns=(plos_spec,))) as ep:
            client = SignpostClient(FAST)
            feed = parse_change_list(client.fetch_resource(ep.publisher_feed_uri).body)
            order = [event.loc for event in feed.events]
            counts = []
            for entry_uri in (order[0], order[5]):
                ep.clear_log()
                rpt = _audit(ep, entry_uri)
                counts.append(len(ep.log()))
                assert rpt.result_for("R5").verdict is Verdict.PASS, entry_uri
                assert rpt.all_passed, (entry_uri, [r.check_id for r in rpt.failed])
        # R3's resolution ends on the first entry page, whose own HEAD the
        # audit's memo then answers; beyond that one request the counts
        # do not depend on where the entry's event sits in the feed
        assert counts[1] == counts[0] + 1

    def test_each_audit_makes_its_own_requests(self, endpoint):
        auditor = Auditor(
            client=SignpostClient(FAST, strict=True), policy=endpoint.policy()
        )
        logs = []
        for _ in range(2):
            endpoint.clear_log()
            auditor.audit(
                endpoint.entry_uri,
                publisher_feed=endpoint.uri("/changelist.xml"),
                registrar_feed=endpoint.uri("/registrar/changelist.xml"),
            )
            logs.append([(e.method, e.path) for e in endpoint.log()])
        assert logs[0] == logs[1]
        # R3's walk ends on the entry page, which the surface then reads
        # from the audit's memo
        assert len(logs[0]) == len(set(logs[0])) == 10

    def test_audit_is_read_only(self, endpoint):
        endpoint.clear_log()
        _audit(endpoint)
        assert {e.method for e in endpoint.log()} <= {"HEAD", "GET"}


class TestAblations:
    @pytest.mark.parametrize(
        "feature,expected", sorted(ABLATION_RECOMMENDATION.items())
    )
    def test_each_ablation_fails_exactly_its_recommendation(self, feature, expected):
        with serve(degrade(plos_spec(), feature)) as ep:
            rpt = _audit(ep)
        assert [r.check_id for r in rpt.failed] == [expected]
        assert all(
            r.verdict is Verdict.PASS
            for r in rpt.results
            if r.check_id != expected
        )

    def test_failed_checks_carry_offending_uris(self):
        with serve(degrade(plos_spec(), "no-collection-backlink")) as ep:
            rpt = _audit(ep)
            failed = rpt.result_for("R8")
            assert failed.verdict is Verdict.FAIL
            assert len(failed.evidence) == 3
            assert all(uri.startswith(ep.base_uri) for uri, _ in failed.evidence)

    def test_no_doi_anywhere_shrinks_the_denominator(self):
        with serve(degrade(plos_spec(), "no-doi-anywhere")) as ep:
            rpt = _audit(ep)
        assert rpt.result_for("R10").verdict is Verdict.NOT_APPLICABLE
        assert rpt.result_for("R12").verdict is Verdict.NOT_APPLICABLE
        assert rpt.failed == ()
        assert rpt.score == "10/10"
        assert "(2 not applicable)" in render_report(rpt)

    def test_missing_describes_backlink_fails_only_r11(self):
        with serve(degrade(plos_spec(), "no-describes-backlink")) as ep:
            rpt = _audit(ep)
        assert [r.check_id for r in rpt.failed] == ["R11"]
        assert "point back" in rpt.result_for("R11").evidence[0][1]

    def test_unreadable_entry_header_fails_not_skips(self):
        # the walk is strict end to end, so resolution through the broken
        # landing header fails R3 as well as the entry-based checks
        with serve(degrade(plos_spec(), "malformed-entry-header")) as ep:
            rpt = _audit(ep)
        assert [r.check_id for r in rpt.failed] == ["R3", "R7", "R11", "R12"]
        assert "unreadable" in rpt.result_for("R7").evidence[0][1]

    def test_unreachable_feed_fails_r1_with_the_reason(self, endpoint):
        auditor = Auditor(
            client=SignpostClient(FAST, strict=True), policy=endpoint.policy()
        )
        rpt = auditor.audit(
            endpoint.entry_uri,
            publisher_feed=endpoint.uri("/changelist.xml"),
            registrar_feed=endpoint.uri("/no-such-feed.xml"),
        )
        r1 = rpt.result_for("R1")
        assert r1.verdict is Verdict.FAIL
        assert "feed unavailable" in r1.evidence[0][1]
        # the registrar events are gone but the entry still names the DOI
        assert rpt.result_for("R2").verdict is Verdict.PASS
        assert rpt.result_for("R3").verdict is Verdict.PASS


class TestSampleCap:
    """R8 and R12 HEAD at most five members of an object with more."""

    @staticmethod
    def _seven_assets():
        spec = plos_spec()
        extra = tuple(
            AssetSpec(
                path=f"/plosone/article.s{n:03d}",
                media_type="text/html",
                sem_type=SEM_OBJECT_FILE,
                body_text=f"<html><body>supplement {n}</body></html>\n",
            )
            for n in range(2, 6)
        )
        return dataclasses.replace(spec, assets=spec.assets + extra)

    def test_only_five_members_are_requested(self):
        spec = self._seven_assets()
        assert len(spec.assets) == 7
        with serve(spec) as ep:
            rpt = _audit(ep)
            paths = {e.path for e in ep.log()}
        assert rpt.all_passed
        assert "5 member(s)" in rpt.result_for("R8").evidence[0][1]
        assert "5 member(s)" in rpt.result_for("R12").evidence[0][1]
        assert {a.path for a in spec.assets[:5]} <= paths
        assert not {a.path for a in spec.assets[5:]} & paths

    def test_the_cap_bounds_the_offenders(self):
        spec = degrade(self._seven_assets(), "no-collection-backlink")
        with serve(spec) as ep:
            rpt = _audit(ep)
            paths = {e.path for e in ep.log()}
            sampled = [ep.uri(a.path) for a in spec.assets[:5]]
        r8 = rpt.result_for("R8")
        assert r8.verdict is Verdict.FAIL
        assert [uri for uri, _ in r8.evidence] == sampled
        assert not {a.path for a in spec.assets[5:]} & paths

    def test_the_claim_search_heads_only_the_sample(self):
        # no claim anywhere, so the search reads every member it may
        spec = degrade(self._seven_assets(), "no-doi-anywhere")
        with serve(spec) as ep:
            rpt = _audit(ep)
            heads = {e.path for e in ep.log() if e.method == "HEAD"}
        assert {a.path for a in spec.assets[:5]} <= heads
        assert not {a.path for a in spec.assets[5:]} & heads
        assert rpt.result_for("R10").verdict is Verdict.NOT_APPLICABLE
        assert rpt.result_for("R12").verdict is Verdict.NOT_APPLICABLE


def _spec(pattern, fixture):
    spec = PATTERNS[pattern]()
    return spec if fixture == "clean" else degrade(spec, fixture)


def golden_lines(pattern, fixture):
    """The audit of one fixture, once per registrar candidate, as lines of
    ``audit_matrix.jsonl``: the case and the JSON report, without
    ``generated_at`` and with the server's base URI replaced by ``BASE``."""
    lines = []
    with serve(_spec(pattern, fixture)) as ep:
        auditor = Auditor(client=SignpostClient(FAST, strict=True), policy=ep.policy())
        for registrar in REGISTRARS:
            candidates = () if registrar == "none" else (ep.uri(registrar),)
            rpt = auditor.audit(ep.entry_uri, registrar_candidates=candidates)
            report = json.loads(render_report(rpt, fmt="json").replace(ep.base_uri, BASE))
            del report["generated_at"]
            case = {"pattern": pattern, "fixture": fixture, "registrar": registrar}
            lines.append(json.dumps({"case": case, "report": report}, sort_keys=True))
    return lines


class TestGoldenReports:
    """Every pattern, with every ablation or none, audited without and
    with a registrar feed gives the report recorded in
    ``data/golden/audit_matrix.jsonl``, byte for byte. The file was
    written once by ``golden_lines`` and is never regenerated."""

    @pytest.fixture(scope="class")
    def golden(self):
        lines = GOLDEN_REPORTS.read_text(encoding="utf-8").splitlines()
        by_case = {}
        for line in lines:
            case = json.loads(line)["case"]
            by_case[case["pattern"], case["fixture"], case["registrar"]] = line
        return by_case

    def test_every_case_is_recorded(self, golden):
        assert sorted(golden) == sorted(
            (p, f, r) for p in PATTERNS for f in FIXTURES for r in REGISTRARS
        )
        assert len(golden) == 64

    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_report_is_unchanged(self, golden, pattern, fixture):
        expected = [golden[pattern, fixture, registrar] for registrar in REGISTRARS]
        assert golden_lines(pattern, fixture) == expected
