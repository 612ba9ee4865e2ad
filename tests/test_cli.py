"""Tests for the command line: exit codes, output streams, settings."""

import contextlib
import dataclasses
import json
import signal
import subprocess
import sys
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest
from gen import distinct_specs

from sgp import cli, resourcesync
from sgp.cli import run
from sgp.fixity import FixityInfo
from sgp.fixtures import (
    ABLATION_RECOMMENDATION,
    FixtureSpec,
    degrade,
    landing_spec,
    plos_spec,
    serve,
)
from sgp.harvester import IngestStore, pack_object_dump
from sgp.navigator import HostThrottle, SignpostClient
from sgp.resourcesync import (
    ChangeDumpIndex,
    ChangeList,
    emit_change_list,
    pack_change_dump,
    parse_change_list,
    unpack_change_dump,
)
from sgp.rfc3339 import parse_rfc3339

DOI = "10.1371/journal.pone.0115253"
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def endpoint():
    with serve(plos_spec()) as ep:
        yield ep


@contextlib.contextmanager
def _serving(body, content_type):
    """A server that answers every GET with 200 and ``body``; yields its base URI."""

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def _out_json(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


class TestResolve:
    def test_prints_the_object_as_json(self, endpoint, capsys):
        rc = run(["resolve", endpoint.doi_uri])
        payload, err = _out_json(capsys)
        assert rc == 0
        assert err == ""
        assert payload["entry_page"]["uri"] == endpoint.entry_uri
        assert payload["pattern"] == "plos-style"
        assert payload["schema_version"] == 1

    def test_no_signposting_is_a_verification_failure(self, endpoint, capsys):
        rc = run(["resolve", endpoint.uri("/plain")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "NoEntryPage" in captured.err

    def test_unreachable_host_is_unavailable(self, capsys):
        rc = run(["resolve", "http://127.0.0.1:9/nothing"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error:")


class TestFeed:
    def test_parse_normalizes_a_file(self, capsys):
        rc = run(["feed", "parse", str(DATA / "registrar_event.xml")])
        payload, err = _out_json(capsys)
        assert rc == 0
        assert err == ""
        assert payload["capability"] == "changelist"
        event = payload["events"][0]
        assert event["change"] == "created"
        assert event["loc"].startswith("http://dx.doi.org/")

    def test_parse_prints_the_golden_document(self, capsys):
        rc = run(["feed", "parse", str(DATA / "publisher_event.xml")])
        assert rc == 0
        golden = DATA / "golden" / "feed_parse_publisher.json"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_parse_fetches_a_uri(self, endpoint, capsys):
        rc = run(["feed", "parse", endpoint.publisher_feed_uri])
        payload, _ = _out_json(capsys)
        assert rc == 0
        assert payload["events"][0]["loc"] == endpoint.entry_uri

    def test_parse_missing_file_is_usage_error(self, capsys):
        rc = run(["feed", "parse", "does-not-exist.xml"])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_garbage_is_unavailable(self, tmp_path, capsys):
        bad = tmp_path / "feed.xml"
        bad.write_bytes(b"this is not a feed")
        rc = run(["feed", "parse", str(bad)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_parse_keeps_a_link_type_that_is_no_media_type(self, tmp_path, capsys):
        feed = tmp_path / "feed.xml"
        feed.write_text(
            '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
            'xmlns:rs="http://www.openarchives.org/rs/terms/">'
            '<rs:md capability="changelist"/><url><loc>http://x.example/1</loc>'
            '<rs:md change="created" datetime="2016-01-01T00:00:00Z"/>'
            '<rs:ln rel="item" href="http://x.example/a" type="not a type"/></url></urlset>',
            encoding="utf-8",
        )
        rc = run(["feed", "parse", str(feed)])
        payload, err = _out_json(capsys)
        assert rc == 0
        assert err == ""
        link = payload["events"][0]["links"][0]
        assert "type" not in link
        assert link["extra"] == [["type", "not a type"]]

    def test_emit_round_trips_through_parse(self, endpoint, tmp_path, capsys):
        run(["resolve", endpoint.doi_uri])
        objfile = tmp_path / "object.json"
        objfile.write_text(capsys.readouterr().out)
        rc = run(
            [
                "feed",
                "emit",
                "--object",
                str(objfile),
                "--change",
                "updated",
                "--when",
                "2026-01-02T03:04:05Z",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        feed = parse_change_list(captured.out)
        assert len(feed.events) == 1
        assert feed.events[0].loc == endpoint.entry_uri
        assert feed.events[0].kind.value == "updated"
        assert feed.events[0].datetime.year == 2026

    def test_emit_rejects_a_bad_timestamp(self, endpoint, tmp_path, capsys):
        run(["resolve", endpoint.doi_uri])
        objfile = tmp_path / "object.json"
        objfile.write_text(capsys.readouterr().out)
        rc = run(["feed", "emit", "--object", str(objfile), "--when", "yesterday"])
        assert rc == 2
        assert "bad --when" in capsys.readouterr().err

    def test_emit_rejects_a_missing_object_file(self, capsys):
        rc = run(["feed", "emit", "--object", "nope.json"])
        assert rc == 2


class TestHarvest:
    def test_clean_harvest_exits_zero(self, endpoint, tmp_path, capsys):
        store = tmp_path / "store"
        rc = run(
            [
                "harvest",
                "--feed",
                endpoint.publisher_feed_uri,
                "--store",
                str(store),
                "--api-base",
                endpoint.base_uri,
            ]
        )
        payload, err = _out_json(capsys)
        assert rc == 0
        assert err == ""
        record = payload["records"][0]
        assert record["completeness"]["passed"]
        assert record["bibliography"]["matched"] is True
        assert (store / "journal.log").exists()
        assert any((store / "payloads").iterdir())

    def test_stdout_holds_the_stored_records_byte_for_byte(self, tmp_path, capsys):
        # the harvest document is what json.dumps(..., sort_keys=True)
        # prints, and each record in it is its stored line
        store = tmp_path / 'st"or\u00e9'
        with serve(plos_spec(), landing_spec()) as ep:
            rc = run(
                [
                    "harvest",
                    "--feed",
                    ep.publisher_feed_uri,
                    "--store",
                    str(store),
                    "--api-base",
                    ep.base_uri,
                ]
            )
        out = capsys.readouterr().out
        assert rc == 0
        stored = IngestStore(store)
        lines = [
            (stored._key_dir(key) / f"{version:04d}.json").read_text(encoding="utf-8")
            for _, key, version, _ in stored.journal_entries()
        ]
        assert len(lines) == 2
        document = {
            "records": [json.loads(line) for line in lines],
            "schema_version": 1,
            "store": str(store),
        }
        assert out == json.dumps(document, sort_keys=True) + "\n"
        at = 0
        for line in lines:
            assert line.endswith("\n") and line.count("\n") == 1
            at = out.index(line[:-1], at) + len(line) - 1
            assert out[at] in ",]"

    def test_feed_loc_with_a_tab_is_unavailable(self, tmp_path, capsys):
        # the feed writer refuses such a loc, so the tab goes in afterwards
        with serve(plos_spec()) as ep:
            with urllib.request.urlopen(ep.publisher_feed_uri, timeout=5) as resp:
                body = resp.read().replace(b"/plosone/article", b"/plosone/art\ticle")
            with _serving(body, "application/xml") as base:
                rc = run(["harvest", "--feed", base, "--store", str(tmp_path / "store")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not (tmp_path / "store" / "journal.log").exists()

    def test_failed_member_fetch_exits_one(self, tmp_path, capsys):
        spec = plos_spec()
        spec = FixtureSpec.from_json_dict(
            {
                **spec.to_json_dict(),
                "status_scripts": [["/plosone/article.xml", [404, 404]]],
            }
        )
        with serve(spec) as ep:
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
        payload, _ = _out_json(capsys)
        assert rc == 1
        assert not payload["records"][0]["completeness"]["passed"]

    def test_unsupported_feed_fixity_exits_one(self, endpoint, tmp_path, capsys, monkeypatch):
        parse = cli.parse_change_list
        fixity = FixityInfo(algorithm="sha-512", digest="ab" * 64)

        def sha512_feed(body):
            # the served feed, re-emitted with a sha-512 hash on every entry
            events = tuple(
                dataclasses.replace(event, fixity=fixity) for event in parse(body).events
            )
            return parse(emit_change_list(ChangeList(events=events)))

        monkeypatch.setattr(cli, "parse_change_list", sha512_feed)
        rc = run(
            [
                "harvest",
                "--feed",
                endpoint.publisher_feed_uri,
                "--store",
                str(tmp_path / "store"),
                "--api-base",
                endpoint.base_uri,
            ]
        )
        payload, err = _out_json(capsys)
        assert rc == 1
        assert err == ""
        completeness = payload["records"][0]["completeness"]
        assert not completeness["passed"]
        assert [endpoint.entry_uri, "fixity: unsupported algorithm sha-512"] in completeness[
            "failures"
        ]

    def test_filter_tag_is_recorded(self, endpoint, tmp_path, capsys):
        rc = run(
            [
                "harvest",
                "--feed",
                endpoint.publisher_feed_uri,
                "--store",
                str(tmp_path / "store"),
                "--api-base",
                endpoint.base_uri,
                "--filter",
                "journals",
            ]
        )
        payload, _ = _out_json(capsys)
        assert rc == 0
        assert payload["records"][0]["filter_tag"] == "journals"

    def test_substance_policy_file_is_applied(self, endpoint, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(
            json.dumps({"default": {"min_pdf_count": 1, "min_pdf_bytes": 1_000_000}})
        )
        rc = run(
            [
                "harvest",
                "--feed",
                endpoint.publisher_feed_uri,
                "--store",
                str(tmp_path / "store"),
                "--api-base",
                endpoint.base_uri,
                "--policy",
                str(policy),
            ]
        )
        payload, _ = _out_json(capsys)
        # the fixture pdf is far smaller than a megabyte
        assert rc == 1
        assert not payload["records"][0]["substance"]["passed"]

    def test_missing_store_is_usage_error(self, endpoint, capsys):
        rc = run(["harvest", "--feed", endpoint.publisher_feed_uri])
        assert rc == 2
        assert "store" in capsys.readouterr().err

    def test_store_comes_from_environment(self, endpoint, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SGP_STORE", str(tmp_path / "envstore"))
        monkeypatch.setenv("SGP_API_BASE", endpoint.base_uri)
        rc = run(["harvest", "--feed", endpoint.publisher_feed_uri])
        assert rc == 0
        assert (tmp_path / "envstore" / "journal.log").exists()

    def test_flag_beats_environment_beats_config(
        self, endpoint, tmp_path, monkeypatch, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"store": str(tmp_path / "from-config"), "api_base": endpoint.base_uri}
            )
        )
        monkeypatch.setenv("SGP_STORE", str(tmp_path / "from-env"))
        rc = run(
            [
                "harvest",
                "--feed",
                endpoint.publisher_feed_uri,
                "--store",
                str(tmp_path / "from-flag"),
                "--config",
                str(config),
            ]
        )
        assert rc == 0
        assert (tmp_path / "from-flag").exists()
        assert not (tmp_path / "from-env").exists()
        assert not (tmp_path / "from-config").exists()

    def test_config_file_supplies_the_store(self, endpoint, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"store": str(tmp_path / "from-config"), "api_base": endpoint.base_uri}
            )
        )
        rc = run(
            [
                "harvest",
                "--feed",
                endpoint.publisher_feed_uri,
                "--config",
                str(config),
            ]
        )
        assert rc == 0
        assert (tmp_path / "from-config" / "journal.log").exists()

    def test_registrar_lookups_share_the_throttle(self, tmp_path, monkeypatch, capsys):
        # without describedby the registrar is asked through the works API
        acquired = []
        acquire = HostThrottle.acquire

        def counting(throttle, host):
            acquired.append(host)
            return acquire(throttle, host)

        monkeypatch.setattr(HostThrottle, "acquire", counting)
        with serve(degrade(plos_spec(), "no-entry-describedby")) as ep:
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
            log = ep.log()
        payload, _ = _out_json(capsys)
        assert rc == 0
        assert payload["records"][0]["bibliography"]["record"]["doi"] == ep.spec.doi
        assert any(entry.path.startswith("/works/") for entry in log)
        assert len(acquired) == len(log)


@contextlib.contextmanager
def _works_api(messages: dict):
    """A works API serving ``messages`` (DOI -> work message): each at
    ``/works/<doi>``, and all of them as the items of any ``/works?...``
    list; yields its base URI."""

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            path, _, query = self.path.partition("?")
            if query:
                doc = {"message-type": "work-list", "message": {"items": list(messages.values())}}
            else:
                doc = {"message-type": "work", "message": messages[path[len("/works/") :]]}
            body = json.dumps({"status": "ok", **doc}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


class TestHarvestRegistrarLookups:
    """Objects without a registrar describedby link get their registrar
    record from the works API, one list request for the whole feed."""

    @staticmethod
    def _harvest(ep, store, api_base):
        return run(
            ["harvest", "--feed", ep.publisher_feed_uri, "--store", str(store), "--api-base", api_base]
        )

    def test_one_list_request_for_a_multi_object_feed(self, tmp_path, capsys):
        specs = [degrade(spec, "no-entry-describedby") for spec in distinct_specs(4)]
        with serve(*specs) as ep:
            rc = self._harvest(ep, tmp_path / "store", ep.base_uri)
            works = [e.path for e in ep.log() if e.path.startswith("/works")]
        payload, err = _out_json(capsys)
        assert rc == 0, err
        assert len(works) == 1
        assert works[0].startswith("/works?filter=")
        assert works[0].endswith("&rows=4")
        records = payload["records"]
        assert sorted(r["bibliography"]["record"]["doi"] for r in records) == sorted(
            spec.doi for spec in specs
        )
        assert all(
            r["bibliography"]["notes"] == ["publisher metadata unavailable; registrar record kept"]
            for r in records
        )

    def test_hostile_registrar_json_is_a_note(self, tmp_path, capsys):
        specs = [degrade(spec, "no-entry-describedby") for spec in distinct_specs(2)]
        with serve(*specs) as ep:
            messages = {view.spec.doi: view.work_json_dict() for view in ep.views}
            hostile = specs[1].doi
            messages[hostile]["author"] = ["x"]
            with _works_api(messages) as api:
                rc = self._harvest(ep, tmp_path / "store", api)
        payload, err = _out_json(capsys)
        assert rc == 0, err
        by_doi = {r["trigger"]["loc"]: r["bibliography"] for r in payload["records"]}
        good, bad = (by_doi[view.entry_uri] for view in ep.views)
        assert good["record"]["doi"] == specs[0].doi
        assert bad["record"] is None
        assert bad["notes"] == [
            f"registrar lookup failed for {hostile}: author is not a list of objects",
            "no bibliographic metadata found",
        ]


def _dump_of(ep) -> bytes:
    """One change dump holding every object the endpoint serves."""
    client = SignpostClient()
    entries = []
    for view in ep.views:
        obj = view.scholarly_object()
        uris = [*obj.publication_uris, *(b.uri for b in obj.bibliographic_resources)]
        bodies = {uri: client.fetch_resource(uri).body for uri in uris}
        _, one = pack_object_dump(obj, bodies, parse_rfc3339(view.spec.deposited))
        manifest, payloads = unpack_change_dump(one)
        entries += [(event, payloads[path]) for path, event in manifest.entries]
    return pack_change_dump(entries)


@pytest.fixture(scope="module")
def four_objects():
    with serve(*distinct_specs(4)) as ep:
        yield ep, _dump_of(ep)


class TestHarvestDump:
    def _harvest(self, ep, dump_path, store):
        return run(
            [
                "harvest",
                "--feed",
                ep.publisher_feed_uri,
                "--store",
                str(store),
                "--dump",
                str(dump_path),
            ]
        )

    def test_replay_opens_the_dump_once(self, four_objects, tmp_path, monkeypatch, capsys):
        ep, dump = four_objects
        dump_path = tmp_path / "dump.zip"
        dump_path.write_bytes(dump)
        manifests = []
        parse = resourcesync._parse_urlset

        def counting(xml_text, capability, *args, **kwargs):
            if capability == "changedump-manifest":
                manifests.append(capability)
            return parse(xml_text, capability, *args, **kwargs)

        monkeypatch.setattr(resourcesync, "_parse_urlset", counting)
        tasks = []
        ingest_all = cli.ingest_all

        def spying(batch, *args, **kwargs):
            tasks.extend(batch)
            return ingest_all(batch, *args, **kwargs)

        monkeypatch.setattr(cli, "ingest_all", spying)
        rc = self._harvest(ep, dump_path, tmp_path / "store")
        payload, err = _out_json(capsys)
        assert rc == 0, err
        records = payload["records"]
        assert sorted(r["trigger"]["loc"] for r in records) == sorted(
            view.entry_uri for view in ep.views
        )
        assert {r["mode"] for r in records} == {"dump"}
        assert all(r["completeness"]["passed"] for r in records)
        assert all(r["bibliography"]["matched"] is True for r in records)
        assert manifests == ["changedump-manifest"]
        assert len(tasks) == 4
        assert all(isinstance(task.dump, ChangeDumpIndex) for task in tasks)
        assert len({id(task.dump) for task in tasks}) == 1
        with pytest.raises(ValueError, match="closed"):
            tasks[0].dump.read("manifest.xml")

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_corrupt_dump_is_unavailable(self, four_objects, damage, tmp_path, capsys):
        ep, dump = four_objects
        dump_path = tmp_path / "dump.zip"
        dump_path.write_bytes(b"this is not a zip" if damage == "garbage" else dump[: len(dump) // 2])
        rc = self._harvest(ep, dump_path, tmp_path / "store")
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_missing_dump_is_usage_error(self, four_objects, tmp_path, capsys):
        ep, _ = four_objects
        rc = self._harvest(ep, tmp_path / "no-such-dump.zip", tmp_path / "store")
        assert rc == 2
        assert "cannot read dump" in capsys.readouterr().err


class TestAudit:
    def test_compliant_endpoint_scores_full_marks(self, endpoint, capsys):
        rc = run(["audit", "--entry", endpoint.entry_uri])
        captured = capsys.readouterr()
        assert rc == 0
        assert "12/12" in captured.out

    def test_json_format(self, endpoint, capsys):
        rc = run(["audit", "--entry", endpoint.entry_uri, "--format", "json"])
        payload, _ = _out_json(capsys)
        assert rc == 0
        assert payload["score"] == "12/12"
        assert len(payload["results"]) == 12

    def test_degraded_endpoint_exits_one(self, capsys):
        with serve(degrade(plos_spec(), "no-describes-backlink")) as ep:
            rc = run(["audit", "--entry", ep.entry_uri])
        captured = capsys.readouterr()
        assert rc == 1
        assert "fail" in captured.out

    def test_explicit_registrar_feed(self, endpoint, capsys):
        rc = run(
            [
                "audit",
                "--entry",
                endpoint.entry_uri,
                "--registrar-feed",
                endpoint.registrar_feed_uri,
                "--publisher-feed",
                endpoint.publisher_feed_uri,
            ]
        )
        assert rc == 0
        assert "12/12" in capsys.readouterr().out

    @pytest.mark.parametrize("pattern", [plos_spec, landing_spec], ids=["plos", "landing"])
    @pytest.mark.parametrize(
        "feature", [None, *sorted(ABLATION_RECOMMENDATION), "malformed-entry-header"]
    )
    def test_an_audit_requests_each_resource_once(self, pattern, feature, capsys):
        spec = pattern() if feature is None else degrade(pattern(), feature)
        with serve(spec) as ep:
            rc = run(["audit", "--entry", ep.entry_uri, "--format", "json"])
            requested = [(e.method, e.path) for e in ep.log()]
        payload, _ = _out_json(capsys)
        assert rc == (0 if feature is None else 1)
        assert len(payload["results"]) == 12
        assert len(requested) == len(set(requested)), requested
        # the probe for the conventional registrar feed is also the audit's read
        assert requested.count(("GET", "/registrar/changelist.xml")) == 1

    @pytest.mark.parametrize(
        "pattern, entry_requests",
        [(plos_spec, 8), (landing_spec, 7)],
        ids=["plos", "landing"],
    )
    def test_an_unreadable_entry_header_is_requested_once(
        self, pattern, entry_requests, capsys
    ):
        # R3's resolution ends on the entry page; its failure there stands
        # for the entry's HEAD in R7, R11 and R12
        with serve(degrade(pattern(), "malformed-entry-header")) as ep:
            rc = run(["audit", "--entry", ep.entry_uri, "--format", "json"])
            requested = [(e.method, e.path) for e in ep.log()]
        payload, _ = _out_json(capsys)
        assert rc == 1
        assert len(requested) == len(set(requested)) == entry_requests
        verdicts = {r["check"]: r["verdict"] for r in payload["results"]}
        failed = {check for check, verdict in verdicts.items() if verdict == "fail"}
        assert failed == {"R3", "R7", "R11", "R12"}
        assert set(verdicts.values()) == {"pass", "fail"}
        evidence = {r["check"]: r["evidence"] for r in payload["results"]}
        assert evidence["R3"] == [
            [ep.doi_uri, "resolution failed: missing '>' (offset 0)"]
        ]
        for check in ("R7", "R11", "R12"):
            assert evidence[check] == [[ep.entry_uri, "Link header unreadable"]]

    def test_a_feed_with_an_unreadable_link_header_is_reported(
        self, broken_feed_links, capsys
    ):
        base = broken_feed_links.base
        rc = run(["audit", "--entry", base + "/entry", "--format", "json"])
        payload, _ = _out_json(capsys)
        assert rc == 1
        results = {result["check"]: result for result in payload["results"]}
        assert len(results) == 12
        for check in ("R1", "R4"):
            assert results[check]["verdict"] == "fail"
            ((uri, text),) = results[check]["evidence"]
            assert uri.startswith(base)
            assert text.startswith("feed unreadable: Link header unreadable: missing '>'")
        # the probe that adopts the registrar list is also R1's read
        gets = [path for method, path in broken_feed_links.log if method == "GET"]
        assert gets.count("/registrar/changelist.xml") == 1
        assert gets.count("/changelist.xml") == 1


@pytest.fixture
def broken_feed_links(endpoint):
    """A host whose two change lists answer 200 with the fixture's feed
    bodies and a Link header that does not parse; every other path is a
    page without links. Yields its ``base`` URI and the (method, path)
    ``log`` of the requests it answered."""
    client = SignpostClient()
    bodies = {
        path: client.fetch_resource(endpoint.uri(path)).body
        for path in ("/changelist.xml", "/registrar/changelist.xml")
    }
    log = []

    class Handler(BaseHTTPRequestHandler):
        def _answer(self, with_body):
            log.append((self.command, self.path))
            body = bodies.get(self.path, b"<html><body>entry</body></html>")
            self.send_response(200)
            if self.path in bodies:
                self.send_header("Content-Type", "application/xml")
                self.send_header("Link", '<broken; rel="x"')
            else:
                self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if with_body:
                self.wfile.write(body)

        def do_GET(self):
            self._answer(True)

        def do_HEAD(self):
            self._answer(False)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield SimpleNamespace(base=f"http://127.0.0.1:{server.server_address[1]}", log=log)
    server.shutdown()
    server.server_close()


def _envelope(message: dict) -> bytes:
    return json.dumps({"status": "ok", "message-type": "work", "message": message}).encode()


# bodies a works API might answer 200 with that are no usable work document
_NOT_WORKS = {
    "html": b"<html><body>maintenance</body></html>",
    "work-list": json.dumps(
        {"status": "ok", "message-type": "work-list", "message": {"items": []}}
    ).encode(),
    "no-doi": _envelope({"title": ["A title"]}),
    "bad-doi": _envelope({"DOI": "junk", "title": ["A title"]}),
    "author-not-object": _envelope({"DOI": DOI, "title": ["A title"], "author": ["x"]}),
    # a work, but not one a record can be built from
    "no-title": _envelope({"DOI": DOI}),
}
_NO_WORK_AT_ALL = ["html", "work-list", "no-doi", "bad-doi", "author-not-object"]


@pytest.fixture
def not_a_work_api(request):
    """A works API that answers every GET with 200 and the ``_NOT_WORKS``
    body named by the test's parameter; yields its base URI."""
    with _serving(_NOT_WORKS[request.param], "application/json") as base:
        yield base


class TestCrossrefWorks:
    def test_prints_the_work_document(self, endpoint, capsys):
        rc = run(["crossref", "works", DOI, "--api-base", endpoint.base_uri])
        payload, err = _out_json(capsys)
        assert rc == 0
        assert err == ""
        assert payload["message"]["DOI"] == DOI
        assert payload["message"]["title"]

    def test_unknown_doi_exits_one(self, endpoint, capsys):
        rc = run(["crossref", "works", "10.9999/absent", "--api-base", endpoint.base_uri])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no work registered" in captured.err

    def test_invalid_doi_is_usage_error(self, endpoint, capsys):
        rc = run(["crossref", "works", "not a doi", "--api-base", endpoint.base_uri])
        assert rc == 2

    def test_api_base_from_environment(self, endpoint, monkeypatch, capsys):
        monkeypatch.setenv("SGP_API_BASE", endpoint.base_uri)
        rc = run(["crossref", "works", DOI])
        payload, _ = _out_json(capsys)
        assert rc == 0
        assert payload["message"]["DOI"] == DOI

    def test_an_empty_flag_counts_as_unset(self, endpoint, monkeypatch, capsys):
        monkeypatch.setenv("SGP_API_BASE", endpoint.base_uri)
        rc = run(["crossref", "works", DOI, "--api-base", ""])
        payload, _ = _out_json(capsys)
        assert rc == 0
        assert payload["message"]["DOI"] == DOI

    def test_an_empty_config_value_counts_as_unset(self, monkeypatch):
        monkeypatch.delenv("SGP_API_BASE", raising=False)
        assert cli._pick(None, "SGP_API_BASE", {"api_base": ""}, "api_base") is None
        assert cli._pick("", "SGP_API_BASE", {"api_base": "http://c.example"}, "api_base") == (
            "http://c.example"
        )

    def test_flag_beats_environment(self, endpoint, monkeypatch, capsys):
        monkeypatch.setenv("SGP_API_BASE", "http://127.0.0.1:9")
        rc = run(["crossref", "works", DOI, "--api-base", endpoint.base_uri])
        assert rc == 0

    @pytest.mark.parametrize("not_a_work_api", _NO_WORK_AT_ALL, indirect=True)
    def test_a_body_that_is_no_work_is_unavailable(self, not_a_work_api, capsys):
        rc = run(["crossref", "works", DOI, "--api-base", not_a_work_api])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {not_a_work_api}/works/{DOI}: ")


class TestReconcile:
    def test_matching_record_exits_zero(self, endpoint, capsys):
        rc = run(
            ["reconcile", str(DATA / "article.bib"), DOI, "--api-base", endpoint.base_uri]
        )
        payload, _ = _out_json(capsys)
        assert rc == 0
        assert payload["matched"] is True
        assert payload["discrepancies"] == []

    def test_title_mutation_exits_one(self, endpoint, tmp_path, capsys):
        mutated = tmp_path / "mutated.bib"
        mutated.write_text(
            (DATA / "article.bib").read_text().replace("Reference Rot", "Linkage Decay")
        )
        rc = run(["reconcile", str(mutated), DOI, "--api-base", endpoint.base_uri])
        payload, _ = _out_json(capsys)
        assert rc == 1
        assert payload["matched"] is False
        fields = {d["field"]: d["severity"] for d in payload["discrepancies"]}
        assert fields == {"title": "major"}

    def test_ris_files_are_supported(self, endpoint, capsys):
        rc = run(
            ["reconcile", str(DATA / "article.ris"), DOI, "--api-base", endpoint.base_uri]
        )
        payload, _ = _out_json(capsys)
        assert rc == 0
        assert payload["matched"] is True

    def test_unknown_extension_is_usage_error(self, tmp_path, capsys):
        stray = tmp_path / "record.txt"
        stray.write_text("not bibliographic")
        rc = run(["reconcile", str(stray), DOI])
        assert rc == 2
        assert "expected .bib or .ris" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        rc = run(["reconcile", "absent.bib", DOI])
        assert rc == 2

    @pytest.mark.parametrize("not_a_work_api", [*_NO_WORK_AT_ALL, "no-title"], indirect=True)
    def test_a_registrar_body_that_is_no_work_is_unavailable(self, not_a_work_api, capsys):
        rc = run(["reconcile", str(DATA / "article.bib"), DOI, "--api-base", not_a_work_api])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        # names the document that was no work
        assert captured.err.startswith(f"error: {not_a_work_api}/works/{DOI}: ")


@pytest.fixture
def serve_child():
    """Start ``python -m sgp fixture serve`` children; kill any still running."""
    procs = []

    def start(specfile: Path, preexec_fn=None) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", "sgp", "fixture", "serve", str(specfile)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=preexec_fn,
        )
        procs.append(proc)
        return proc

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def _no_base_uri(proc: subprocess.Popen) -> str:
    """Assertion message for a child that printed no base URI: its stderr."""
    try:
        _, err = proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    return f"fixture serve printed no base URI (exit {proc.returncode}); stderr:\n{err}"


class TestFixtureServe:
    def test_serves_until_interrupted(self, tmp_path, serve_child):
        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(plos_spec().to_json_dict()))
        proc = serve_child(specfile)
        try:
            base = proc.stdout.readline().strip()
            assert base.startswith("http://127.0.0.1:"), _no_base_uri(proc)
            with urllib.request.urlopen(base + "/changelist.xml", timeout=5) as resp:
                assert resp.status == 200
        finally:
            proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0

    def test_accepts_a_list_of_specs(self, tmp_path, serve_child):
        second = landing_spec()
        specfile = tmp_path / "spec.json"
        specfile.write_text(
            json.dumps([plos_spec().to_json_dict(), second.to_json_dict()])
        )
        proc = serve_child(specfile)
        try:
            base = proc.stdout.readline().strip()
            assert base, _no_base_uri(proc)
            with urllib.request.urlopen(base + second.entry_path, timeout=5) as resp:
                assert resp.status == 200
        finally:
            proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0

    def test_interrupted_when_started_with_sigint_ignored(self, tmp_path, serve_child):
        # a non-interactive shell starts background jobs so
        specfile = tmp_path / "spec.json"
        specfile.write_text(json.dumps(plos_spec().to_json_dict()))
        proc = serve_child(
            specfile, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN)
        )
        try:
            base = proc.stdout.readline().strip()
            assert base.startswith("http://127.0.0.1:"), _no_base_uri(proc)
        finally:
            proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0

    def test_bad_spec_file_is_usage_error(self, capsys):
        rc = run(["fixture", "serve", "no-such-spec.json"])
        assert rc == 2


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert run(["resolve", "--bogus", "x"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "resolve" in capsys.readouterr().out

    LEAVES = {
        "_cmd_resolve": ["resolve", "http://x.example/"],
        "_cmd_feed_parse": ["feed", "parse", "feed.xml"],
        "_cmd_feed_emit": ["feed", "emit", "--object", "object.json"],
        "_cmd_harvest": ["harvest", "--feed", "http://x.example/f.xml"],
        "_cmd_audit": ["audit", "--entry", "http://x.example/e"],
        "_cmd_crossref_works": ["crossref", "works", DOI],
        "_cmd_reconcile": ["reconcile", "article.bib", DOI],
        "_cmd_fixture_serve": ["fixture", "serve", "spec.json"],
    }

    @pytest.mark.parametrize("handler", sorted(LEAVES))
    def test_every_leaf_command_parses_to_its_own_handler(self, handler):
        args = cli._build_parser().parse_args(self.LEAVES[handler])
        assert args.run is getattr(cli, handler)

    def test_every_handler_is_a_leaf_command(self):
        handlers = {name for name in vars(cli) if name.startswith("_cmd_")}
        assert handlers == set(self.LEAVES)

    @pytest.mark.parametrize(
        "argv",
        [
            ["harvest", "--feed", "http://127.0.0.1:9/f.xml", "--store", "store"],
            ["audit", "--entry", "http://127.0.0.1:9/e",
             "--registrar-feed", "http://127.0.0.1:9/r.xml"],
            ["crossref", "works", DOI],
            ["reconcile", str(DATA / "article.bib"), DOI],
        ],
        ids=["harvest", "audit-with-registrar-feed", "crossref-works", "reconcile"],
    )
    @pytest.mark.parametrize("config", ["missing.json", "not-json", "a-list"])
    def test_an_unreadable_config_is_a_usage_error_whatever_else_is_given(
        self, tmp_path, monkeypatch, capsys, argv, config
    ):
        # every other input is usable: without the config each command goes
        # on to the closed port 9 and fails there, not as a usage error
        monkeypatch.chdir(tmp_path)
        Path("not-json").write_text("{")
        Path("a-list").write_text("[]")
        argv = [*argv, "--api-base", "http://127.0.0.1:9", "--config", config]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and f"config {config}" in err
        assert run(argv[:-2]) in (1, 3)

    @pytest.mark.parametrize(
        "command, document",
        [
            (["harvest", "--feed", "http://127.0.0.1:9/f.xml", "--store", "s", "--policy"],
             {"rules": []}),
            (["feed", "emit", "--object"],
             {"entry_page": {"uri": "http://x.example/e", "role": "entry-page", "links": None}}),
            (["feed", "emit", "--object"],
             {"entry_page": {"uri": "http://x.example/e", "role": "entry-page", "links": []}}),
            (["feed", "emit", "--object"],
             {"entry_page": {"uri": "http://x.example/e", "role": "entry-page",
                             "fixity": {"algorithm": 5, "digest": "00"}}}),
        ],
        ids=[
            "policy-rules-a-list",
            "object-links-null",
            "object-links-a-list",
            "object-fixity-algorithm-a-number",
        ],
    )
    def test_wrong_typed_json_file_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command, document
    ):
        monkeypatch.chdir(tmp_path)
        Path("input.json").write_text(json.dumps(document))
        assert run([*command, "input.json"]) == 2
        assert capsys.readouterr().err.startswith("usage error: cannot load ")
