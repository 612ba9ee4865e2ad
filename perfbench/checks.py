"""Checks of `sgp`'s outputs against the expectations the stand-in
computed from the generated specs.

Each check returns one list of problems per operation (an ingested
object or an audited entry); an empty list means the output was right.
"""

from __future__ import annotations

import json
from collections import Counter

from sgp.harvester import IngestStore


def _record_problems(record: dict, want: dict, store: IngestStore) -> list[str]:
    problems = []
    obj = record["object"]
    if obj.get("identifying_uri") != want["key"]:
        problems.append(f"identifying URI {obj.get('identifying_uri')!r}")
    uris = sorted(r["uri"] for r in obj["publication_resources"])
    if uris != sorted(want["publication"]):
        problems.append(f"publication URIs {uris}")
    completeness = record["completeness"]
    if not completeness["passed"] or completeness["failures"]:
        problems.append(f"completeness {completeness}")
    fetched = {f["uri"]: f for f in record["fetches"]}
    for uri, digest in want["publication"].items():
        fetch = fetched.get(uri)
        if fetch is None or fetch["status"] != 200 or fetch.get("sha256") != digest:
            problems.append(f"payload of {uri}: {fetch}")
        elif not store.payload_path(digest).is_file():
            problems.append(f"payload of {uri} not in the store")
    for uri, digest in want["documents"].items():
        fetch = fetched.get(uri)
        if fetch is not None and fetch.get("sha256") != digest:
            problems.append(f"document {uri}: {fetch}")
    bibliography = record["bibliography"]
    if want["bib_linked"]:
        if bibliography["matched"] is not True:
            problems.append(f"bibliography not matched: {bibliography['notes']}")
    else:
        kept = bibliography["record"] or {}
        if (
            bibliography["matched"] is not None
            or kept.get("doi", "").lower() != want["doi"]
            or kept.get("title") != want["title"]
        ):
            problems.append(f"registrar record not kept: {bibliography}")
    if store.versions(want["key"]) != [1]:
        problems.append(f"record versions {store.versions(want['key'])}")
    return problems


def _passes(record: dict) -> bool:
    return (
        record["completeness"]["passed"]
        and record["substance"]["passed"]
        and record["bibliography"]["matched"] is not False
    )


def check_ingest(
    output: str, code: int, store: IngestStore, expect: list[dict], fsck: list[str]
) -> list[list[str]]:
    """Problems per expected object for one `sgp harvest` run whose
    stdout was `output`, exit code `code`, and store `store`."""
    try:
        records = json.loads(output)["records"]
    except (ValueError, KeyError) as exc:
        return [[f"unreadable harvest output: {exc}"] for _ in expect]
    shared = [f"fsck: {problem}" for problem in fsck]
    if code != (0 if all(_passes(r) for r in records) else 1):
        shared.append(f"exit code {code} disagrees with the records")
    journal = Counter(key for _, key, _, _ in store.journal_entries())
    if sum(journal.values()) != len(expect):
        shared.append(f"{sum(journal.values())} journal lines for {len(expect)} objects")
    by_entry: dict[str, list[dict]] = {}
    for record in records:
        by_entry.setdefault(record["trigger"]["loc"], []).append(record)
    results = []
    for want in expect:
        found = by_entry.get(want["entry"], [])
        if len(found) != 1:
            problems = [f"{len(found)} records for {want['entry']}"]
        else:
            problems = _record_problems(found[0], want, store)
        if journal[want["key"]] != 1:
            problems.append(f"{journal[want['key']]} journal lines")
        results.append(shared + problems)
    return results


def check_audit(output: str, code: int, want: dict) -> tuple[list[str], bool]:
    """(problems, known): `known` is True when the only wrong verdict is
    the extra R5 failure of an entry beyond the auditor's feed sample."""
    try:
        results = json.loads(output)["results"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable audit output: {exc}"], False
    failed = sorted(r["check"] for r in results if r["verdict"] == "fail")
    problems = []
    if len(results) != 12:
        problems.append(f"{len(results)} checks reported")
    if code != (1 if failed else 0):
        problems.append(f"exit code {code} with failed checks {failed}")
    if failed != sorted(want["failed"]):
        problems.append(f"failed checks {failed}, expected {want['failed']}")
    known = (
        want["known_r5_fault"]
        and len(problems) == 1
        and failed == sorted([*want["failed"], "R5"])
    )
    return problems, known
