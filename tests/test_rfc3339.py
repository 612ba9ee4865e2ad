"""Tests for the RFC 3339 helpers.

They import nothing but the standard library and ``sgp.rfc3339``, so they
also run as a plain script on an interpreter without pytest:

    PYTHONPATH=src python3 tests/test_rfc3339.py
"""

from datetime import datetime, timedelta, timezone

from sgp.rfc3339 import format_rfc3339, parse_rfc3339

WHOLE = datetime(2014, 1, 2, 8, 35, 2, tzinfo=timezone.utc)


def _rejected(text: str) -> bool:
    try:
        parse_rfc3339(text)
    except ValueError:
        return True
    return False


def test_a_fraction_of_one_to_nine_digits_parses_to_the_whole_second():
    for digits in range(1, 10):
        stamp = "2014-01-02T08:35:02." + "987654321"[:digits]
        assert parse_rfc3339(stamp + "Z") == WHOLE, stamp
        assert parse_rfc3339(stamp + "z") == WHOLE, stamp
        assert parse_rfc3339(stamp + "+00:00") == WHOLE, stamp
        assert parse_rfc3339(stamp) == WHOLE, stamp
        assert parse_rfc3339(stamp + "-05:00") == WHOLE + timedelta(hours=5), stamp


def test_offsets_and_naive_input_come_back_as_utc():
    assert parse_rfc3339("2014-01-02T08:35:02Z") == WHOLE
    assert parse_rfc3339(" 2014-01-02T10:35:02+02:00 ") == WHOLE
    assert parse_rfc3339("2014-01-02T08:35:02") == WHOLE
    assert parse_rfc3339("2014-01-02T08:35:02Z").tzinfo is timezone.utc


def test_a_fraction_anywhere_but_the_seconds_is_rejected():
    for text in (
        "garbage",
        "2014-01-02T08:35:02.5.5Z",
        "2014-01-02.5T08:35:02Z",
        "2014-01-02T08:35:02.5x",
    ):
        assert _rejected(text), text


def test_format_round_trips_at_whole_seconds():
    assert format_rfc3339(WHOLE) == "2014-01-02T08:35:02Z"
    assert parse_rfc3339(format_rfc3339(WHOLE)) == WHOLE
    assert format_rfc3339(datetime(2014, 1, 2, 8, 35, 2, 999999)) == "2014-01-02T08:35:02Z"


if __name__ == "__main__":
    import sys

    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    print(f"{sys.version.split()[0]}: all passed")
