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


def test_an_unparseable_stamp_fails_on_every_call():
    # the conversions are cached; a failure must not be
    for text in ("garbage", "2014-13-02T08:35:02Z", "garbage"):
        for _ in range(3):
            assert _rejected(text), text
    assert parse_rfc3339("2014-01-02T08:35:02Z") == WHOLE


def test_a_value_that_is_no_string_fails_as_uncached():
    for value in (None, 5, ["2014-01-02T08:35:02Z"]):
        for _ in range(2):
            try:
                parse_rfc3339(value)
            except AttributeError as exc:
                assert "strip" in str(exc), value
            else:
                raise AssertionError(f"{value!r} parsed")


def test_one_instant_at_two_offsets_formats_the_same():
    east = WHOLE.astimezone(timezone(timedelta(hours=5, minutes=30)))
    west = WHOLE.astimezone(timezone(timedelta(hours=-7)))
    assert east == west == WHOLE
    assert format_rfc3339(east) == format_rfc3339(west) == "2014-01-02T08:35:02Z"
    # in either order of first use
    later = WHOLE + timedelta(seconds=1)
    assert format_rfc3339(later.astimezone(timezone(timedelta(hours=-7)))) == "2014-01-02T08:35:03Z"
    assert format_rfc3339(later) == "2014-01-02T08:35:03Z"


def test_naive_input_is_taken_as_utc_by_both():
    naive = datetime(2014, 1, 2, 8, 35, 2)
    for _ in range(2):
        assert format_rfc3339(naive) == format_rfc3339(WHOLE) == "2014-01-02T08:35:02Z"
        assert parse_rfc3339("2014-01-02T08:35:02") == WHOLE
        assert parse_rfc3339("2014-01-02T08:35:02").tzinfo is timezone.utc


if __name__ == "__main__":
    import sys

    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    print(f"{sys.version.split()[0]}: all passed")
