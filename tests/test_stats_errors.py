"""Unit tests for the counter registry and the exception hierarchy."""

import time

import pytest

import repro
from repro.errors import (
    CompositionError,
    EvaluationError,
    IntegrityError,
    MixError,
    NavigationError,
    ParseError,
    PlanError,
    RewriteError,
    SchemaError,
    SourceError,
    SqlError,
    SqlParseError,
    TranslationError,
    TypeMismatchError,
    UnknownSourceError,
    XQueryParseError,
    XmlParseError,
)
from repro.obs import Instrument


class TestStatsRegistry:
    def test_incr_and_get(self):
        stats = Instrument()
        stats.incr("x")
        stats.incr("x", 4)
        assert stats.get("x") == 5
        assert stats.get("missing") == 0

    def test_reset(self):
        stats = Instrument()
        stats.incr("x")
        stats.reset()
        assert stats.get("x") == 0

    def test_snapshot_is_a_copy(self):
        stats = Instrument()
        stats.incr("x")
        snap = stats.snapshot()
        stats.incr("x")
        assert snap["x"] == 1
        assert stats.get("x") == 2

    def test_diff(self):
        stats = Instrument()
        stats.incr("x", 2)
        before = stats.snapshot()
        stats.incr("x", 3)
        stats.incr("y")
        delta = stats.diff(before)
        assert delta["x"] == 3
        assert delta["y"] == 1

    def test_timer(self):
        stats = Instrument()
        with stats.timer("t"):
            time.sleep(0.01)
        assert stats.elapsed("t") >= 0.005
        assert "time:t" in stats.snapshot()

    def test_repr(self):
        stats = Instrument()
        stats.incr("abc")
        assert "abc=1" in repr(stats)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            CompositionError,
            EvaluationError,
            IntegrityError,
            NavigationError,
            ParseError,
            PlanError,
            RewriteError,
            SchemaError,
            SourceError,
            SqlError,
            SqlParseError,
            TranslationError,
            TypeMismatchError,
            UnknownSourceError,
            XQueryParseError,
            XmlParseError,
        ],
    )
    def test_all_derive_from_mixerror(self, exc):
        assert issubclass(exc, MixError)

    def test_sql_parse_is_both(self):
        assert issubclass(SqlParseError, ParseError)
        assert issubclass(SqlParseError, SqlError)

    def test_parse_error_payload(self):
        err = ParseError("boom", text="abc", position=2)
        assert err.text == "abc"
        assert err.position == 2


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
