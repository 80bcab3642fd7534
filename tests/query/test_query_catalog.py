"""QueryCatalog: lifecycle, reader lists, edge memory, reporting."""

from types import SimpleNamespace

import pytest

from repro.query import QueryCatalog, RegisteredQuery


def make_query(name, table="sensor", action="photo"):
    plan = SimpleNamespace(query_name=name, event_table=table,
                           action=SimpleNamespace(name=action))
    return RegisteredQuery(plan=plan)


class TestLifecycle:
    def test_register_assigns_monotone_seq(self):
        catalog = QueryCatalog()
        first = catalog.register(make_query("a"))
        second = catalog.register(make_query("b"))
        assert (first.seq, second.seq) == (0, 1)
        assert list(catalog.queries) == ["a", "b"]

    def test_by_table_keeps_registration_order(self):
        catalog = QueryCatalog()
        catalog.register(make_query("a", table="sensor"))
        catalog.register(make_query("p", table="phone"))
        catalog.register(make_query("b", table="sensor"))
        assert [q.name for q in catalog.readers("sensor")] == ["a", "b"]
        assert [q.name for q in catalog.readers("phone")] == ["p"]

    def test_dropping_last_reader_removes_the_table(self):
        catalog = QueryCatalog()
        catalog.register(make_query("a"))
        catalog.register(make_query("b"))
        catalog.drop("a")
        assert "sensor" in catalog.by_table
        catalog.drop("b")
        assert "sensor" not in catalog.by_table

    def test_reregistration_appends_at_the_end(self):
        catalog = QueryCatalog()
        catalog.register(make_query("a"))
        catalog.register(make_query("b"))
        catalog.drop("a")
        renewed = catalog.register(make_query("a"))
        assert [q.name for q in catalog.readers("sensor")] == ["b", "a"]
        assert renewed.seq == 2  # a fresh seq, never reused

    def test_drop_unknown_raises(self):
        with pytest.raises(KeyError):
            QueryCatalog().drop("ghost")

    def test_container_protocol(self):
        catalog = QueryCatalog()
        query = catalog.register(make_query("a"))
        assert "a" in catalog and "b" not in catalog
        assert len(catalog) == 1
        assert list(catalog) == [query]


class TestEdgeMemory:
    def test_set_and_read_edges(self):
        catalog = QueryCatalog()
        query = catalog.register(make_query("a"))
        assert catalog.edge_state("a", "m1") is False
        catalog.set_edge(query, "m1", True)
        assert catalog.edge_state("a", "m1") is True
        catalog.set_edge(query, "m1", False)
        assert catalog.edge_state("a", "m1") is False

    def test_held_queries_track_non_empty_memory(self):
        catalog = QueryCatalog()
        query = catalog.register(make_query("a"))
        other = catalog.register(make_query("b"))
        assert catalog.held_queries("sensor") == []
        catalog.set_edge(query, "m1", True)
        assert catalog.held_queries("sensor") == [query]
        catalog.set_edge(other, "m2", True)
        catalog.set_edge(query, "m1", False)
        assert catalog.held_queries("sensor") == [other]

    def test_prune_edges_clears_scanned_non_matches_only(self):
        catalog = QueryCatalog()
        query = catalog.register(make_query("a"))
        catalog.set_edge(query, "m1", True)
        catalog.set_edge(query, "m2", True)
        catalog.set_edge(query, "m3", True)
        # m1 still matches, m2 was scanned and stopped matching, m3
        # was not scanned at all (its device missed this poll).
        catalog.prune_edges(query, seen={"m1", "m2"}, matched={"m1"})
        assert catalog.edge_state("a", "m1") is True
        assert catalog.edge_state("a", "m2") is False
        assert catalog.edge_state("a", "m3") is True

    def test_drop_forgets_edges(self):
        catalog = QueryCatalog()
        query = catalog.register(make_query("a"))
        catalog.set_edge(query, "m1", True)
        catalog.drop("a")
        assert catalog.held_queries("sensor") == []
        assert catalog.edge_state("a", "m1") is False


class TestReport:
    def test_report_lists_queries_in_registration_order(self):
        catalog = QueryCatalog()
        catalog.register(make_query("b", action="photo"))
        query = catalog.register(make_query("a", table="phone",
                                            action="sendphoto"))
        query.events_detected = 3
        query.requests_emitted = 2
        catalog.get("b").enabled = False
        report = catalog.report()
        assert [entry["name"] for entry in report] == ["b", "a"]
        assert report[0]["state"] == "disabled"
        assert report[1] == {
            "name": "a", "state": "enabled", "event_table": "phone",
            "action": "sendphoto", "priority": 1,
            "events_detected": 3, "requests_emitted": 2,
            "requests_rejected": 0, "uncovered_events": 0,
        }
