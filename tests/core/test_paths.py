"""Unit tests for static causal-path enumeration and path signatures."""

from hypothesis import given, strategies as st

from repro.core.paths import (
    enumerate_causal_paths,
    handler_emission_sets,
    signature_from_edges,
)
from repro.lang.builder import AppBuilder, ComponentBuilder, field, var
from repro.lang.ir import CLIENT, EXTERNAL, Handler, If, Send, While


class TestEmissionSets:
    def test_straight_line_single_variant(self):
        h = Handler("go", "m", [Send("a", "X"), Send("b", "Y")])
        assert handler_emission_sets(h) == [(("a", "X"), ("b", "Y"))]

    def test_if_yields_two_variants(self):
        h = Handler("go", "m", [If(field("m", "c"), [Send("a", "X")], [Send("b", "Y")])])
        variants = handler_emission_sets(h)
        assert sorted(variants) == [(("a", "X"),), (("b", "Y"),)]

    def test_if_without_else_includes_empty(self):
        h = Handler("go", "m", [If(field("m", "c"), [Send("a", "X")])])
        assert sorted(handler_emission_sets(h)) == [(), (("a", "X"),)]

    def test_while_zero_or_one(self):
        h = Handler("go", "m", [While(var("i") < 3, [Send("a", "X")])])
        assert sorted(handler_emission_sets(h)) == [(), (("a", "X"),)]

    def test_nested_branching_counts(self):
        h = Handler(
            "go",
            "m",
            [
                If(field("m", "a"), [Send("x", "X")], [Send("y", "Y")]),
                If(field("m", "b"), [Send("z", "Z")]),
            ],
        )
        assert len(handler_emission_sets(h)) == 4

    def test_no_sends(self):
        h = Handler("go", "m", [])
        assert handler_emission_sets(h) == [()]


class TestEnumeration:
    def test_pipeline_single_path(self, pipeline_app):
        paths = enumerate_causal_paths(pipeline_app)
        assert len(paths["start"]) == 1
        sig = paths["start"][0]
        assert (EXTERNAL, "start", "A") in sig.edges
        assert ("C", "done", CLIENT) in sig.edges

    def test_branching_app_two_paths(self):
        a = ComponentBuilder("A")
        with a.on("go", "m") as h:
            with h.if_(field("m", "kind").eq("fast")) as br:
                br.then.send("f", "B")
                br.orelse.send("s", "B")
        b = ComponentBuilder("B")
        with b.on("f", "m") as h:
            h.send("done", CLIENT)
        with b.on("s", "m") as h:
            h.send("done", CLIENT)
        app = AppBuilder("t").component(a).component(b).entry("go", "A").build()
        paths = enumerate_causal_paths(app)
        assert len(paths["go"]) == 2

    def test_cyclic_architecture_terminates(self):
        """A retry loop (A→B→A) must not hang enumeration."""
        a = ComponentBuilder("A")
        with a.on("go", "m") as h:
            h.send("ping", "B")
        with a.on("pong", "m") as h:
            with h.if_(field("m", "retry") > 0) as br:
                br.then.send("ping", "B")
                br.orelse.send("done", CLIENT)
        b = ComponentBuilder("B")
        with b.on("ping", "m") as h:
            h.send("pong", "A", {"retry": 0})
        app = AppBuilder("t").component(a).component(b).entry("go", "A").build()
        paths = enumerate_causal_paths(app)
        assert paths["go"]  # terminated and produced signatures

    def test_every_request_type_enumerated(self, pubsub_app):
        paths = enumerate_causal_paths(pubsub_app)
        assert set(paths) == {"pub_request", "sub_request", "consume_request"}
        assert all(len(v) >= 1 for v in paths.values())


class TestPathSignature:
    def test_signature_canonical_sorting_and_dedup(self):
        edges = [("B", "x", "C"), ("A", "x", "B"), ("B", "x", "C")]
        sig = signature_from_edges("go", edges)
        assert sig.edges == (("A", "x", "B"), ("B", "x", "C"))

    def test_components_excludes_pseudo_nodes(self):
        sig = signature_from_edges(
            "go", [(EXTERNAL, "go", "A"), ("A", "x", "B"), ("B", "done", CLIENT)]
        )
        assert sig.components == frozenset({"A", "B"})

    def test_path_id_stable_and_distinct(self):
        s1 = signature_from_edges("go", [("A", "x", "B")])
        s2 = signature_from_edges("go", [("A", "x", "B")])
        s3 = signature_from_edges("go", [("A", "y", "B")])
        assert s1.path_id == s2.path_id
        assert s1.path_id != s3.path_id

    def test_describe_mentions_hops(self):
        sig = signature_from_edges("go", [("A", "x", "B")])
        assert "A--x-->B" in sig.describe()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C", "D"]),
                st.sampled_from(["m1", "m2", "m3"]),
                st.sampled_from(["B", "C", "D", CLIENT]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_signature_order_invariance(self, edges):
        """Property: signatures are invariant under edge ordering/duplication."""
        sig1 = signature_from_edges("go", edges)
        sig2 = signature_from_edges("go", list(reversed(edges)) + edges)
        assert sig1 == sig2
        assert sig1.path_id == sig2.path_id
