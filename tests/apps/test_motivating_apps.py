"""Tests for the motivating applications: Universal Search (Fig. 1) and
E-Commerce (Fig. 2)."""


from repro.apps import ecommerce, universal_search
from repro.apps.universal_search import NEWS_SHARDS, WEB_SHARDS
from repro.core.dca import analyze_application
from repro.core.paths import enumerate_causal_paths
from repro.sim.runtime import ApplicationRuntime


class TestUniversalSearch:
    def test_three_query_classes(self, search_app):
        classes = universal_search.request_classes()
        assert {c.name for c in classes} == {"web_search", "news_search", "image_search"}

    def test_web_search_fans_out_to_all_shards(self, search_app):
        runtime = ApplicationRuntime(search_app)
        trace = runtime.execute_request(universal_search.request_classes()[0])
        assert trace.component_messages["query-index"] == WEB_SHARDS
        assert trace.component_messages["ad-system"] == 1
        assert trace.component_messages["spell-checker"] == 1
        assert "news-service" not in trace.component_messages

    def test_news_search_uses_narrow_scan(self, search_app):
        runtime = ApplicationRuntime(search_app)
        trace = runtime.execute_request(universal_search.request_classes()[1])
        assert trace.component_messages["query-index"] == NEWS_SHARDS
        assert trace.component_messages["news-service"] == 1
        assert "ad-system" not in trace.component_messages

    def test_image_search_touches_image_service_only(self, search_app):
        runtime = ApplicationRuntime(search_app)
        trace = runtime.execute_request(universal_search.request_classes()[2])
        assert trace.component_messages["image-service"] == 1
        assert "query-index" not in trace.component_messages

    def test_every_class_reaches_the_client(self, search_app):
        runtime = ApplicationRuntime(search_app)
        for cls in universal_search.request_classes():
            assert runtime.execute_request(cls).responses >= 1

    def test_dca_tracks_aggregator_sum(self, search_app):
        result = analyze_application(search_app)
        assert "partial_sum" in result.per_component["aggregator"].v_tr

    def test_join_lists_exactly_its_own_requests_partial_results(self, search_app):
        # Intra-request fan-in survives retirement and nothing else does:
        # the aggregator's emission is caused by the partial results *this*
        # request folded into partial_sum, on the first request and the last.
        runtime = ApplicationRuntime(search_app, dca_result=analyze_application(search_app))
        fan_in = {"web_search": WEB_SHARDS + 1, "news_search": NEWS_SHARDS + 1, "image_search": 1}
        classes = universal_search.request_classes()
        for index in range(300):
            cls = classes[index % 3]
            trace = runtime.execute_request(cls, sampled=True)
            (ranked,) = [m for m in trace.messages if m.msg_type == "ranked_candidates"]
            partials = {
                m.uid
                for m in trace.messages
                if m.dest == "aggregator" and m.msg_type != "spell_result"
            }
            assert ranked.cause_uids == partials, (index, cls.name)
            assert len(partials) == fan_in[cls.name]


class TestEcommerce:
    def test_two_conditional_flows_are_disjoint_midtier(self, shop_app):
        runtime = ApplicationRuntime(shop_app)
        simple, purchase = ecommerce.request_classes()
        t_simple = runtime.execute_request(simple)
        t_purchase = runtime.execute_request(purchase)
        assert "payment" not in t_simple.component_messages
        assert "customer-tracking" not in t_purchase.component_messages
        # Both flows share the front end and the price DB (Fig. 2).
        shared = t_simple.components & t_purchase.components
        assert shared == {"web-frontend", "price-db"}

    def test_purchase_path_components(self, shop_app):
        runtime = ApplicationRuntime(shop_app)
        _, purchase = ecommerce.request_classes()
        trace = runtime.execute_request(purchase)
        assert {"payment", "fulfillment", "inventory"} <= trace.components

    def test_fraud_branch_short_circuits(self, shop_app):
        from repro.workloads.generator import RequestClass

        runtime = ApplicationRuntime(shop_app)
        big = RequestClass(
            "big", "visit", {"kind": "purchase", "page": "x", "amount": 999_999, "sku": "gold"}
        )
        trace = runtime.execute_request(big)
        assert "fulfillment" not in trace.component_messages
        assert trace.responses == 1  # declined directly by payment

    def test_static_paths_cover_all_flows(self, shop_app):
        paths = enumerate_causal_paths(shop_app)
        assert len(paths["visit"]) == 3  # simple, purchase, declined
