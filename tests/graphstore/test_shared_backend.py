"""Process-shared store backend: one store server, many workers.

Pins the satellite contract of the shared backend: a
``run_all_managers(..., workers=N)`` sweep on the shared backend — every
manager run a separate *process* talking to one store server over its
Unix socket — produces exactly the serial memory-backend outcome: equal
:class:`~repro.sim.metrics.SimulationResult` objects per manager and a
bit-identical merged telemetry digest, with no snapshot merging beyond
what the serial path already does.
"""

import gc

import pytest

from repro.apps.catalog import load_scenario
from repro.chaos.runner import telemetry_digest
from repro.evalx.experiment import ExperimentConfig, build_simulator, run_all_managers
from repro.graphstore.shared import SharedGraphStoreClient, SharedStoreServer
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry

MANAGERS = ("DCA-5%", "DCA-10%", "DCA-20%")
DURATION = 10


def _config(backend):
    return ExperimentConfig(
        duration_minutes=DURATION, seed=7, store_backend=backend
    )


def _serial_memory_reference(scenario):
    registry = MetricsRegistry()
    results = {}
    for name in MANAGERS:
        results[name] = build_simulator(
            scenario, name, _config("memory"), registry=registry
        ).run()
    return results, telemetry_digest(registry.snapshot())


def test_worker_pool_on_shared_store_matches_serial_memory():
    scenario = load_scenario("hedwig")
    reference, ref_digest = _serial_memory_reference(scenario)

    registry = MetricsRegistry()
    results = run_all_managers(
        scenario, managers=MANAGERS, config=_config("shared"),
        workers=4, registry=registry,
    )
    assert set(results) == set(MANAGERS)
    for name in MANAGERS:
        assert results[name] == reference[name], name
    assert telemetry_digest(registry.snapshot()) == ref_digest


def test_serial_shared_sweep_matches_serial_memory():
    """Same contract without the pool: one private server per sweep."""
    scenario = load_scenario("hedwig")
    reference, _ = _serial_memory_reference(scenario)
    results = run_all_managers(
        scenario, managers=MANAGERS[:2], config=_config("shared"), workers=1
    )
    for name in MANAGERS[:2]:
        assert results[name] == reference[name], name


class TestClientSurface:
    @pytest.fixture(scope="class")
    def server(self):
        srv = SharedStoreServer()
        srv.start()
        yield srv
        srv.shutdown()

    def _client(self, server, namespace, **kwargs):
        return SharedGraphStoreClient(
            server.address, server.authkey, namespace=namespace, **kwargs
        )

    def test_namespaces_are_isolated(self, server):
        a = self._client(server, "iso-a")
        b = self._client(server, "iso-b")
        root = Message(MessageUid("h", 1, 1), "req", EXTERNAL, "A")
        a.add_message(root)
        assert a.node_count() == 1
        assert b.node_count() == 0
        assert not b.contains(root.uid)

    def test_completion_callbacks_fire_client_side(self, server):
        client = self._client(server, "notify")
        fired = []
        client.subscribe_path_complete(fired.append)
        root = Message(MessageUid("h", 2, 1), "req", EXTERNAL, "A")
        done = Message(
            MessageUid("h", 2, 2), "resp", "A", CLIENT,
            cause_uids=frozenset({root.uid}), root_uid=root.uid,
        )
        client.add_messages([root, done])
        assert fired == [root.uid]

    def test_backend_kind_and_close_idempotence(self, server):
        client = self._client(server, "kind")
        assert client.backend_kind == "shared"
        client.close()
        client.close()

    def test_a_dropped_client_leaves_a_live_clients_connection_open(self, server):
        """Proxies in one process share a connection per server, closed
        when the last proxy id is released.  A tracker's subscription
        leaves a finished client to the cycle collector, which can run
        inside the next client's call — so no two clients may share an id."""
        live = self._client(server, "drop-live")
        live.node_count()
        connection = live._hub._tls.connection
        dropped = self._client(server, "drop-gone")
        dropped.node_count()
        del dropped
        gc.collect()
        assert not connection.closed
        assert live.node_count() == 0

    def test_telemetry_merges_on_close(self, server):
        registry = MetricsRegistry()
        client = self._client(server, "telemetry", registry=registry)
        client.add_message(Message(MessageUid("h", 3, 1), "req", EXTERNAL, "A"))
        assert registry.counter("graphstore.nodes_added").value == 0
        client.close()
        assert registry.counter("graphstore.nodes_added").value == 1
