"""Deployment modes: real TCP split, persistence across restarts,
simulated network costs."""

import pytest

from repro.cloud.server import CloudZone
from repro.core.middleware import DataBlinder
from repro.core.query import Eq
from repro.core.registry import TacticRegistry
from repro.fhir.model import observation_schema
from repro.keys.keystore import KeyStore
from repro.net.batch import PipelineConfig
from repro.net.latency import NetworkModel
from repro.net.tcp import TcpRpcServer, TcpTransport
from repro.net.transport import InProcTransport
from repro.stores.kv import KeyValueStore
from repro.tactics import register_builtin_tactics


def make_doc(i, **overrides):
    doc = {
        "id": f"f{i}", "identifier": i, "status": "final",
        "code": "glucose", "subject": "Pat One", "effective": 1000 + i,
        "issued": 2000 + i, "performer": "Dr", "value": float(i),
        "interpretation": "",
    }
    doc.update(overrides)
    return doc


class TestTcpDeployment:
    """Gateway and cloud on opposite ends of a real socket."""

    @pytest.fixture()
    def tcp_blinder(self, registry):
        cloud = CloudZone(registry)
        server = TcpRpcServer(cloud.host)
        server.serve_in_background()
        transport = TcpTransport(server.endpoint)
        blinder = DataBlinder("tcpapp", transport, registry=registry)
        yield blinder
        transport.close()
        server.shutdown()
        server.server_close()

    def test_full_flow_over_tcp(self, tcp_blinder):
        tcp_blinder.register_schema(observation_schema())
        observations = tcp_blinder.entities("observation")
        ids = [observations.insert(make_doc(i)) for i in range(5)]
        assert observations.count() == 5
        assert observations.find_ids(Eq("status", "final")) == set(ids)
        assert observations.average("value") == pytest.approx(2.0)
        observations.update(ids[0], {"value": 10.0})
        assert observations.average("value") == pytest.approx(4.0)
        assert observations.delete(ids[1])
        assert observations.count() == 4


class TestPersistenceAcrossRestarts:
    def test_cloud_zone_restart_preserves_search(self, registry,
                                                 tmp_path):
        keystore = KeyStore("restartapp")
        gateway_kv_dir = tmp_path / "gateway"
        cloud_dir = tmp_path / "cloud"

        cloud = CloudZone(registry, data_dir=cloud_dir)
        blinder = DataBlinder(
            "restartapp", InProcTransport(cloud.host), registry=registry,
            keystore=keystore, local_kv=KeyValueStore(gateway_kv_dir),
        )
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        doc_id = observations.insert(make_doc(1, subject="Durable Jane"))
        cloud.close()
        blinder.runtime.local_kv.close()

        # Fresh processes: same durable directories, same keystore.
        cloud2 = CloudZone(registry, data_dir=cloud_dir)
        blinder2 = DataBlinder(
            "restartapp", InProcTransport(cloud2.host), registry=registry,
            keystore=keystore, local_kv=KeyValueStore(gateway_kv_dir),
        )
        blinder2.restore_schema("observation")
        observations2 = blinder2.entities("observation")
        assert observations2.get(doc_id)["subject"] == "Durable Jane"
        assert observations2.find_ids(
            Eq("subject", "Durable Jane")
        ) == {doc_id}
        # DET search also survives (tokens are key-derived).
        assert observations2.find_ids(Eq("effective", 1001)) == {doc_id}


class TestTrueGatewayRestart:
    """A *fresh* KeyStore over the same HSM (nothing in process memory
    survives) must recover all keys: symmetric roots are HSM-derived and
    asymmetric keypairs are re-derived from HSM-rooted coins."""

    def test_fresh_keystore_recovers_everything(self, registry, tmp_path):
        from repro.keys.hsm import SimulatedHsm

        hsm = SimulatedHsm()
        cloud_dir = tmp_path / "cloud"
        gateway_dir = tmp_path / "gateway"

        cloud = CloudZone(registry, data_dir=cloud_dir)
        blinder = DataBlinder(
            "truerestart", InProcTransport(cloud.host), registry=registry,
            keystore=KeyStore("truerestart", hsm),
            local_kv=KeyValueStore(gateway_dir),
        )
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        doc_id = observations.insert(make_doc(1, subject="Phoenix",
                                              value=12.5))
        observations.insert(make_doc(2, subject="Phoenix", value=7.5))
        cloud.close()
        blinder.runtime.local_kv.close()
        del blinder

        # Full restart: new KeyStore instance, same HSM + durable dirs.
        cloud2 = CloudZone(registry, data_dir=cloud_dir)
        blinder2 = DataBlinder(
            "truerestart", InProcTransport(cloud2.host), registry=registry,
            keystore=KeyStore("truerestart", hsm),
            local_kv=KeyValueStore(gateway_dir),
        )
        blinder2.restore_schema("observation")
        observations2 = blinder2.entities("observation")
        # Body decryption (symmetric root recovered).
        assert observations2.get(doc_id)["value"] == 12.5
        # SSE search (Mitra keys + counters recovered).
        assert len(observations2.find_ids(Eq("subject", "Phoenix"))) == 2
        # DET search (deterministic tokens recovered).
        assert observations2.find_ids(Eq("effective", 1001)) == {doc_id}
        # Paillier aggregate over pre-restart ciphertexts (keypair
        # re-derived from HSM-rooted coins).
        assert observations2.average("value") == pytest.approx(10.0)

    def test_keypair_rederivation_is_stable(self):
        from repro.keys.hsm import SimulatedHsm

        hsm = SimulatedHsm()
        a = KeyStore("app", hsm)
        b = KeyStore("app", hsm)
        assert a.derive("f", "det") == b.derive("f", "det")
        assert a.paillier_keypair("f", bits=256).public.n == (
            b.paillier_keypair("f", bits=256).public.n
        )
        assert a.rsa_keypair("f", bits=512).n == (
            b.rsa_keypair("f", bits=512).n
        )

    def test_different_hsm_means_different_keys(self):
        from repro.keys.hsm import SimulatedHsm

        a = KeyStore("app", SimulatedHsm())
        b = KeyStore("app", SimulatedHsm())
        assert a.derive("f", "det") != b.derive("f", "det")


class TestNetworkModelDeployment:
    def test_latency_accounted_per_protocol_round(self, registry):
        cloud = CloudZone(registry)
        model = NetworkModel(one_way_latency_ms=1.0, sleep=False)
        transport = InProcTransport(cloud.host, model)
        blinder = DataBlinder("netapp", transport, registry=registry,
                              pipeline=PipelineConfig(batch_writes=False))
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        before = transport.stats()
        observations.insert(make_doc(1))
        after = transport.stats()
        rpcs = after.messages_sent - before.messages_sent
        # One insert touches several tactic services plus the doc store.
        assert rpcs >= 5
        delay = (after.simulated_delay_seconds
                 - before.simulated_delay_seconds)
        assert delay == pytest.approx(rpcs * 2 * 0.001, rel=1e-6)

    def test_traffic_meters_feed_performance_metrics(self, registry):
        cloud = CloudZone(registry)
        transport = InProcTransport(cloud.host)
        blinder = DataBlinder("meterapp", transport, registry=registry)
        blinder.register_schema(observation_schema())
        observations = blinder.entities("observation")
        observations.insert(make_doc(1))
        stats = transport.stats()
        assert stats.bytes_sent > 500  # ciphertexts crossed the wire
        assert stats.bytes_received > 0


class TestMultiApplication:
    def test_two_applications_share_one_cloud(self, registry):
        cloud = CloudZone(registry)
        blinder_a = DataBlinder("app-a", InProcTransport(cloud.host),
                                registry=registry)
        blinder_b = DataBlinder("app-b", InProcTransport(cloud.host),
                                registry=registry)
        for blinder in (blinder_a, blinder_b):
            blinder.register_schema(observation_schema())
        obs_a = blinder_a.entities("observation")
        obs_b = blinder_b.entities("observation")
        id_a = obs_a.insert(make_doc(1, subject="Tenant A"))
        obs_b.insert(make_doc(2, subject="Tenant B"))
        assert obs_a.count() == 1
        assert obs_b.count() == 1
        assert obs_a.find_ids(Eq("subject", "Tenant A")) == {id_a}
        assert obs_a.find_ids(Eq("subject", "Tenant B")) == set()
