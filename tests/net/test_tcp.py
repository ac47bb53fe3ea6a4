"""TCP transport: a real socket between the two zones."""

import threading
import time

import pytest

from repro.errors import RemoteError, TransportError
from repro.net.rpc import ServiceHost
from repro.net.tcp import TcpRpcServer, TcpTransport


class MathService:
    def add(self, a, b):
        return a + b

    def echo_bytes(self, blob):
        return blob

    def fail(self):
        raise RuntimeError("remote failure")


@pytest.fixture()
def server():
    host = ServiceHost()
    host.register("math", MathService())
    server = TcpRpcServer(host)
    server.serve_in_background()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def client(server):
    transport = TcpTransport(server.endpoint)
    yield transport
    transport.close()


class TestTcpTransport:
    def test_call(self, client):
        assert client.call("math", "add", a=2, b=3) == 5

    def test_bytes_survive_the_socket(self, client):
        blob = bytes(range(256))
        assert client.call("math", "echo_bytes", blob=blob) == blob

    def test_large_payload(self, client):
        blob = b"\xab" * 300_000
        assert client.call("math", "echo_bytes", blob=blob) == blob

    def test_remote_error(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.call("math", "fail")
        assert excinfo.value.remote_type == "RuntimeError"

    def test_sequential_calls_reuse_connection(self, client):
        for i in range(20):
            assert client.call("math", "add", a=i, b=1) == i + 1
        assert client.stats().messages_sent == 20

    def test_concurrent_clients(self, server):
        transport = TcpTransport(server.endpoint)
        errors = []

        def worker(base):
            try:
                for i in range(10):
                    assert transport.call("math", "add", a=base,
                                          b=i) == base + i
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        transport.close()
        assert not errors

    def test_traffic_accounting(self, client):
        client.call("math", "add", a=1, b=2)
        stats = client.stats()
        assert stats.bytes_sent > 0 and stats.bytes_received > 0

    def test_closed_transport_rejects_calls(self, server):
        transport = TcpTransport(server.endpoint)
        transport.close()
        with pytest.raises(TransportError):
            transport.call("math", "add", a=1, b=2)

    def test_connect_failure_raises_transport_error(self):
        transport = TcpTransport(("127.0.0.1", 1))  # nothing listens there
        with pytest.raises((TransportError, OSError)):
            transport.call("math", "add", a=1, b=2)

    def test_transparent_reconnect_after_server_restart(self):
        host = ServiceHost()
        host.register("math", MathService())
        server = TcpRpcServer(host)
        server.serve_in_background()
        port = server.endpoint[1]
        transport = TcpTransport(("127.0.0.1", port))
        assert transport.call("math", "add", a=1, b=1) == 2

        # Restart the untrusted zone on the same port: the pooled
        # connection is dead, but the next call reconnects transparently.
        server.shutdown()
        server.server_close()
        server2 = TcpRpcServer(host, ("127.0.0.1", port))
        server2.serve_in_background()
        try:
            assert transport.call("math", "add", a=2, b=3) == 5
        finally:
            transport.close()
            server2.shutdown()
            server2.server_close()


class ConnectionCountingServer(TcpRpcServer):
    """Counts connections opened and connections whose client hung up."""

    def __init__(self, host):
        super().__init__(host)
        self.lock = threading.Lock()
        self.opened = 0
        self.ended = 0

    def finish_request(self, request, client_address):
        with self.lock:
            self.opened += 1
        try:
            # The handler loops until its client's socket reaches EOF.
            super().finish_request(request, client_address)
        finally:
            with self.lock:
                self.ended += 1

    def counts(self):
        with self.lock:
            return self.opened, self.ended


class TestEveryThreadsConnection:
    THREADS = 6

    @pytest.fixture()
    def counting_server(self):
        host = ServiceHost()
        host.register("math", MathService())
        server = ConnectionCountingServer(host)
        server.serve_in_background()
        yield server
        server.shutdown()
        server.server_close()

    @staticmethod
    def wait_for(predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def test_close_closes_every_threads_socket(self, counting_server):
        transport = TcpTransport(counting_server.endpoint)
        called = threading.Barrier(self.THREADS + 1)
        release = threading.Event()
        results = []

        def worker(n):
            results.append(transport.call("math", "add", a=n, b=1))
            called.wait()
            # Stay alive past close(): a socket owned by a live thread
            # must still be closed by it.
            release.wait(10.0)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(self.THREADS)]
        for thread in threads:
            thread.start()
        try:
            called.wait(10.0)
            assert sorted(results) == list(range(1, self.THREADS + 1))
            assert counting_server.counts() == (self.THREADS, 0)
            transport.close()
            assert self.wait_for(
                lambda: counting_server.counts()[1] == self.THREADS
            ), counting_server.counts()
        finally:
            release.set()
            for thread in threads:
                thread.join()

    def test_concurrent_threads_ride_parallel_sockets(self):
        host = ServiceHost()
        host.register("slow", SlowService())
        server = TcpRpcServer(host)
        server.serve_in_background()
        transport = TcpTransport(server.endpoint)
        try:
            results = []
            threads = [
                threading.Thread(target=lambda n=n: results.append(
                    transport.call("slow", "echo", value=n, delay=0.05)
                ))
                for n in range(6)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            assert sorted(results) == list(range(6))
            # Serialized over one socket this is >= 0.30 s.
            assert elapsed < 0.25
        finally:
            transport.close()
            server.shutdown()
            server.server_close()


class SlowService:
    def echo(self, value, delay):
        time.sleep(delay)
        return value
