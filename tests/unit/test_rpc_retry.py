"""Unit tests for the RPC retry policy and per-attempt timeout."""

import pytest

from repro.network import Link, Network, TransferAbortedError
from repro.rpc import (
    Request,
    Response,
    RetryPolicy,
    RpcError,
    RpcTimeoutError,
    RpcTransport,
    ServiceUnavailableError,
    is_retryable,
    next_opid,
)
from repro.sim import Timeout
from repro.telemetry import Telemetry


class ScriptedDispatcher:
    """Raises the scripted exceptions in order, then succeeds forever."""

    def __init__(self, failures=(), dispatch_s=0.001, outdata_bytes=0):
        self.failures = list(failures)
        self.dispatch_s = dispatch_s
        self.outdata_bytes = outdata_bytes
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        exc = self.failures.pop(0) if self.failures else None

        def proc():
            yield Timeout(self.dispatch_s)
            if exc is not None:
                raise exc
            return Response(opid=request.opid,
                            outdata_bytes=self.outdata_bytes, result="ok")

        return proc()


@pytest.fixture
def net(sim):
    network = Network(sim)
    network.register_host("a")
    network.register_host("b")
    link = Link(sim, 100_000.0, 0.001)
    network.connect("a", "b", link)
    return network, link


def make_request(indata_bytes=0):
    return Request("svc", "op", opid=next_opid(), indata_bytes=indata_bytes)


def call(sim, transport, policy=None, indata_bytes=0):
    return sim.run_process(transport.call(
        "a", "b", make_request(indata_bytes), policy=policy
    ))


class TestRetryPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"timeout_s": 0.0},
        {"timeout_s": -1.0},
        {"backoff_base_s": -0.1},
        {"backoff_max_s": -1.0},
        {"backoff_multiplier": 0.5},
        {"jitter": -0.1},
        {"jitter": 1.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_timeout_none_disables_deadline(self):
        assert RetryPolicy(timeout_s=None).timeout_s is None


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_multiplier=2.0,
                             backoff_max_s=5.0, jitter=0.0)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)

    def test_capped_at_max(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_multiplier=10.0,
                             backoff_max_s=3.0, jitter=0.0)
        assert policy.backoff_s(5) == pytest.approx(3.0)

    def test_default_cap_binds_from_the_seventh_retry(self):
        # Scenario runs allow 3 attempts, so they never reach the cap;
        # this pins the documented formula instead.
        policy = RetryPolicy(jitter=0.0)
        assert policy.backoff_s(6) == 3.2
        assert policy.backoff_s(7) == 5.0

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_multiplier=1.0,
                             backoff_max_s=1.0, jitter=0.2, seed=3)
        for n in range(1, 50):
            assert 0.8 <= policy.backoff_s(n) <= 1.2

    def test_same_seed_same_sequence(self):
        a = RetryPolicy(jitter=0.3, seed=42)
        b = RetryPolicy(jitter=0.3, seed=42)
        assert [a.backoff_s(n) for n in range(1, 10)] \
            == [b.backoff_s(n) for n in range(1, 10)]

    def test_different_seeds_diverge(self):
        a = RetryPolicy(jitter=0.3, seed=1)
        b = RetryPolicy(jitter=0.3, seed=2)
        assert [a.backoff_s(n) for n in range(1, 10)] \
            != [b.backoff_s(n) for n in range(1, 10)]


class TestCallRetry:
    def test_transient_failure_retried_until_success(self, sim, net):
        network, _link = net
        transport = RpcTransport(sim, network, telemetry=Telemetry())
        dispatcher = ScriptedDispatcher(failures=[
            ServiceUnavailableError("down"),
            ServiceUnavailableError("still down"),
        ])
        transport.bind("b", dispatcher)
        policy = RetryPolicy(max_attempts=3, timeout_s=None, jitter=0.0)
        response = call(sim, transport, policy=policy)
        assert response.result == "ok"
        assert dispatcher.calls == 3
        assert transport.telemetry.metrics.counter("rpc.retries").value == 2
        assert transport.telemetry.metrics.counter("rpc.failures").value == 0

    def test_backoff_consumes_simulated_time(self, sim, net):
        network, _link = net
        transport = RpcTransport(sim, network)
        transport.bind("b", ScriptedDispatcher(
            failures=[ServiceUnavailableError("down")], dispatch_s=0.0,
        ))
        policy = RetryPolicy(max_attempts=2, timeout_s=None,
                             backoff_base_s=1.5, jitter=0.0)
        t0 = sim.now
        call(sim, transport, policy=policy)
        assert sim.now - t0 >= 1.5

    def test_exhaustion_raises_last_error(self, sim, net):
        network, _link = net
        transport = RpcTransport(sim, network, telemetry=Telemetry())
        dispatcher = ScriptedDispatcher(failures=[
            ServiceUnavailableError("down")] * 5)
        transport.bind("b", dispatcher)
        policy = RetryPolicy(max_attempts=3, timeout_s=None, jitter=0.0)
        with pytest.raises(ServiceUnavailableError):
            call(sim, transport, policy=policy)
        assert dispatcher.calls == 3
        assert transport.telemetry.metrics.counter("rpc.failures").value == 1

    def test_fatal_error_not_retried(self, sim, net):
        network, _link = net
        transport = RpcTransport(sim, network)
        dispatcher = ScriptedDispatcher(failures=[RpcError("malformed")])
        transport.bind("b", dispatcher)
        policy = RetryPolicy(max_attempts=5, timeout_s=None)
        with pytest.raises(RpcError):
            call(sim, transport, policy=policy)
        assert dispatcher.calls == 1

    def test_no_policy_means_single_attempt(self, sim, net):
        network, _link = net
        transport = RpcTransport(sim, network)
        dispatcher = ScriptedDispatcher(failures=[
            ServiceUnavailableError("down")])
        transport.bind("b", dispatcher)
        with pytest.raises(ServiceUnavailableError):
            call(sim, transport)
        assert dispatcher.calls == 1

    def test_transport_default_policy_applies(self, sim, net):
        network, _link = net
        transport = RpcTransport(sim, network)
        dispatcher = ScriptedDispatcher(failures=[
            ServiceUnavailableError("down")])
        transport.bind("b", dispatcher)
        transport.retry_policy = RetryPolicy(max_attempts=2, timeout_s=None,
                                             jitter=0.0)
        response = call(sim, transport)
        assert response.result == "ok"
        assert dispatcher.calls == 2


class TestTimeout:
    def test_slow_dispatch_times_out(self, sim, net):
        network, _link = net
        transport = RpcTransport(sim, network)
        transport.bind("b", ScriptedDispatcher(dispatch_s=100.0))
        policy = RetryPolicy(max_attempts=1, timeout_s=0.5)
        with pytest.raises(RpcTimeoutError):
            call(sim, transport, policy=policy)
        # The deadline fired at exactly timeout_s, not after the dispatch.
        assert sim.now == pytest.approx(0.5)

    def test_timeout_withdraws_in_flight_transfer(self, sim, net):
        network, link = net
        transport = RpcTransport(sim, network)
        transport.bind("b", ScriptedDispatcher())
        # 10 MB over 100 kB/s takes ~100 s: the deadline fires while the
        # request bytes are still on the wire.
        policy = RetryPolicy(max_attempts=1, timeout_s=1.0)
        with pytest.raises(RpcTimeoutError):
            call(sim, transport, policy=policy, indata_bytes=10_000_000)
        # Deliver the scheduled interrupt to the exchange, long before
        # the bytes would have finished on their own.
        sim.run(until=2.0)
        assert link.active_transfers == 0

    def test_timeout_is_retryable(self):
        assert is_retryable(RpcTimeoutError("slow"))
        assert is_retryable(ServiceUnavailableError("down"))
        assert is_retryable(TransferAbortedError("severed"))
        assert not is_retryable(RpcError("malformed"))
        assert not is_retryable(ValueError("nope"))

    def test_retry_after_timeout_succeeds(self, sim, net):
        network, link = net
        transport = RpcTransport(sim, network)
        dispatcher = ScriptedDispatcher(dispatch_s=0.001)
        transport.bind("b", dispatcher)

        # First attempt jammed: zero bandwidth stalls the request
        # transfer past the deadline; capacity returns before the retry.
        link.set_bandwidth(0.0)
        sim.call_at(2.0, lambda: link.set_bandwidth(100_000.0))
        policy = RetryPolicy(max_attempts=2, timeout_s=1.0,
                             backoff_base_s=1.5, jitter=0.0)
        response = call(sim, transport, policy=policy, indata_bytes=1000)
        assert response.result == "ok"
        assert dispatcher.calls == 1  # first attempt died in transfer
        assert link.active_transfers == 0
