"""Tests for the serving control plane: the transport, failure detection, lifecycle."""

import multiprocessing
import socket
import threading
from types import SimpleNamespace

import pytest

from repro.net import frame_length, frame_payload, serialize_message
from repro.serving.control.failure import FailureDetector, WorkerFailedError
from repro.serving.control.lifecycle import PlanLifecycle
from repro.serving.control.plane import ControlPlane
from repro.serving.control.transport import PipeTransport, SocketListener, SocketTransport


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- transports ------------------------------------------------------------------


class TestPipeTransport:
    def test_round_trip_and_poll(self):
        left_end, right_end = multiprocessing.Pipe(duplex=True)
        left, right = PipeTransport(left_end), PipeTransport(right_end)
        assert right.poll(0.0) is False
        left.send_bytes(b"hello")
        assert right.poll(1.0) is True
        assert right.recv_bytes() == b"hello"
        right.send_bytes(b"back")
        assert left.recv_bytes() == b"back"
        left.close()
        right.close()

    def test_peer_close_raises_eof(self):
        left_end, right_end = multiprocessing.Pipe(duplex=True)
        left, right = PipeTransport(left_end), PipeTransport(right_end)
        left.close()
        with pytest.raises(EOFError):
            right.recv_bytes()
        right.close()


def _socketpair():
    """Both ends of a local socketpair, as the cluster and a worker hold them."""
    left, right = socket.socketpair()
    return SocketTransport(left), SocketTransport(right)


class TestSocketpairTransport:
    """The cluster's one channel: both ends of a local socketpair."""

    def test_round_trip_framing_and_poll(self):
        left, right = _socketpair()
        try:
            assert right.poll(0.0) is False
            payload = serialize_message({"type": "ping", "msg_id": 7})
            left.send_bytes(payload)
            assert right.poll(5.0) is True
            assert right.recv_bytes() == payload
            # Several messages on one stream stay message-delimited, empty
            # and large ones (past the kernel's socket buffer) included.
            big = bytes(range(256)) * 4096
            messages = [b"m0", b"", big, b"m3"]
            sender = threading.Thread(target=lambda: [right.send_bytes(m) for m in messages])
            sender.start()
            assert [left.recv_bytes() for _ in messages] == messages
            sender.join(timeout=5.0)
            assert not sender.is_alive()
        finally:
            left.close()
            right.close()

    def test_peer_close_raises_eof_and_polls_ready(self):
        left, right = _socketpair()
        right.close()
        assert left.poll(1.0) is True  # the hang-up is readable
        with pytest.raises(EOFError):
            left.recv_bytes()
        left.close()

    def test_peer_close_mid_message_raises_eof(self):
        left_end, right_end = socket.socketpair()
        transport = SocketTransport(left_end)
        right_end.sendall(frame_payload(b"whole")[:6])  # header + one byte
        right_end.close()
        with pytest.raises(EOFError):
            transport.recv_bytes()
        transport.close()

    def test_one_poll_object_per_transport(self, monkeypatch):
        import select

        built = []
        real_poll = select.poll
        monkeypatch.setattr(select, "poll", lambda: built.append(1) or real_poll())
        left, right = _socketpair()
        assert len(built) == 2
        for index in range(20):
            left.send_bytes(b"%d" % index)
            assert right.poll(1.0)
            right.send_bytes(right.recv_bytes())
            assert left.poll(1.0)
            assert left.recv_bytes() == b"%d" % index
        assert len(built) == 2
        left.close()
        right.close()

    def test_only_tcp_sockets_get_nodelay(self):
        left, right = _socketpair()
        assert left._sock.family == socket.AF_UNIX
        left.close()
        right.close()
        with SocketListener(port=0) as listener:
            client = SocketTransport.connect("127.0.0.1", listener.port)
            server = listener.accept(timeout=5.0)
            for end in (client, server):
                assert end._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            client.close()
            server.close()


class TestSocketTransport:
    """The loopback TCP form the benchmark harness's socket echo dials."""

    def test_round_trip_framing_and_poll(self):
        with SocketListener(port=0) as listener:
            client = SocketTransport.connect("127.0.0.1", listener.port)
            server = listener.accept(timeout=5.0)
            try:
                assert server.poll(0.0) is False
                payload = serialize_message({"type": "ping", "msg_id": 7})
                client.send_bytes(payload)
                assert server.poll(5.0) is True
                assert server.recv_bytes() == payload
                # Several messages on one stream stay message-delimited.
                for index in range(5):
                    server.send_bytes(b"m%d" % index)
                assert [client.recv_bytes() for _ in range(5)] == [
                    b"m0", b"m1", b"m2", b"m3", b"m4"
                ]
            finally:
                client.close()
                server.close()

    def test_peer_close_raises_eof(self):
        with SocketListener(port=0) as listener:
            client = SocketTransport.connect("127.0.0.1", listener.port)
            server = listener.accept(timeout=5.0)
            server.close()
            with pytest.raises(EOFError):
                client.recv_bytes()
            client.close()

    def test_send_after_close_rejected(self):
        with SocketListener(port=0) as listener:
            client = SocketTransport.connect("127.0.0.1", listener.port)
            client.close()
            with pytest.raises(OSError):
                client.send_bytes(b"late")


class TestFraming:
    def test_round_trip(self):
        framed = frame_payload(b"abc")
        assert frame_length(framed[:4]) == 3
        assert framed[4:] == b"abc"

    def test_corrupt_header_rejected(self):
        with pytest.raises(ValueError):
            frame_length(b"\xff\xff\xff\xff")


# -- failure detection -------------------------------------------------------------


class TestFailureDetector:
    def _detector(self, clock):
        return FailureDetector(
            ["w0", "w1"],
            heartbeat_interval_seconds=1.0,
            worker_timeout_seconds=5.0,
            clock=clock,
        )

    def test_states_progress_alive_suspect_dead(self):
        clock = FakeClock()
        detector = self._detector(clock)
        assert detector.state("w0") == FailureDetector.ALIVE
        clock.advance(2.5)  # past 2 heartbeat intervals
        assert detector.state("w0") == FailureDetector.SUSPECT
        clock.advance(3.0)  # past worker_timeout_seconds
        assert detector.state("w0") == FailureDetector.DEAD

    def test_any_reply_is_a_heartbeat(self):
        clock = FakeClock()
        detector = self._detector(clock)
        clock.advance(2.5)
        detector.record_reply("w0")
        assert detector.state("w0") == FailureDetector.ALIVE
        assert detector.state("w1") == FailureDetector.SUSPECT
        assert detector.heartbeat_ages()["w0"] == pytest.approx(0.0)

    def test_due_for_ping_only_when_idle(self):
        clock = FakeClock()
        detector = self._detector(clock)
        assert not detector.due_for_ping("w0")
        clock.advance(1.5)
        assert detector.due_for_ping("w0")
        detector.record_reply("w0")
        assert not detector.due_for_ping("w0")

    def test_death_is_sticky(self):
        clock = FakeClock()
        detector = self._detector(clock)
        assert detector.mark_dead("w0", "killed") is True
        assert detector.mark_dead("w0") is False  # already dead
        detector.record_reply("w0")  # resurrection attempt is ignored
        assert detector.is_dead("w0")
        assert detector.state("w0") == FailureDetector.DEAD
        assert detector.dead_workers() == {"w0": "killed"}
        assert not detector.due_for_ping("w0")
        assert detector.deadline_exceeded("w0")

    def test_unknown_worker_cannot_die(self):
        detector = self._detector(FakeClock())
        assert detector.mark_dead("w99") is False

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureDetector([], heartbeat_interval_seconds=0, worker_timeout_seconds=1)
        with pytest.raises(ValueError):
            FailureDetector([], heartbeat_interval_seconds=1, worker_timeout_seconds=0)


class _PingHandle:
    """A worker handle whose ping answers ``reply`` (None: a request holds it)."""

    def __init__(self, reply):
        self.reply = reply
        self.sent = []

    def request(self, message, timeout, blocking=True):
        assert blocking is False  # the heartbeat never waits for a busy channel
        self.sent.append(message)
        return self.reply


def test_heartbeat_round_pings_idle_workers_and_leaves_dispatch_alone():
    """Only workers idle past the interval are pinged; a ``{"pong": true}``
    reply makes the worker heard again, a busy handle is skipped, and the
    round touches none of the router's dispatch books."""
    from repro.serving.router import ShardRouter

    handles = {
        "w0": _PingHandle({"pong": True, "ok": True}),
        "w1": _PingHandle(None),
        "w2": _PingHandle({"pong": True, "ok": True}),
    }
    router = ShardRouter(list(handles), replicas=2)
    router.set_placement("plan", ["w0", "w2"])
    busy = router.acquire("plan")
    cluster = SimpleNamespace(
        config=SimpleNamespace(heartbeat_interval_seconds=1.0, worker_timeout_seconds=5.0),
        _workers=handles,
        worker_ids=lambda: list(handles),
        _message=lambda kind: {"type": kind},
        router=router,
    )
    plane = ControlPlane(cluster)
    clock = FakeClock()
    plane.detector = FailureDetector(
        list(handles), heartbeat_interval_seconds=1.0, worker_timeout_seconds=5.0, clock=clock
    )
    books = router.stats()
    clock.advance(1.5)
    plane.detector.record_reply("w2")  # heard just now: not due
    plane._heartbeat_round()
    assert [handle.sent for handle in handles.values()] == [[{"type": "ping"}], [{"type": "ping"}], []]
    assert plane.heartbeats_sent == 1
    assert plane.detector.heartbeat_ages() == {"w0": 0.0, "w1": 1.5, "w2": 0.0}
    assert router.stats() == books
    assert router.inflight(busy) == 1


def test_worker_failed_error_is_retryable_and_typed():
    error = WorkerFailedError("w0", "plan-a", "connection lost")
    assert error.retryable is True
    assert error.worker_id == "w0"
    assert error.plan_id == "plan-a"
    assert "retryable" in str(error)


# -- plan lifecycle ------------------------------------------------------------------


class TestPlanLifecycle:
    def test_exclusive_vs_shared_checksums(self):
        lifecycle = PlanLifecycle()
        lifecycle.note_registered("a", ["c1", "c2"])
        lifecycle.note_registered("b", ["c2", "c3"])
        assert lifecycle.exclusive_checksums("a") == {"c1"}
        assert lifecycle.exclusive_checksums("b") == {"c3"}
        # Releasing "a" frees only its exclusive slab; c2 stays (b holds it).
        assert lifecycle.release("a") == {"c1"}
        assert lifecycle.exclusive_checksums("b") == {"c2", "c3"}
        assert lifecycle.release("b") == {"c2", "c3"}
        assert lifecycle.plans() == []

    def test_release_is_idempotent_for_unknown_plans(self):
        lifecycle = PlanLifecycle()
        assert lifecycle.release("ghost") == set()

    def test_note_registered_accumulates_claims(self):
        lifecycle = PlanLifecycle()
        lifecycle.note_registered("a", ["c1"])
        lifecycle.note_registered("a", ["c2", "c1"])
        assert lifecycle.checksums("a") == {"c1", "c2"}
        assert lifecycle.exclusive_checksums("a") == {"c1", "c2"}
        assert lifecycle.plans() == ["a"]

    def test_checksums_returns_a_copy(self):
        lifecycle = PlanLifecycle()
        lifecycle.note_registered("a", ["c1"])
        lifecycle.checksums("a").add("c2")
        lifecycle.exclusive_checksums("a").clear()
        assert lifecycle.checksums("a") == {"c1"}
        assert lifecycle.exclusive_checksums("a") == {"c1"}
        assert lifecycle.checksums("ghost") == set()

    def test_plan_without_arena_parameters_is_tracked(self):
        """A plan whose every parameter overflowed (or is too small to
        share) claims nothing, so its release frees nothing."""
        lifecycle = PlanLifecycle()
        lifecycle.note_registered("private", [])
        assert lifecycle.plans() == ["private"]
        assert lifecycle.stats() == {"plans_tracked": 1, "shared_checksums": 0}
        assert lifecycle.release("private") == set()
        assert lifecycle.plans() == []

    def test_stats_count_plans_and_distinct_checksums(self):
        lifecycle = PlanLifecycle()
        lifecycle.note_registered("a", ["c1", "c2"])
        lifecycle.note_registered("b", ["c2"])
        assert lifecycle.stats() == {"plans_tracked": 2, "shared_checksums": 2}
        lifecycle.release("a")
        assert lifecycle.stats() == {"plans_tracked": 1, "shared_checksums": 1}
        lifecycle.release("b")
        assert lifecycle.stats() == {"plans_tracked": 0, "shared_checksums": 0}

    def test_concurrent_sharers_free_each_checksum_exactly_once(self):
        """Racing registrations and releases of plans sharing one checksum
        set: every checksum is reported freeable by exactly one release (the
        last sharer's), never by an earlier one."""
        lifecycle = PlanLifecycle()
        checksums = [f"c{index}" for index in range(16)]
        plans = [f"p{index}" for index in range(8)]
        for plan_id in plans:
            lifecycle.note_registered(plan_id, checksums)
        freed = []
        barrier = threading.Barrier(len(plans))

        def release(plan_id):
            barrier.wait(timeout=10.0)
            freed.append(lifecycle.release(plan_id))

        threads = [threading.Thread(target=release, args=(plan_id,)) for plan_id in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(freed) == len(plans)
        assert sorted(len(batch) for batch in freed) == [0] * (len(plans) - 1) + [16]
        assert set().union(*freed) == set(checksums)
        assert lifecycle.stats() == {"plans_tracked": 0, "shared_checksums": 0}


class TestReadTimeout:
    def test_mid_frame_stall_raises_instead_of_hanging(self):
        """A peer that goes silent *inside* a frame must not hang the dialing
        side past its read timeout (the worker_timeout_seconds contract)."""
        import time

        with SocketListener(port=0) as listener:
            client = SocketTransport.connect(
                "127.0.0.1", listener.port, read_timeout=0.2
            )
            server = listener.accept(timeout=5.0)
            try:
                server.send_bytes(b"whole message")
                assert client.recv_bytes() == b"whole message"
                # Now only half a header arrives, then silence.
                server._sock.sendall(b"\x00\x00")
                start = time.monotonic()
                with pytest.raises(OSError):
                    client.recv_bytes()
                assert time.monotonic() - start < 5.0
            finally:
                client.close()
                server.close()

    def test_no_read_timeout_by_default_on_accepted_side(self):
        with SocketListener(port=0) as listener:
            client = SocketTransport.connect("127.0.0.1", listener.port)
            server = listener.accept(timeout=5.0)
            assert server._sock.gettimeout() is None  # idle blocking is normal
            client.close()
            server.close()
