import pytest


@pytest.fixture
def record_messages():
    """`record_messages(net)` wraps that net's `request` and returns the list it logs to.

    Each frame is logged as it is sent, and each reply as it arrives, as
    (virtual time, sender, receiver, message type name); a request that
    fails logs its frame and no reply.  `exchange` calls `request`, so its
    frames are logged too.
    """

    def record(net):
        log = []
        request = net.request

        def recorded(origin, dst, frame, timeout_ms=1000.0):
            log.append((net.clock, origin, dst, frame.type.name))
            reply, rtt = request(origin, dst, frame, timeout_ms)
            log.append((net.clock, dst, origin, reply.type.name))
            return reply, rtt

        net.request = recorded
        return log

    return record
