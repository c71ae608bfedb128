// Real-socket transport backend tests (loopback). These tests use actual
// UDP/TCP sockets and wall-clock timers, with generous deadlines so they
// stay robust on loaded CI machines.
#include "transport/posix_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "test_ports.hpp"

namespace narada::transport {
namespace {

/// Thread-safe recorder with wait support.
class Recorder final : public MessageHandler {
public:
    struct Received {
        Endpoint from;
        Bytes data;
        bool reliable;
    };

    void on_datagram(const Endpoint& from, const Bytes& data) override {
        push({from, data, false});
    }
    void on_reliable(const Endpoint& from, const Bytes& data) override {
        push({from, data, true});
    }

    bool wait_for(std::size_t count, int timeout_ms = 3000) {
        std::unique_lock lock(mutex_);
        return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return received_.size() >= count; });
    }

    std::vector<Received> snapshot() {
        std::scoped_lock lock(mutex_);
        return received_;
    }

private:
    void push(Received r) {
        {
            std::scoped_lock lock(mutex_);
            received_.push_back(std::move(r));
        }
        cv_.notify_all();
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Received> received_;
};

/// Values pushed by timers on the reactor and waited for on the test
/// thread. Timers hold it by shared_ptr, so a notify still in progress on
/// the reactor never reaches a destroyed condition variable.
class Signal {
public:
    void push(int value) {
        {
            std::scoped_lock lock(mutex_);
            values_.push_back(value);
        }
        cv_.notify_all();
    }
    bool wait_for(std::size_t count, int timeout_ms = 3000) {
        std::unique_lock lock(mutex_);
        return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                            [&] { return values_.size() >= count; });
    }
    std::vector<int> values() {
        std::scoped_lock lock(mutex_);
        return values_;
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<int> values_;
};

/// Runs a test-supplied action for each datagram, on the reactor thread.
class Hook final : public MessageHandler {
public:
    std::function<void(const Endpoint& from, const Bytes& data)> action;
    void on_datagram(const Endpoint& from, const Bytes& data) override { action(from, data); }
};

struct PosixFixture : ::testing::Test {
    PosixFixture() {
        // Before any bind: the reactor reads the instrument pointers
        // unsynchronized once sockets are live.
        transport.set_observability(&metrics, "posix");
        ep_a = {1, claim_test_port()};
        ep_b = {2, claim_test_port()};
        transport.bind(ep_a, &rx_a);
        transport.bind(ep_b, &rx_b);
    }

    /// Eventfd writes so far: the times another thread woke the loop.
    std::uint64_t wakeups() { return metrics.counter("transport_wakeups", "posix").value(); }

    // The handlers and the registry are declared first so they outlive the
    // transport: its reactor may still be using them until it is destroyed.
    Recorder rx_a, rx_b;
    Recorder rx_spare;  ///< a handler to rebind to
    Hook hook_a, hook_b;  ///< handlers whose action a test supplies
    obs::MetricsRegistry metrics;
    PosixTransport transport;
    Endpoint ep_a, ep_b;
};

/// Connect a raw blocking TCP socket to a bound endpoint's listener.
int raw_tcp_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Append one u32 length-prefixed frame to `out`.
void append_frame(Bytes& out, const Bytes& payload) {
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (const int shift : {24, 16, 8, 0}) out.push_back(static_cast<std::uint8_t>(len >> shift));
    out.insert(out.end(), payload.begin(), payload.end());
}

std::int64_t elapsed_us(std::chrono::steady_clock::time_point since) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - since)
        .count();
}

TEST_F(PosixFixture, DatagramDelivery) {
    transport.send_datagram(ep_a, ep_b, Bytes{1, 2, 3});
    ASSERT_TRUE(rx_b.wait_for(1));
    const auto received = rx_b.snapshot();
    EXPECT_EQ(received[0].data, (Bytes{1, 2, 3}));
    EXPECT_EQ(received[0].from, ep_a);
    EXPECT_FALSE(received[0].reliable);
}

TEST_F(PosixFixture, DatagramBothDirections) {
    transport.send_datagram(ep_a, ep_b, Bytes{1});
    transport.send_datagram(ep_b, ep_a, Bytes{2});
    ASSERT_TRUE(rx_a.wait_for(1));
    ASSERT_TRUE(rx_b.wait_for(1));
    EXPECT_EQ(rx_a.snapshot()[0].from, ep_b);
}

TEST_F(PosixFixture, ReliableDeliveryWithSenderIdentity) {
    transport.send_reliable(ep_a, ep_b, Bytes{9, 8, 7});
    ASSERT_TRUE(rx_b.wait_for(1));
    const auto received = rx_b.snapshot();
    EXPECT_TRUE(received[0].reliable);
    EXPECT_EQ(received[0].from, ep_a);  // learned from the hello frame
    EXPECT_EQ(received[0].data, (Bytes{9, 8, 7}));
}

TEST_F(PosixFixture, ReliableOrderPreserved) {
    constexpr int kN = 200;
    for (int i = 0; i < kN; ++i) {
        transport.send_reliable(ep_a, ep_b, Bytes{static_cast<std::uint8_t>(i)});
    }
    ASSERT_TRUE(rx_b.wait_for(kN, 10000));
    const auto received = rx_b.snapshot();
    for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(received[i].data[0], static_cast<std::uint8_t>(i));
    }
}

TEST_F(PosixFixture, ReliableReusesOneConnection) {
    // Many messages, one TCP connection: ordering proves a single stream.
    transport.send_reliable(ep_a, ep_b, Bytes(10000, 0xAA));  // multi-read frame
    transport.send_reliable(ep_a, ep_b, Bytes{1});
    ASSERT_TRUE(rx_b.wait_for(2, 5000));
    const auto received = rx_b.snapshot();
    EXPECT_EQ(received[0].data.size(), 10000u);
    EXPECT_EQ(received[1].data.size(), 1u);
}

TEST_F(PosixFixture, LargeFrame) {
    Bytes big(1 << 20, 0x5C);  // 1 MiB
    transport.send_reliable(ep_a, ep_b, big);
    ASSERT_TRUE(rx_b.wait_for(1, 10000));
    EXPECT_EQ(rx_b.snapshot()[0].data, big);
}

TEST_F(PosixFixture, MulticastEmulation) {
    transport.join_multicast(1, ep_a);
    transport.join_multicast(1, ep_b);
    transport.send_multicast(1, ep_a, Bytes{7});
    ASSERT_TRUE(rx_b.wait_for(1));
    // The sender must not receive its own multicast.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_TRUE(rx_a.snapshot().empty());
    // After leaving, no more deliveries.
    transport.leave_multicast(1, ep_b);
    transport.send_multicast(1, ep_a, Bytes{8});
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(rx_b.snapshot().size(), 1u);
}

TEST_F(PosixFixture, TimerFires) {
    auto fired = std::make_shared<Signal>();
    transport.schedule(from_ms(50), [fired] { fired->push(1); });
    EXPECT_TRUE(fired->wait_for(1));
}

TEST_F(PosixFixture, TimerCancel) {
    std::atomic<bool> fired{false};
    const TimerHandle handle = transport.schedule(from_ms(100), [&] { fired = true; });
    transport.cancel_timer(handle);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    EXPECT_FALSE(fired);
}

TEST_F(PosixFixture, TimerOrdering) {
    auto order = std::make_shared<Signal>();
    transport.schedule(from_ms(120), [order] { order->push(3); });
    transport.schedule(from_ms(40), [order] { order->push(1); });
    transport.schedule(from_ms(80), [order] { order->push(2); });
    ASSERT_TRUE(order->wait_for(3));
    EXPECT_EQ(order->values(), (std::vector<int>{1, 2, 3}));
}

TEST_F(PosixFixture, UnbindStopsDelivery) {
    transport.unbind(ep_b);
    transport.send_datagram(ep_a, ep_b, Bytes{1});
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(rx_b.snapshot().empty());
}

TEST_F(PosixFixture, RebindReplacesHandlerAndKeepsSockets) {
    transport.bind(ep_b, &rx_spare);
    transport.send_datagram(ep_a, ep_b, Bytes{7});
    ASSERT_TRUE(rx_spare.wait_for(1));
    EXPECT_EQ(rx_spare.snapshot()[0].data, (Bytes{7}));
    EXPECT_TRUE(rx_b.snapshot().empty());
}

TEST_F(PosixFixture, BindConflictThrows) {
    Recorder other;
    PosixTransport second;
    // The port is held by `transport`; a second process-level bind fails.
    EXPECT_THROW(second.bind(ep_a, &other), std::system_error);
}

TEST_F(PosixFixture, ReliableToDeadEndpointDoesNotCrash) {
    const Endpoint nobody{9, claim_test_port()};
    transport.send_reliable(ep_a, nobody, Bytes{1});
    transport.send_datagram(ep_a, nobody, Bytes{1});
    // Nothing to assert beyond "no crash / no hang".
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

// --- Wake-ups and drains ------------------------------------------------------

TEST_F(PosixFixture, HandlerPingPongWakesTheLoopOnce) {
    // Only the kick comes from another thread. Every later hop is a send
    // from a handler, which the loop drains at the end of its iteration
    // without waking itself.
    constexpr int kRoundTrips = 50;
    auto hops_left = std::make_shared<int>(2 * kRoundTrips);  // reactor-only
    auto done = std::make_shared<Signal>();
    const auto bounce = [this, hops_left, done](Endpoint self) {
        return [this, hops_left, done, self](const Endpoint& from, const Bytes& data) {
            if (--*hops_left > 0) {
                transport.send_datagram(self, from, Bytes(data));
            } else {
                done->push(1);
            }
        };
    };
    hook_a.action = bounce(ep_a);
    hook_b.action = bounce(ep_b);
    transport.bind(ep_a, &hook_a);
    transport.bind(ep_b, &hook_b);

    const std::uint64_t before = wakeups();
    transport.send_datagram(ep_a, ep_b, Bytes{1});
    ASSERT_TRUE(done->wait_for(1, 5000));
    EXPECT_EQ(wakeups() - before, 1u);
}

TEST_F(PosixFixture, ScheduleFromHandlerRunsBeforeTheIdleTick) {
    // A zero-delay timer armed in a handler writes no wake-up: the loop
    // takes its next wait from the timer heap, so the task runs on the
    // next pass instead of after the 100 ms idle wait.
    auto waited_us = std::make_shared<Signal>();
    hook_b.action = [this, waited_us](const Endpoint&, const Bytes&) {
        const auto armed = std::chrono::steady_clock::now();
        transport.schedule(0, [waited_us, armed] {
            waited_us->push(static_cast<int>(elapsed_us(armed)));
        });
    };
    transport.bind(ep_b, &hook_b);
    transport.send_datagram(ep_a, ep_b, Bytes{1});
    ASSERT_TRUE(waited_us->wait_for(1));
    EXPECT_LT(waited_us->values()[0], 50'000);
}

TEST_F(PosixFixture, CrossThreadSendAndScheduleWakeAnIdleLoop) {
    // Other threads still wake the loop out of its idle wait: once for the
    // send's empty -> non-empty queue, once for the schedule.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t before = wakeups();
    auto start = std::chrono::steady_clock::now();
    transport.send_datagram(ep_a, ep_b, Bytes{1});
    ASSERT_TRUE(rx_b.wait_for(1));
    EXPECT_LT(elapsed_us(start), 50'000);

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto fired = std::make_shared<Signal>();
    start = std::chrono::steady_clock::now();
    transport.schedule(0, [fired] { fired->push(1); });
    ASSERT_TRUE(fired->wait_for(1));
    EXPECT_LT(elapsed_us(start), 50'000);
    EXPECT_EQ(wakeups() - before, 2u);
}

TEST_F(PosixFixture, FramesBeforePeerCloseArriveWholeThenConnectionCloses) {
    // A raw peer writes its hello, a 200 KiB frame and a small one, then
    // shuts its sending side down. The big frame takes several 64 KiB
    // reads: each full read goes on, a short one ends the drain, and epoll
    // brings back the rest, the end of the stream included. Both frames
    // arrive whole, then the transport closes its end.
    const Endpoint peer{7, claim_test_port()};
    Bytes big(200 * 1024, 0xC3);
    Bytes stream;
    append_frame(stream, Bytes{0, 0, 0, 7, static_cast<std::uint8_t>(peer.port >> 8),
                               static_cast<std::uint8_t>(peer.port)});
    append_frame(stream, big);
    append_frame(stream, Bytes{9});
    const int fd = raw_tcp_connect(ep_b.port);
    ASSERT_GE(fd, 0);
    for (std::size_t off = 0; off < stream.size();) {
        const ssize_t n = ::send(fd, stream.data() + off, stream.size() - off, MSG_NOSIGNAL);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);

    ASSERT_TRUE(rx_b.wait_for(2, 10000));
    const auto received = rx_b.snapshot();
    EXPECT_EQ(received[0].data, big);
    EXPECT_EQ(received[0].from, peer);
    EXPECT_EQ(received[1].data, (Bytes{9}));

    const timeval limit{5, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
    std::uint8_t byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // end of stream, not a timeout
    ::close(fd);
}

}  // namespace
}  // namespace narada::transport
