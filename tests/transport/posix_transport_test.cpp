// Real-socket transport backend tests (loopback). These tests use actual
// UDP/TCP sockets and wall-clock timers, with generous deadlines so they
// stay robust on loaded CI machines.
#include "transport/posix_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

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

struct PosixFixture : ::testing::Test {
    PosixFixture() {
        ep_a = {1, claim_test_port()};
        ep_b = {2, claim_test_port()};
        transport.bind(ep_a, &rx_a);
        transport.bind(ep_b, &rx_b);
    }

    // The recorders are declared first so they outlive the transport: its
    // reactor may still be delivering to them until it is destroyed.
    Recorder rx_a, rx_b;
    Recorder rx_spare;  ///< a handler to rebind to
    PosixTransport transport;
    Endpoint ep_a, ep_b;
};

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

}  // namespace
}  // namespace narada::transport
