// ShardRuntime: the thread-per-core real-socket datapath over real
// loopback sockets. The suite proves the contract the protocol layer leans
// on — an endpoint homed on shard i has its sockets on shard i alone, so it
// only ever runs on shard i's thread and everything it sends leaves
// through shard i, whichever thread made the call — plus timer routing,
// run_on and call, and a full RUDP bulk transfer between shards of a 4-shard
// runtime. The storm tests double as the TSan soak: home-shard sinks
// mutate non-atomic state on purpose, so any violation of the
// single-thread contract is a data race the sanitizer catches, not just a
// flaky counter.
#include "transport/shard_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "obs/metrics.hpp"
#include "transport/rudp_channel.hpp"
#include "test_ports.hpp"
#include "wire/codec.hpp"

namespace narada::transport {
namespace {

using namespace std::chrono_literals;

bool wait_for(const std::function<bool()>& done, int timeout_ms = 10000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(200us);
    }
    return true;
}

/// Handler for source endpoints, which receive nothing.
class NullSink final : public MessageHandler {
public:
    void on_datagram(const Endpoint&, const Bytes&) override {}
};

/// Home-shard sink: checks every delivery runs on the declared home shard
/// and mutates non-atomic state on purpose — if the runtime ever delivers
/// off-home, `bytes()` goes torn/racy and the TSan job flags it.
class HomeSink final : public MessageHandler {
public:
    HomeSink(ShardRuntime* rt, int home) : rt_(rt), home_(home) {}

    void on_datagram(const Endpoint&, const Bytes& data) override {
        if (rt_->current_shard() != home_) off_home_.fetch_add(1, std::memory_order_relaxed);
        bytes_ += data.size();  // serialized on the home thread by contract
        // Release pairs with count()'s acquire: once the test thread has
        // seen the final count, every preceding bytes_ write is visible.
        count_.fetch_add(1, std::memory_order_release);
    }
    void on_reliable(const Endpoint& from, const Bytes& data) override {
        on_datagram(from, data);
    }

    [[nodiscard]] std::uint64_t count() const {
        return count_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::uint64_t off_home() const {
        return off_home_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t bytes() const { return bytes_; }  // after quiesce

private:
    ShardRuntime* rt_;
    int home_;
    std::uint64_t bytes_ = 0;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> off_home_{0};
};

struct ShardedFixture : ::testing::Test {
    static constexpr std::size_t kShards = 4;

    /// A sending endpoint and the shard it is homed on.
    struct Source {
        Endpoint ep;
        std::size_t shard = 0;
    };

    std::unique_ptr<ShardRuntime> make_runtime(std::size_t shards,
                                               obs::MetricsRegistry* metrics = nullptr) {
        ShardRuntimeOptions options;
        options.shards = shards;
        auto rt = std::make_unique<ShardRuntime>(options);
        if (metrics != nullptr) rt->set_observability(metrics, "t");
        return rt;
    }

    /// Claim `count` loopback endpoints.
    std::vector<Endpoint> make_endpoints(std::size_t count, HostId host_base) {
        std::vector<Endpoint> out;
        for (std::size_t i = 0; i < count; ++i) {
            out.push_back(Endpoint{static_cast<HostId>(host_base + i), claim_test_port()});
        }
        return out;
    }

    /// `count` sources homed round-robin over every shard of `rt`.
    std::vector<Source> bind_sources(ShardRuntime& rt, std::size_t count, MessageHandler* sink) {
        std::vector<Source> out;
        for (const Endpoint& ep : make_endpoints(count, 10)) {
            const std::size_t shard = out.size() % rt.shards();
            rt.port(shard).bind(ep, sink);
            out.push_back({ep, shard});
        }
        return out;
    }

    /// Spray `total` 32-byte datagrams at `rx`, round-robin over `sources`,
    /// each through its home port. Even windows are sent from this
    /// (non-reactor) thread, odd ones from each source's own reactor
    /// thread; windows pace the storm so loopback buffers never overflow.
    bool spray(ShardRuntime& rt, const std::vector<Source>& sources, const Endpoint& rx,
               std::size_t total, const std::function<std::uint64_t()>& delivered) {
        constexpr std::size_t kWindow = 256;
        const std::uint64_t base = delivered();
        std::size_t sent = 0;
        for (std::size_t window = 0; sent < total; ++window) {
            const std::size_t burst = std::min(kWindow, total - sent);
            for (std::size_t i = 0; i < burst; ++i) {
                const Source& src = sources[(sent + i) % sources.size()];
                ShardPort& port = rt.port(src.shard);
                auto send = [&port, from = src.ep, rx] {
                    Bytes buf = port.acquire_buffer();
                    buf.resize(32, 0xAB);
                    port.send_datagram(from, rx, std::move(buf));
                };
                if (window % 2 == 0) {
                    send();
                } else {
                    port.schedule(0, send);
                }
            }
            sent += burst;
            if (!wait_for([&] { return delivered() >= base + sent; })) return false;
        }
        return true;
    }

    /// Datagrams and frames received on each shard's sockets.
    static std::vector<std::uint64_t> frames_in(const obs::MetricsRegistry& metrics,
                                                std::size_t shards) {
        std::vector<std::uint64_t> out;
        for (std::size_t s = 0; s < shards; ++s) {
            out.push_back(metrics.counter_value("transport_frames_in", "t#" + std::to_string(s)));
        }
        return out;
    }
};

TEST_F(ShardedFixture, SingleShardDegeneratesToPlainTransport) {
    auto rt = make_runtime(1);
    NullSink noop;
    HomeSink sink(rt.get(), /*home=*/0);
    const auto eps = make_endpoints(2, 1);
    rt->bind(eps[0], &noop);
    rt->bind(eps[1], &sink);

    EXPECT_TRUE(spray(*rt, {{eps[0], 0}}, eps[1], 64, [&] { return sink.count(); }));
    EXPECT_EQ(sink.count(), 64u);
    EXPECT_EQ(sink.off_home(), 0u);

    std::atomic<bool> fired{false};
    rt->schedule(0, [&] { fired.store(true, std::memory_order_relaxed); });
    EXPECT_TRUE(wait_for([&] { return fired.load(std::memory_order_relaxed); }));
}

// Spreading load over the group means homing one endpoint per shard: each
// sink counts everything sent to it, on its own shard.
TEST_F(ShardedFixture, SpreadDeliveryCountsEverythingAcrossGroup) {
    obs::MetricsRegistry metrics;
    auto rt = make_runtime(kShards, &metrics);
    NullSink noop;
    const auto sources = bind_sources(*rt, 16, &noop);
    const auto rxv = make_endpoints(kShards, 1);
    std::vector<std::unique_ptr<HomeSink>> sinks;
    for (std::size_t s = 0; s < kShards; ++s) {
        sinks.push_back(std::make_unique<HomeSink>(rt.get(), static_cast<int>(s)));
        rt->port(s).bind(rxv[s], sinks.back().get());
    }

    for (std::size_t s = 0; s < kShards; ++s) {
        EXPECT_TRUE(spray(*rt, sources, rxv[s], 512, [&] { return sinks[s]->count(); }));
    }
    for (std::size_t s = 0; s < kShards; ++s) {
        EXPECT_EQ(sinks[s]->count(), 512u);
        EXPECT_EQ(sinks[s]->off_home(), 0u);
        EXPECT_EQ(frames_in(metrics, kShards)[s], 512u) << "shard " << s;
    }
}

TEST_F(ShardedFixture, HomeShardSerializesCrossShardDelivery) {
    obs::MetricsRegistry metrics;
    auto rt = make_runtime(kShards, &metrics);
    NullSink noop;
    HomeSink sink(rt.get(), /*home=*/2);
    const auto sources = bind_sources(*rt, 16, &noop);
    const auto rxv = make_endpoints(1, 1);
    rt->port(2).bind(rxv[0], &sink);

    constexpr std::size_t kTotal = 512;
    EXPECT_TRUE(spray(*rt, sources, rxv[0], kTotal, [&] { return sink.count(); }));
    EXPECT_EQ(sink.count(), kTotal);
    EXPECT_EQ(sink.off_home(), 0u) << "a homed handler ran off its shard";
    EXPECT_EQ(sink.bytes(), kTotal * 32u);
    // Sources on every shard, yet only the home shard's socket received.
    EXPECT_EQ(frames_in(metrics, kShards), (std::vector<std::uint64_t>{0, 0, kTotal, 0}));
}

// The TSan soak: a sustained storm from sources on every shard, sent from
// their reactor threads and from this one, into one non-atomic homed sink.
TEST_F(ShardedFixture, CrossShardStormDeliversEverythingInOrderOfArrival) {
    obs::MetricsRegistry metrics;
    auto rt = make_runtime(kShards, &metrics);
    NullSink noop;
    HomeSink sink(rt.get(), /*home=*/1);
    const auto sources = bind_sources(*rt, 32, &noop);
    const auto rxv = make_endpoints(1, 1);
    rt->port(1).bind(rxv[0], &sink);

    constexpr std::size_t kTotal = 4096;
    EXPECT_TRUE(spray(*rt, sources, rxv[0], kTotal, [&] { return sink.count(); }));
    EXPECT_EQ(sink.count(), kTotal);
    EXPECT_EQ(sink.off_home(), 0u);
    EXPECT_EQ(sink.bytes(), kTotal * 32u);
    EXPECT_EQ(frames_in(metrics, kShards), (std::vector<std::uint64_t>{0, kTotal, 0, 0}));

    const std::string snapshot = rt->debug_snapshot();
    EXPECT_NE(snapshot.find("\"component\":\"shard_runtime\""), std::string::npos);
    EXPECT_NE(snapshot.find("\"shards\":4"), std::string::npos);
}

// How realsock_discovery starts its nodes: main() sends through the port a
// node is homed on, and the datagram or frame leaves through that shard's
// sockets. The runtime's own sends from main() leave through shard 0.
TEST_F(ShardedFixture, SendFromMainThroughPortLeavesThroughItsShard) {
    obs::MetricsRegistry metrics;
    auto rt = make_runtime(kShards, &metrics);
    NullSink noop;
    HomeSink sink(rt.get(), /*home=*/0);
    const auto eps = make_endpoints(3, 1);
    rt->port(0).bind(eps[0], &sink);
    rt->port(2).bind(eps[1], &noop);
    rt->port(3).bind(eps[2], &noop);

    const auto frames_out = [&](std::size_t s) {
        return metrics.counter_value("transport_frames_out", "t#" + std::to_string(s));
    };
    for (int i = 0; i < 8; ++i) {
        Bytes buf = rt->port(2).acquire_buffer();
        buf.resize(32, 0x01);
        rt->port(2).send_datagram(eps[1], eps[0], std::move(buf));
    }
    rt->port(3).send_reliable(eps[2], eps[0], Bytes(32, 0x02));
    EXPECT_TRUE(wait_for([&] { return sink.count() == 9 && frames_out(2) == 8; }));
    EXPECT_TRUE(wait_for([&] { return frames_out(3) == 1; }));
    EXPECT_EQ(frames_out(0), 0u);
    EXPECT_EQ(frames_out(1), 0u);

    // A source homed by the runtime's own bind sends through shard 0.
    const auto extra = make_endpoints(1, 20);
    rt->bind(extra[0], &noop);
    rt->send_datagram(extra[0], eps[0], Bytes(32, 0x03));
    EXPECT_TRUE(wait_for([&] { return sink.count() == 10 && frames_out(0) == 1; }));
    EXPECT_EQ(sink.off_home(), 0u);
}

// Membership is registered on every shard, because a multicast send reads
// the sending shard's member list; unbinding must clear it on all of them.
TEST_F(ShardedFixture, MulticastReachesMembersAndUnbindLeavesOnEveryShard) {
    auto rt = make_runtime(kShards);
    NullSink noop;
    HomeSink member(rt.get(), /*home=*/1);
    HomeSink successor(rt.get(), /*home=*/3);
    const auto eps = make_endpoints(2, 1);
    constexpr MulticastGroup kGroup = 7;
    rt->port(1).bind(eps[0], &member);
    rt->port(1).join_multicast(kGroup, eps[0]);
    rt->port(2).bind(eps[1], &noop);

    rt->port(2).send_multicast(kGroup, eps[1], Bytes(32, 0x04));
    EXPECT_TRUE(wait_for([&] { return member.count() == 1; }));

    // The port's next owner never joined the group.
    rt->unbind(eps[0]);
    rt->port(3).bind(eps[0], &successor);
    rt->port(2).send_multicast(kGroup, eps[1], Bytes(32, 0x05));
    rt->port(2).send_datagram(eps[1], eps[0], Bytes(32, 0x06));
    EXPECT_TRUE(wait_for([&] { return successor.count() >= 1; }));
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(successor.count(), 1u) << "a multicast reached an endpoint that left";
    EXPECT_EQ(member.off_home() + successor.off_home(), 0u);
}

TEST_F(ShardedFixture, TimersFireOnTheirOwnShardAndCancelAcrossEncoding) {
    auto rt = make_runtime(kShards);

    std::atomic<int> fired{0};
    std::atomic<int> misrouted{0};
    for (std::size_t i = 0; i < kShards; ++i) {
        rt->port(i).schedule(0, [&, i] {
            if (rt->current_shard() != static_cast<int>(i)) {
                misrouted.fetch_add(1, std::memory_order_relaxed);
            }
            fired.fetch_add(1, std::memory_order_relaxed);
        });
    }
    EXPECT_TRUE(wait_for([&] {
        return fired.load(std::memory_order_relaxed) == static_cast<int>(kShards);
    }));
    EXPECT_EQ(misrouted.load(std::memory_order_relaxed), 0);

    // Cancellation round-trips through the shard-encoded handle.
    std::atomic<bool> cancelled_fired{false};
    const TimerHandle handle = rt->port(3).schedule(
        5'000'000, [&] { cancelled_fired.store(true, std::memory_order_relaxed); });
    EXPECT_NE(handle, kInvalidTimerHandle);
    rt->cancel_timer(handle);
    rt->cancel_timer(kInvalidTimerHandle);  // no-op, must not throw

    std::atomic<bool> sentinel{false};
    rt->port(3).schedule(from_ms(20), [&] { sentinel.store(true, std::memory_order_relaxed); });
    EXPECT_TRUE(wait_for([&] { return sentinel.load(std::memory_order_relaxed); }));
    EXPECT_FALSE(cancelled_fired.load(std::memory_order_relaxed));
}

struct RunOnCtx {
    ShardRuntime* rt = nullptr;
    std::atomic<int> ran_on{-2};
};

void record_shard(void* arg) {
    auto* ctx = static_cast<RunOnCtx*>(arg);
    ctx->ran_on.store(ctx->rt->current_shard(), std::memory_order_release);
}

TEST_F(ShardedFixture, RunOnExecutesOnTargetShardFromAnyThread) {
    auto rt = make_runtime(kShards);

    // External thread: a zero-delay timer on the target.
    RunOnCtx external;
    external.rt = rt.get();
    rt->run_on(3, &record_shard, &external);
    EXPECT_TRUE(
        wait_for([&] { return external.ran_on.load(std::memory_order_acquire) != -2; }));
    EXPECT_EQ(external.ran_on.load(std::memory_order_acquire), 3);

    // Another shard's reactor thread: a zero-delay timer on the target.
    RunOnCtx crossed;
    crossed.rt = rt.get();
    rt->port(0).schedule(0, [&] { rt->run_on(2, &record_shard, &crossed); });
    EXPECT_TRUE(
        wait_for([&] { return crossed.ran_on.load(std::memory_order_acquire) != -2; }));
    EXPECT_EQ(crossed.ran_on.load(std::memory_order_acquire), 2);

    // Same-shard target runs inline (synchronously visible afterwards).
    RunOnCtx inline_run;
    inline_run.rt = rt.get();
    std::atomic<bool> done{false};
    rt->port(1).schedule(0, [&] {
        rt->run_on(1, &record_shard, &inline_run);
        done.store(inline_run.ran_on.load(std::memory_order_acquire) == 1,
                   std::memory_order_release);
    });
    EXPECT_TRUE(wait_for([&] { return done.load(std::memory_order_acquire); }));
}

TEST_F(ShardedFixture, CallRunsOnTheHomeReactorAndReturnsItsResult) {
    auto rt = make_runtime(kShards);
    for (std::size_t i = 0; i < rt->shards(); ++i) {
        ShardPort& port = rt->port(i);
        // From this thread: posted to shard i, and the result comes back.
        EXPECT_EQ(port.call([&] { return rt->current_shard(); }), static_cast<int>(i));
        // From shard i's own reactor: inline, so it never waits on itself.
        EXPECT_EQ(port.call([&] { return port.call([&] { return rt->current_shard(); }); }),
                  static_cast<int>(i));
    }
    // What the step wrote is visible once call returns, and its exception
    // reaches the caller.
    int written = 0;
    rt->port(2).call([&] { written = 7; });
    EXPECT_EQ(written, 7);
    EXPECT_THROW(rt->port(3).call([]() -> int { throw std::runtime_error("step failed"); }),
                 std::runtime_error);
}

// --- RUDP over the shard group ----------------------------------------------

/// Strips the type octet and routes frames into the attached channel (the
/// shim every RUDP consumer implements). Homed on the channel's shard, so
/// no synchronization: handle_frame always runs on the channel's thread.
class FrameRouter final : public MessageHandler {
public:
    void attach(RudpChannel* channel) { channel_ = channel; }
    void on_datagram(const Endpoint&, const Bytes& data) override {
        if (channel_ == nullptr || data.empty()) return;
        wire::ByteReader reader(data);
        const std::uint8_t type = reader.u8();
        channel_->handle_frame(type, reader);
    }

private:
    RudpChannel* channel_ = nullptr;
};

// A bulk transfer between two channels homed on different shards of one
// 4-shard runtime: data frames leave shard 1's socket for shard 2's, ACKs
// and NAKs travel back, and the payload must arrive intact and in order.
// Doubles as the RUDP leg of the TSan soak.
TEST_F(ShardedFixture, RudpBulkTransferRidesTheShardGroup) {
    auto rt = make_runtime(kShards);
    WallClock clock;

    const auto eps = make_endpoints(2, 1);
    const Endpoint end_a = eps[0];
    const Endpoint end_b = eps[1];
    FrameRouter router_a, router_b;
    rt->port(1).bind(end_a, &router_a);
    rt->port(2).bind(end_b, &router_b);

    RudpOptions rudp;
    rudp.window = 16;
    auto chan_a =
        std::make_unique<RudpChannel>(rt->port(1), rt->port(1), clock, end_a, end_b, rudp, "a");
    auto chan_b =
        std::make_unique<RudpChannel>(rt->port(2), rt->port(2), clock, end_b, end_a, rudp, "b");
    router_a.attach(chan_a.get());
    router_b.attach(chan_b.get());

    constexpr std::size_t kPayloads = 4;
    constexpr std::size_t kPayloadSize = 64 * 1024;
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<std::uint64_t> corrupt{0};
    chan_b->on_deliver([&](Bytes payload) {
        bool ok = payload.size() == kPayloadSize;
        for (std::size_t i = 0; ok && i < payload.size(); i += 997) {
            ok = payload[i] == static_cast<std::uint8_t>((i * 31) & 0xFF);
        }
        if (!ok) corrupt.fetch_add(1, std::memory_order_relaxed);
        delivered.fetch_add(1, std::memory_order_relaxed);
    });

    // All channel interaction happens on its home shard thread.
    for (std::size_t p = 0; p < kPayloads; ++p) {
        rt->port(1).schedule(0, [&] {
            Bytes payload(kPayloadSize);
            for (std::size_t i = 0; i < payload.size(); ++i) {
                payload[i] = static_cast<std::uint8_t>((i * 31) & 0xFF);
            }
            ASSERT_TRUE(chan_a->send_bulk(std::move(payload)));
        });
    }

    EXPECT_TRUE(wait_for(
        [&] { return delivered.load(std::memory_order_relaxed) >= kPayloads; }, 30000));
    EXPECT_EQ(delivered.load(std::memory_order_relaxed), kPayloads);
    EXPECT_EQ(corrupt.load(std::memory_order_relaxed), 0u);

    // The last ACK may still be on its way back: ask the sender's shard
    // until the sender has nothing in flight.
    const auto sender_idle = [&] {
        auto idle = std::make_shared<std::atomic<int>>(-1);
        rt->port(1).schedule(0, [&chan_a, idle] {
            idle->store(chan_a->in_flight() == 0 ? 1 : 0, std::memory_order_release);
        });
        return wait_for([&] { return idle->load(std::memory_order_acquire) >= 0; }) &&
               idle->load(std::memory_order_acquire) == 1;
    };
    EXPECT_TRUE(wait_for(sender_idle));

    // A channel's timers keep firing on its shard: detach, destroy and
    // unbind each channel there, so no timer or delivery races teardown.
    const auto teardown = [&](std::size_t shard, FrameRouter& router,
                              std::unique_ptr<RudpChannel>& chan, const Endpoint& ep) {
        std::atomic<bool> done{false};
        rt->port(shard).schedule(0, [&] {
            router.attach(nullptr);
            chan.reset();
            rt->unbind(ep);
            done.store(true, std::memory_order_release);
        });
        EXPECT_TRUE(wait_for([&] { return done.load(std::memory_order_acquire); }));
    };
    teardown(1, router_a, chan_a, end_a);
    teardown(2, router_b, chan_b, end_b);
}

}  // namespace
}  // namespace narada::transport
