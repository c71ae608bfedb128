// Steady-state allocation audit of the real-socket datapath.
//
// A process-global counting allocator (operator new/delete overrides, which
// is why this test lives in its own binary) proves the ISSUE's datapath
// guarantee: once buffers, rings and pools are warm, the hot paths touch
// the heap ZERO times per packet —
//   * send: acquire_buffer -> encode -> send_datagram (pooled payload moved
//     end-to-end, sendmmsg returns it to the pool);
//   * receive -> decode -> forward: recvmmsg slab -> reused delivery buffer
//     -> borrowed DiscoveryRequestView -> verbatim re-encode into a pooled
//     buffer -> send_datagram;
//   * send_reliable: payload coalesced into the connection's output ring,
//     pooled buffer recycled;
//   * the RSA kernel under the handshake: a constant number of allocations
//     per mod_pow, whatever the exponent's length.
#include "transport/posix_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <new>
#include <optional>
#include <thread>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "crypto/bigint.hpp"
#include "discovery/messages.hpp"
#include "discovery/security.hpp"
#include "transport/rudp_channel.hpp"
#include "transport/shard_runtime.hpp"
#include "test_ports.hpp"
#include "wire/codec.hpp"
#include "wire/msg_types.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace narada::transport {
namespace {

using namespace std::chrono_literals;

/// Allocation-free handler: counts deliveries on an atomic; optionally
/// peeks a borrowed view and re-forwards the message region verbatim
/// through a pooled buffer (the broker/BDN forwarding shape).
class CountingHandler final : public MessageHandler {
public:
    CountingHandler() = default;
    CountingHandler(PosixTransport* transport, Endpoint self, Endpoint forward_to)
        : transport_(transport), self_(self), forward_to_(forward_to) {}

    void on_datagram(const Endpoint&, const Bytes& data) override {
        if (transport_ != nullptr) {
            wire::ByteReader reader(data);
            const auto type = reader.u8();
            if (type == wire::kMsgDiscoveryRequest) {
                const auto view = discovery::DiscoveryRequestView::peek(reader);
                wire::ByteWriter writer(transport_->acquire_buffer());
                writer.reserve(1 + view.raw.size());
                writer.u8(wire::kMsgDiscoveryRequest);
                writer.raw(view.raw.data(), view.raw.size());
                transport_->send_datagram(self_, forward_to_, writer.take());
            }
        }
        received_.fetch_add(1, std::memory_order_relaxed);
    }
    void on_reliable(const Endpoint&, const Bytes&) override {
        received_.fetch_add(1, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t received() const {
        return received_.load(std::memory_order_relaxed);
    }
    bool wait_for(std::uint64_t count, int timeout_ms = 5000) const {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeout_ms);
        while (received() < count) {
            if (std::chrono::steady_clock::now() > deadline) return false;
            std::this_thread::sleep_for(200us);
        }
        return true;
    }

private:
    PosixTransport* transport_ = nullptr;
    Endpoint self_;
    Endpoint forward_to_;
    std::atomic<std::uint64_t> received_{0};
};

struct DatapathAllocFixture : ::testing::Test {
    DatapathAllocFixture() {
        a = Endpoint{1, claim_test_port()};
        b = Endpoint{2, claim_test_port()};
        c = Endpoint{3, claim_test_port()};
    }

    /// Deterministically grow the pool's circulation to `depth` buffers:
    /// the pool only mints on a miss, so a lucky warmup can leave fewer
    /// buffers circulating than a later burst needs. Holding `depth`
    /// buffers at once forces the mints up front; sending them returns
    /// every one to the free list.
    void prewarm_pool(const Endpoint& from, const Endpoint& to, const CountingHandler& sink,
                      std::size_t depth) {
        std::vector<Bytes> held;
        held.reserve(depth);
        for (std::size_t i = 0; i < depth; ++i) {
            held.push_back(transport.acquire_buffer());
        }
        const std::uint64_t start = sink.received();
        for (Bytes& buf : held) {
            wire::ByteWriter writer((Bytes(std::move(buf))));
            writer.u8(0x00);
            transport.send_datagram(from, to, writer.take());
        }
        ASSERT_TRUE(sink.wait_for(start + depth));
    }

    PosixTransportOptions options;
    PosixTransport transport;
    Endpoint a, b, c;
};

// Burst a round of pooled datagrams from `from` to `to` and wait for
// delivery; returns false on timeout. Kept outside the measured region's
// assertions so the measured loop itself never calls gtest.
bool send_round(PosixTransport& transport, const Endpoint& from, const Endpoint& to,
                const CountingHandler& sink, std::size_t count, std::size_t payload_size) {
    const std::uint64_t start = sink.received();
    for (std::size_t i = 0; i < count; ++i) {
        wire::ByteWriter writer(transport.acquire_buffer());
        writer.reserve(1 + payload_size);
        writer.u8(0x55);
        for (std::size_t j = 1; j < payload_size; ++j) {
            writer.u8(static_cast<std::uint8_t>(j));
        }
        transport.send_datagram(from, to, writer.take());
    }
    return sink.wait_for(start + count);
}

TEST_F(DatapathAllocFixture, SendPathIsAllocationFreeInSteadyState) {
    CountingHandler sender;
    CountingHandler sink;
    transport.bind(a, &sender);
    transport.bind(b, &sink);

    // Warm-up: force the pool's circulation above the burst depth, then
    // grow the send ring and dirty lists to their high-water marks and
    // reserve the delivery buffers.
    prewarm_pool(a, b, sink, 32);
    for (int round = 0; round < 4; ++round) {
        ASSERT_TRUE(send_round(transport, a, b, sink, 16, 256));
    }

    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    bool delivered = true;
    for (int round = 0; round < 8; ++round) {
        delivered = delivered && send_round(transport, a, b, sink, 16, 256);
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    ASSERT_TRUE(delivered);
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " allocations across 128 pooled datagrams";
}

TEST_F(DatapathAllocFixture, ReceiveDecodeForwardIsAllocationFree) {
    // Topology: a sprays encoded DiscoveryRequests at b; b peeks the
    // borrowed view and re-forwards the region verbatim to c.
    CountingHandler sender;
    CountingHandler forwarder(&transport, b, c);
    CountingHandler sink;
    transport.bind(a, &sender);
    transport.bind(b, &forwarder);
    transport.bind(c, &sink);

    discovery::DiscoveryRequest request;
    Rng rng(7);
    request.request_id = Uuid::random(rng);
    request.requester_hostname = "alloc-test-client";
    request.reply_to = a;
    request.protocols = {"udp"};
    request.realm = "alloc-test-realm";

    // Both the sprayer and the forwarder draw on the shared pool, so the
    // worst-case concurrent in-flight depth is two bursts.
    prewarm_pool(a, c, sink, 48);

    const auto spray = [&](std::size_t count) {
        const std::uint64_t start = sink.received();
        for (std::size_t i = 0; i < count; ++i) {
            wire::ByteWriter writer(transport.acquire_buffer());
            writer.reserve(1 + request.measured_size());
            writer.u8(wire::kMsgDiscoveryRequest);
            request.encode(writer);
            transport.send_datagram(a, b, writer.take());
        }
        return sink.wait_for(start + count);
    };

    for (int round = 0; round < 4; ++round) {
        ASSERT_TRUE(spray(16));
    }

    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    bool delivered = true;
    for (int round = 0; round < 8; ++round) {
        delivered = delivered && spray(16);
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    ASSERT_TRUE(delivered);
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " allocations across 128 receive->decode->forward hops";
}

TEST_F(DatapathAllocFixture, ReliableSendCoalescesWithoutAllocating) {
    CountingHandler sender;
    CountingHandler sink;
    transport.bind(a, &sender);
    transport.bind(b, &sink);

    const auto send_frames = [&](std::size_t count) {
        const std::uint64_t start = sink.received();
        for (std::size_t i = 0; i < count; ++i) {
            wire::ByteWriter writer(transport.acquire_buffer());
            writer.reserve(128);
            for (std::size_t j = 0; j < 128; ++j) {
                writer.u8(static_cast<std::uint8_t>(j));
            }
            transport.send_reliable(a, b, writer.take());
        }
        return sink.wait_for(start + count);
    };

    // Warm-up establishes the connection (hello frame, rx/tx rings) and
    // forces the pool's circulation above the burst depth.
    prewarm_pool(a, b, sink, 32);
    for (int round = 0; round < 4; ++round) {
        ASSERT_TRUE(send_frames(16));
    }

    bool delivered = true;
    std::uint64_t delta = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        for (int round = 0; round < 8; ++round) {
            delivered = delivered && send_frames(16);
        }
        delta = g_allocs.load(std::memory_order_relaxed) - before;
        if (delta == 0) break;
        // A scheduling stall (busy CI box) can pile more bytes into a ring
        // than the warm-up ever saw; that one-time capacity growth is
        // itself warm-up, so the steady-state claim gets a fresh window.
    }
    ASSERT_TRUE(delivered);
    EXPECT_EQ(delta, 0u) << delta << " allocations across 128 reliable frames";
}

// --- RUDP bulk lane ----------------------------------------------------------

/// Allocation-free RUDP receiver stand-in: acks DATA frames without the
/// (inherently allocating) reassembly path, so the measurement isolates the
/// sender's steady-state datapath — encode into a recycled slot, copy into
/// a pooled buffer, send, recycle on ack.
class AckReflector final : public MessageHandler {
public:
    AckReflector(PosixTransport* transport, Endpoint self, Endpoint peer)
        : transport_(transport), self_(self), peer_(peer) {}

    void on_datagram(const Endpoint&, const Bytes& data) override {
        wire::ByteReader reader(data);
        if (reader.u8() != wire::kMsgRudpData) return;
        const std::uint64_t seq = reader.u64();
        const TimeUs ts = reader.i64();
        if (seq == cum_) ++cum_;
        if (seq >= horizon_) horizon_ = seq + 1;
        // Ack every arrival: keeps the sender's window moving and feeds its
        // RTT estimator (reflect the newest transmission timestamp).
        wire::ByteWriter writer(transport_->acquire_buffer());
        writer.reserve(1 + 8 + 8 + 8 + 1);
        writer.u8(wire::kMsgRudpAck);
        writer.u64(cum_);
        writer.u64(horizon_);
        writer.i64(ts);
        writer.u8(0);  // no NAK ranges: loopback loss recovers via sender RTO
        transport_->send_datagram(self_, peer_, writer.take());
        cum_public_.store(cum_, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t cum() const {
        return cum_public_.load(std::memory_order_relaxed);
    }
    bool wait_for_cum(std::uint64_t target, int timeout_ms = 5000) const {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeout_ms);
        while (cum() < target) {
            if (std::chrono::steady_clock::now() > deadline) return false;
            std::this_thread::sleep_for(200us);
        }
        return true;
    }

private:
    PosixTransport* transport_;
    Endpoint self_;
    Endpoint peer_;
    std::uint64_t cum_ = 0;      // reactor thread only
    std::uint64_t horizon_ = 0;  // reactor thread only
    std::atomic<std::uint64_t> cum_public_{0};
};

/// Routes inbound ACK frames into the sender channel (reactor thread).
class RudpSenderHandler final : public MessageHandler {
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

TEST_F(DatapathAllocFixture, RudpSendPathIsAllocationFreeInSteadyState) {
    WallClock clock;
    RudpSenderHandler sender_handler;
    AckReflector reflector(&transport, b, a);
    transport.bind(a, &sender_handler);
    transport.bind(b, &reflector);

    // Modest window + every-segment acks keep loopback bursts inside the
    // socket buffers; the pump still exercises slot recycling end to end.
    RudpOptions rudp;
    rudp.window = 16;
    std::optional<RudpChannel> channel(std::in_place, transport, transport, clock, a, b, rudp,
                                       "alloc");
    sender_handler.attach(&*channel);

    // However the test ends, tear down on the reactor before the locals
    // above die: once a and b are unbound nothing new is delivered to the
    // handlers, and a task queued behind any dispatch in progress destroys
    // the channel (cancelling its timers) on the reactor thread. The
    // reactor is single-threaded, so once that task has run nothing can
    // touch the locals.
    struct ReactorTeardown {
        PosixTransport& transport;
        Endpoint a, b;
        std::optional<RudpChannel>& channel;
        ~ReactorTeardown() {
            transport.unbind(a);
            transport.unbind(b);
            std::promise<void> done;
            transport.schedule(0, [this, &done] {
                channel.reset();
                done.set_value();
            });
            done.get_future().wait();
        }
    } teardown{transport, a, b, channel};

    constexpr std::size_t kSegments = 16;
    constexpr std::size_t kPayloadSize = kSegments * 1200;

    // All channel interaction happens on the reactor thread; the test
    // thread only schedules work and watches the reflector's atomics.
    struct SendCtx {
        RudpChannel* channel;
        Bytes* payload;
    };
    const auto send_round = [&](Bytes* payload) {
        SendCtx ctx{&*channel, payload};
        transport.schedule(0, [ctx] { ctx.channel->send_bulk(std::move(*ctx.payload)); });
    };

    // Warm-up: grow the pool, the slot ring's frame buffers, the timer heap
    // and the reflector's path to their high-water marks.
    std::uint64_t expected_cum = 0;
    for (int round = 0; round < 6; ++round) {
        Bytes payload(kPayloadSize, static_cast<std::uint8_t>(round));
        send_round(&payload);
        expected_cum += kSegments;
        ASSERT_TRUE(reflector.wait_for_cum(expected_cum));
    }

    // Payloads for the measured region are minted up front: the lane takes
    // ownership of each (that hand-off is the caller's allocation, not the
    // datapath's).
    constexpr int kRounds = 8;
    std::vector<Bytes> payloads;
    payloads.reserve(kRounds);
    for (int i = 0; i < kRounds; ++i) {
        payloads.emplace_back(kPayloadSize, static_cast<std::uint8_t>(i));
    }

    bool delivered = true;
    std::uint64_t delta = 0;
    for (int attempt = 0; attempt < 3 && delivered; ++attempt) {
        const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        for (int round = 0; round < kRounds; ++round) {
            send_round(&payloads[round]);
            expected_cum += kSegments;
            delivered = delivered && reflector.wait_for_cum(expected_cum);
        }
        delta = g_allocs.load(std::memory_order_relaxed) - before;
        if (delta == 0) break;
        // One-time growth (a retransmit burst after a loopback drop, a
        // deeper timer heap) is itself warm-up: refill and retry.
        for (int i = 0; i < kRounds; ++i) {
            payloads[i].assign(kPayloadSize, static_cast<std::uint8_t>(i));
        }
    }
    ASSERT_TRUE(delivered);
    EXPECT_EQ(delta, 0u) << delta << " allocations across "
                         << kRounds * kSegments << " RUDP segments";
    EXPECT_EQ(channel->stats().send_rejected, 0u);
}

// --- Secured datapath --------------------------------------------------------
//
// The zero-allocation property must survive encryption: after the one-time
// RSA handshake, a seal -> open round trip rides precomputed AES schedules,
// reused scratch buffers and a recycled pooled frame — zero heap traffic
// per datagram in both sign and seal mode.

class SecuredAllocFixture : public ::testing::TestWithParam<config::SecurityConfig::Mode> {};

TEST_P(SecuredAllocFixture, SealOpenSteadyStateIsAllocationFree) {
    using discovery::SecurityContext;
    Rng rng(4242);
    const auto ca_keys = crypto::rsa_generate(rng, 512);
    const auto root = crypto::make_self_signed("ca", ca_keys, 0, 1'000'000'000, 1);
    auto alice_keys = crypto::rsa_generate(rng, 512);
    auto bob_keys = crypto::rsa_generate(rng, 512);
    const auto alice_leaf = crypto::issue_certificate(
        "alice", alice_keys.public_key, "ca", ca_keys.private_key, 0, 1'000'000'000, 2);
    const auto bob_pub = bob_keys.public_key;

    ManualClock clock(0);
    config::SecurityConfig cfg;
    cfg.mode = GetParam();
    cfg.session_cache_size = 8;
    cfg.rekey_interval = 0;  // never rekey inside the measured region
    SecurityContext alice("alice", std::move(alice_keys), {alice_leaf, root}, {root}, cfg,
                          clock, rng);
    SecurityContext bob("bob", std::move(bob_keys), {}, {root}, cfg, clock, rng);
    alice.add_peer_key("bob", bob_pub);

    Bytes payload(256);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i);
    }
    const std::span<const std::uint8_t> payload_span{payload.data(), payload.size()};

    // One recycled frame stands in for the transport's buffer pool.
    Bytes frame;
    const auto round_trip = [&]() -> bool {
        wire::ByteWriter writer((Bytes(std::move(frame))));
        if (!alice.seal_datagram(payload_span, "bob", writer)) return false;
        frame = writer.take();
        wire::ByteReader reader(frame);
        if (reader.u8() != wire::kMsgSecureEnvelope) return false;
        const auto opened = bob.open_datagram(reader);
        return opened.ok() && opened.payload.size() == payload.size();
    };

    // Warm-up: the first trip carries the RSA handshake and grows the
    // scratch buffers, session caches and the frame's capacity.
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(round_trip());
    }
    const auto handshakes_before = alice.stats().handshakes_sent;

    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    bool ok = true;
    for (int i = 0; i < 256; ++i) {
        ok = ok && round_trip();
    }
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    ASSERT_TRUE(ok);
    EXPECT_EQ(after - before, 0u)
        << (after - before) << " allocations across 256 sealed round trips";
    // The measured region rode the cached session end to end.
    EXPECT_EQ(alice.stats().handshakes_sent, handshakes_before);
    EXPECT_GE(bob.stats().memo_hits, 256u);
}

INSTANTIATE_TEST_SUITE_P(Modes, SecuredAllocFixture,
                         ::testing::Values(config::SecurityConfig::Mode::kSign,
                                           config::SecurityConfig::Mode::kSeal),
                         [](const auto& info) {
                             return info.param == config::SecurityConfig::Mode::kSeal
                                        ? "seal"
                                        : "sign";
                         });

// The handshake's RSA kernel: mod_pow keeps its Montgomery operands in
// fixed-size storage, so a 1024-bit exponentiation allocates only for its
// constants, its reduced base and its result — the same count whatever the
// exponent's length, none per product.
TEST(ModPowAlloc, AllocationCountIsIndependentOfExponentLength) {
    Rng rng(1024);
    crypto::BigInt modulus = crypto::BigInt::random_bits(rng, 1024);
    if (!modulus.is_odd()) modulus = modulus + crypto::BigInt(1);
    const crypto::BigInt base = crypto::BigInt::random_below(rng, modulus);
    const auto allocations = [&](std::size_t exponent_bits) {
        const crypto::BigInt exponent = crypto::BigInt::random_bits(rng, exponent_bits);
        const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        const crypto::BigInt result = crypto::BigInt::mod_pow(base, exponent, modulus);
        const std::uint64_t count = g_allocs.load(std::memory_order_relaxed) - before;
        EXPECT_FALSE(result.is_zero());
        return count;
    };
    const std::uint64_t short_exponent = allocations(17);
    EXPECT_EQ(allocations(1024), short_exponent);
    EXPECT_EQ(allocations(4096), short_exponent);
    EXPECT_LE(short_exponent, 16u) << "allocations beyond the per-call constants";
}

// --- Sharded datapath --------------------------------------------------------
//
// The thread-per-core guarantee: a warm ShardRuntime delivers datagrams
// with ZERO steady-state heap allocations, whether the receiver is homed
// on the sender's shard or on another one. Either way a datagram leaves
// through the sender's home-shard socket, from that shard's pool, and is
// received straight into the receiver's home-shard slab.

/// Allocation-free counting sink for a homed endpoint (serialized on its
/// home shard by the runtime's contract).
class ShardedSink final : public MessageHandler {
public:
    void on_datagram(const Endpoint&, const Bytes&) override {
        received_.fetch_add(1, std::memory_order_relaxed);
    }
    void on_reliable(const Endpoint&, const Bytes&) override {
        received_.fetch_add(1, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t received() const {
        return received_.load(std::memory_order_relaxed);
    }
    bool wait_for(std::uint64_t count, int timeout_ms = 5000) const {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(timeout_ms);
        while (received() < count) {
            if (std::chrono::steady_clock::now() > deadline) return false;
            std::this_thread::sleep_for(200us);
        }
        return true;
    }

private:
    std::atomic<std::uint64_t> received_{0};
};

struct ShardedAllocFixture : ::testing::Test {
    static constexpr std::size_t kSources = 8;

    ShardedAllocFixture() {
        ShardRuntimeOptions options;
        options.shards = 2;
        runtime = std::make_unique<ShardRuntime>(options);

        rx = Endpoint{1, claim_test_port()};
        for (std::size_t i = 0; i < kSources; ++i) {
            sources[i] = Endpoint{static_cast<HostId>(2 + i), claim_test_port()};
        }
    }

    /// Home the sources on shard 0 (the runtime's own bind) and the sink on
    /// shard `home`.
    void bind_all(MessageHandler* sink, std::size_t home) {
        runtime->port(home).bind(rx, sink);
        for (const Endpoint& src : sources) runtime->bind(src, &noop);
    }

    /// One paced burst from the test thread through the runtime (shard 0's
    /// pool and sockets), round-robin over the sources.
    bool send_round(const ShardedSink& sink, std::size_t count) {
        const std::uint64_t start = sink.received();
        for (std::size_t i = 0; i < count; ++i) {
            wire::ByteWriter writer(runtime->acquire_buffer());
            writer.reserve(64);
            for (std::size_t j = 0; j < 64; ++j) {
                writer.u8(static_cast<std::uint8_t>(j));
            }
            runtime->send_datagram(sources[i % kSources], rx, writer.take());
        }
        return sink.wait_for(start + count);
    }

    /// Warm the sender's pool (shard 0) and the receive path.
    void warm(const ShardedSink& sink) {
        std::vector<Bytes> held;
        for (std::size_t i = 0; i < 32; ++i) held.push_back(runtime->acquire_buffer());
        const std::uint64_t start = sink.received();
        for (Bytes& buf : held) {
            wire::ByteWriter writer((Bytes(std::move(buf))));
            writer.u8(0x00);
            runtime->send_datagram(sources[0], rx, writer.take());
        }
        ASSERT_TRUE(sink.wait_for(start + held.size()));
        for (int round = 0; round < 6; ++round) {
            ASSERT_TRUE(send_round(sink, 16));
        }
    }

    std::unique_ptr<ShardRuntime> runtime;
    ShardedSink noop;
    Endpoint rx;
    Endpoint sources[kSources];
};

TEST_F(ShardedAllocFixture, HomeShardZeroPathIsAllocationFreeInSteadyState) {
    ShardedSink sink;
    bind_all(&sink, /*home=*/0);
    warm(sink);

    bool delivered = true;
    std::uint64_t delta = 0;
    for (int attempt = 0; attempt < 3 && delivered; ++attempt) {
        const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        for (int round = 0; round < 8; ++round) {
            delivered = delivered && send_round(sink, 16);
        }
        delta = g_allocs.load(std::memory_order_relaxed) - before;
        if (delta == 0) break;
        // One-time pool/ring growth after a scheduling stall is itself
        // warm-up: the steady-state claim gets a fresh window.
    }
    ASSERT_TRUE(delivered);
    EXPECT_EQ(delta, 0u)
        << delta << " allocations across 128 sharded datagrams (home shard 0)";
}

TEST_F(ShardedAllocFixture, CrossShardSendPathIsAllocationFreeInSteadyState) {
    // Sink homed on shard 1, sources on shard 0: every datagram leaves one
    // shard's socket and is received on the other's.
    ShardedSink sink;
    bind_all(&sink, /*home=*/1);
    warm(sink);

    bool delivered = true;
    std::uint64_t delta = 0;
    for (int attempt = 0; attempt < 3 && delivered; ++attempt) {
        const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        for (int round = 0; round < 8; ++round) {
            delivered = delivered && send_round(sink, 16);
        }
        delta = g_allocs.load(std::memory_order_relaxed) - before;
        if (delta == 0) break;
    }
    ASSERT_TRUE(delivered);
    EXPECT_EQ(delta, 0u)
        << delta << " allocations across 128 sharded datagrams (home shard 1)";
}

}  // namespace
}  // namespace narada::transport
