// Known-answer test for the discovery plane's wire behaviour.
//
// A recording Transport decorator over SimNetwork logs every send the BDNs
// and the brokers make — acks, injections, shard queries, registry sync and
// anti-entropy traffic, pings, advertisements, flood events and responses —
// as (kind, sender, receiver, send time, bytes) and folds the log into a
// digest. Sampled runs also fold every recorded span. Each run covers one
// fresh request, its duplicate, one credential-rejected request and a
// second fresh request, on {unsampled, sampled} x {inline, bounded ingest
// queue} x {one BDN, three federated BDNs}.
//
// The expected digests were captured from the implementation that decoded
// sampled requests into owned structs and re-encoded them to rewrite their
// trace parent. They pin the bytes, their order and their timing, so any
// change to how a hop frames, rewrites or schedules a request shows here.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.hpp"
#include "discovery/bdn.hpp"
#include "discovery/broker_plugin.hpp"
#include "obs/trace.hpp"
#include "sim/kernel.hpp"
#include "sim/network.hpp"
#include "timesvc/ntp.hpp"
#include "wire/msg_types.hpp"

namespace narada::discovery {
namespace {

/// FNV-1a over little-endian words and byte strings.
class Digest {
public:
    void fold(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void fold(const std::uint8_t* data, std::size_t len) {
        fold(len);
        for (std::size_t i = 0; i < len; ++i) byte(data[i]);
    }
    void fold(const std::string& s) {
        fold(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
    }
    [[nodiscard]] std::uint64_t value() const { return hash_; }

private:
    void byte(std::uint8_t b) {
        hash_ ^= b;
        hash_ *= 0x100000001b3ull;
    }
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Forwards everything to the wrapped transport and records each send.
class RecordingTransport final : public transport::Transport {
public:
    RecordingTransport(const sim::Kernel& kernel, transport::Transport& inner)
        : kernel_(kernel), inner_(inner) {}

    void bind(const Endpoint& local, transport::MessageHandler* handler) override {
        inner_.bind(local, handler);
    }
    void unbind(const Endpoint& local) override { inner_.unbind(local); }
    void send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) override {
        record('d', from, to, data);
        inner_.send_datagram(from, to, std::move(data));
    }
    void send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) override {
        record('r', from, to, data);
        inner_.send_reliable(from, to, std::move(data));
    }
    void join_multicast(transport::MulticastGroup group, const Endpoint& local) override {
        inner_.join_multicast(group, local);
    }
    void leave_multicast(transport::MulticastGroup group, const Endpoint& local) override {
        inner_.leave_multicast(group, local);
    }
    void send_multicast(transport::MulticastGroup group, const Endpoint& from,
                        Bytes data) override {
        record('m', from, Endpoint{group, 0}, data);
        inner_.send_multicast(group, from, std::move(data));
    }
    Bytes acquire_buffer() override { return inner_.acquire_buffer(); }

    [[nodiscard]] std::size_t sends() const { return sends_; }
    [[nodiscard]] std::uint64_t digest() const { return digest_.value(); }
    /// Sends whose first octet (the message type) is `type`.
    [[nodiscard]] std::size_t sends_of(std::uint8_t type) const {
        const auto it = by_type_.find(type);
        return it == by_type_.end() ? 0 : it->second;
    }

private:
    void record(char kind, const Endpoint& from, const Endpoint& to, const Bytes& data) {
        ++sends_;
        if (!data.empty()) ++by_type_[data[0]];
        digest_.fold(static_cast<std::uint64_t>(kind));
        digest_.fold(from.host);
        digest_.fold(from.port);
        digest_.fold(to.host);
        digest_.fold(to.port);
        digest_.fold(static_cast<std::uint64_t>(kernel_.now()));
        digest_.fold(data.data(), data.size());
    }

    const sim::Kernel& kernel_;
    transport::Transport& inner_;
    std::size_t sends_ = 0;
    std::map<std::uint8_t, std::size_t> by_type_;
    Digest digest_;
};

/// The requester: receives acks and responses on the raw network.
class Requester final : public transport::MessageHandler {
public:
    void on_datagram(const Endpoint&, const Bytes& data) override {
        if (data.empty()) return;
        if (data[0] == wire::kMsgDiscoveryAck) ++acks;
        if (data[0] == wire::kMsgDiscoveryResponse) ++responses;
    }
    std::size_t acks = 0;
    std::size_t responses = 0;
};

struct PlaneCase {
    bool sampled = false;
    bool queued = false;
    std::size_t bdns = 1;
};

struct Outcome {
    std::size_t sends = 0;
    std::uint64_t wire = 0;
    std::uint64_t spans = 0;
};

Outcome run_plane(const PlaneCase& c) {
    sim::Kernel kernel;
    sim::SimNetwork net(kernel, 2005);
    RecordingTransport recorder(kernel, net);
    const timesvc::FixedUtcSource utc(net.true_clock());
    obs::SpanRecorder spans;
    Rng rng(99);

    const HostId client_host = net.add_host({"client", "S", "lab", 0});
    std::vector<HostId> bdn_hosts;
    for (std::size_t b = 0; b < c.bdns; ++b) {
        bdn_hosts.push_back(net.add_host({"bdn" + std::to_string(b), "S", "lab", 0}));
    }
    constexpr std::size_t kBrokers = 4;
    std::vector<HostId> broker_hosts;
    for (std::size_t i = 0; i < kBrokers; ++i) {
        broker_hosts.push_back(net.add_host({"broker" + std::to_string(i), "S", "lab", 0}));
    }
    net.set_default_link({from_ms(10), from_ms(2), 3});
    // Distinct BDN-to-broker latencies so closest and farthest are unambiguous.
    for (std::size_t b = 0; b < c.bdns; ++b) {
        for (std::size_t i = 0; i < kBrokers; ++i) {
            net.set_link(bdn_hosts[b], broker_hosts[i],
                         {from_ms(4.0 + 7.0 * static_cast<double>(i) + static_cast<double>(b)),
                          0, 2 + static_cast<int>(i)});
        }
    }

    std::vector<Endpoint> bdn_eps;
    for (HostId h : bdn_hosts) bdn_eps.push_back({h, 7100});
    config::BdnConfig bdn_cfg;
    bdn_cfg.required_credential = "secret";
    bdn_cfg.ingest_queue_limit = c.queued ? 8 : 0;
    bdn_cfg.ad_lease = 20 * kSecond;
    if (c.bdns > 1) {
        bdn_cfg.peer_group = bdn_eps;
        bdn_cfg.replication_factor = 2;
        bdn_cfg.anti_entropy_interval = kSecond;
        bdn_cfg.sync_peers = bdn_eps;
        bdn_cfg.registry_sync_interval = 2 * kSecond;
    }
    std::vector<std::unique_ptr<Bdn>> bdns;
    for (std::size_t b = 0; b < c.bdns; ++b) {
        bdns.push_back(std::make_unique<Bdn>(kernel, recorder, bdn_eps[b],
                                             net.host_clock(bdn_hosts[b]), bdn_cfg,
                                             "bdn" + std::to_string(b)));
        bdns.back()->set_observability(nullptr, &spans, &utc);
    }

    std::vector<std::unique_ptr<broker::Broker>> brokers;
    std::vector<std::unique_ptr<BrokerDiscoveryPlugin>> plugins;
    for (std::size_t i = 0; i < kBrokers; ++i) {
        config::BrokerConfig cfg;
        cfg.advertise_bdns = {bdn_eps[i % bdn_eps.size()]};
        cfg.advertise_interval = 5 * kSecond;
        const std::string name = "broker" + std::to_string(i);
        brokers.push_back(std::make_unique<broker::Broker>(
            kernel, recorder, Endpoint{broker_hosts[i], 7000}, net.host_clock(broker_hosts[i]),
            utc, cfg, name));
        BrokerIdentity identity;
        identity.hostname = name + ".lab";
        identity.realm = "lab";
        plugins.push_back(std::make_unique<BrokerDiscoveryPlugin>(identity, false));
        brokers.back()->add_plugin(plugins.back().get());
        plugins.back()->set_observability(nullptr, &spans);
    }
    for (std::size_t i = 1; i < kBrokers; ++i) {
        brokers[i]->connect_to_peer(brokers[0]->endpoint());
    }
    // Advertisements also arrive on the public topic and through the API.
    bdns.front()->attach_to_broker(brokers[0]->endpoint(), {bdn_hosts[0], 7101});
    bdns.back()->register_broker(plugins.back()->advertisement());

    for (auto& b : bdns) b->start();
    for (auto& b : brokers) b->start();
    kernel.run_until(3 * kSecond);

    Requester requester;
    const Endpoint client_ep{client_host, 7200};
    net.bind(client_ep, &requester);
    const auto make_request = [&](const std::string& credential) {
        DiscoveryRequest req;
        req.request_id = Uuid::random(rng);
        req.requester_hostname = "client.lab";
        req.reply_to = client_ep;
        req.protocols = {"udp", "tcp"};
        req.credential = credential;
        req.realm = "lab";
        if (c.sampled) {
            req.trace.trace_id = Uuid::random(rng);
            req.trace.parent_span =
                spans.begin(req.trace.trace_id, 0, "client.discover", "client", utc.utc_now());
        }
        return req;
    };
    const auto send = [&](const DiscoveryRequest& req, const Endpoint& to) {
        wire::ByteWriter w;
        w.u8(wire::kMsgDiscoveryRequest);
        req.encode(w);
        net.send_datagram(client_ep, to, w.take());
    };

    const DiscoveryRequest fresh = make_request("secret");
    const DiscoveryRequest rejected = make_request("guess");
    const DiscoveryRequest second = make_request("secret");
    send(fresh, bdn_eps.front());
    kernel.run_until(kernel.now() + from_ms(1));
    send(fresh, bdn_eps.front());  // a retransmission: acked, not injected again
    kernel.run_until(kernel.now() + from_ms(1));
    send(rejected, bdn_eps.front());
    kernel.run_until(kernel.now() + from_ms(1));
    send(second, bdn_eps.back());
    kernel.run_until(8 * kSecond);

    std::uint64_t rejections = 0, duplicates = 0, injections = 0;
    for (const auto& b : bdns) {
        rejections += b->stats().credential_rejections;
        duplicates += b->stats().duplicate_requests;
        injections += b->stats().injections;
    }
    EXPECT_EQ(rejections, 1u);
    EXPECT_EQ(duplicates, 1u);
    EXPECT_GT(injections, 0u);
    EXPECT_EQ(requester.acks, 3u);
    EXPECT_GT(requester.responses, 0u);
    EXPECT_GT(recorder.sends_of(wire::kMsgDiscoveryRequest), 0u);
    EXPECT_GT(recorder.sends_of(wire::kMsgDiscoveryResponse), 0u);
    if (c.bdns > 1) {
        EXPECT_GT(recorder.sends_of(wire::kMsgShardQuery), 0u);
    }
    EXPECT_EQ(spans.size() > 0, c.sampled);
    net.unbind(client_ep);

    Outcome out;
    out.sends = recorder.sends();
    out.wire = recorder.digest();
    Digest span_digest;
    for (const obs::SpanRecord& s : spans.all()) {
        span_digest.fold(s.trace_id.hi());
        span_digest.fold(s.trace_id.lo());
        span_digest.fold(s.span_id);
        span_digest.fold(s.parent_span);
        span_digest.fold(s.name);
        span_digest.fold(s.node);
        span_digest.fold(static_cast<std::uint64_t>(s.start_utc));
        span_digest.fold(static_cast<std::uint64_t>(s.end_utc));
    }
    out.spans = span_digest.value();
    return out;
}

/// The span digest of a run that recorded no span.
constexpr std::uint64_t kNoSpans = 0xcbf29ce484222325ull;

void expect_outcome(const PlaneCase& c, const Outcome& expected) {
    const Outcome got = run_plane(c);
    EXPECT_EQ(got.sends, expected.sends);
    EXPECT_EQ(got.wire, expected.wire) << std::hex << "0x" << got.wire;
    EXPECT_EQ(got.spans, expected.spans) << std::hex << "0x" << got.spans;
}

TEST(WireKnownAnswer, UnsampledInlineOneBdn) {
    expect_outcome({false, false, 1}, {89, 0xfad4babdf6733771ull, kNoSpans});
}

TEST(WireKnownAnswer, UnsampledQueuedOneBdn) {
    expect_outcome({false, true, 1}, {89, 0x7e370a4c8dbddca3ull, kNoSpans});
}

TEST(WireKnownAnswer, SampledInlineOneBdn) {
    expect_outcome({true, false, 1}, {89, 0x78dde2c4d0de51d1ull, 0x0db3b0996f26ec8dull});
}

TEST(WireKnownAnswer, SampledQueuedOneBdn) {
    expect_outcome({true, true, 1}, {89, 0x94cc9694e9646fbbull, 0x471421d4c54b5a3cull});
}

TEST(WireKnownAnswer, UnsampledInlineFederated) {
    expect_outcome({false, false, 3}, {305, 0x6cd30d487a6f6a54ull, kNoSpans});
}

TEST(WireKnownAnswer, UnsampledQueuedFederated) {
    expect_outcome({false, true, 3}, {305, 0xca19a733be11b82bull, kNoSpans});
}

TEST(WireKnownAnswer, SampledInlineFederated) {
    expect_outcome({true, false, 3}, {305, 0x1fddb241aea061b8ull, 0x70188ec6286ea12bull});
}

TEST(WireKnownAnswer, SampledQueuedFederated) {
    expect_outcome({true, true, 3}, {305, 0x7cadc35321d29ba7ull, 0x0d0bb80898e9da90ull});
}

}  // namespace
}  // namespace narada::discovery
