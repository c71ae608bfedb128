#include "discovery/bdn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/kernel.hpp"
#include "sim/network.hpp"
#include "timesvc/ntp.hpp"
#include "wire/msg_types.hpp"

namespace narada::discovery {
namespace {

/// A minimal broker stand-in: answers pings, records discovery requests.
class FakeBroker final : public transport::MessageHandler {
public:
    FakeBroker(sim::Kernel& kernel, transport::Transport& transport, const Endpoint& ep)
        : kernel_(kernel), transport_(transport), ep_(ep) {
        transport_.bind(ep_, this);
    }
    ~FakeBroker() override { transport_.unbind(ep_); }

    void on_datagram(const Endpoint& from, const Bytes& data) override {
        wire::ByteReader r(data);
        const std::uint8_t type = r.u8();
        if (type == wire::kMsgPing) {
            const TimeUs echo = r.i64();
            wire::ByteWriter w;
            w.u8(wire::kMsgPong);
            w.i64(echo);
            w.i64(kernel_.now());
            transport_.send_datagram(ep_, from, w.take());
        } else if (type == wire::kMsgDiscoveryRequest) {
            requests.push_back({from, kernel_.now()});
        }
    }

    struct Arrival {
        Endpoint from;
        TimeUs at;
    };
    std::vector<Arrival> requests;

    BrokerAdvertisement advertisement(Rng& rng, const std::string& realm = "r") const {
        BrokerAdvertisement ad;
        ad.broker_id = Uuid::random(rng);
        ad.broker_name = "fake";
        ad.endpoint = ep_;
        ad.realm = realm;
        return ad;
    }

private:
    sim::Kernel& kernel_;
    transport::Transport& transport_;
    Endpoint ep_;
};

struct BdnFixture : ::testing::Test {
    BdnFixture() : net(kernel, 77), rng(7) {
        bdn_host = net.add_host({"bdn", "S", "bdn-realm", 0});
        client_host = net.add_host({"client", "S", "client-realm", 0});
        for (int i = 0; i < 3; ++i) {
            broker_hosts.push_back(net.add_host({"b" + std::to_string(i), "S", "r", 0}));
        }
        // Distinct latencies so "closest" and "farthest" are unambiguous.
        net.set_link(bdn_host, broker_hosts[0], {from_ms(5), 0, 2});   // closest
        net.set_link(bdn_host, broker_hosts[1], {from_ms(20), 0, 5});  // middle
        net.set_link(bdn_host, broker_hosts[2], {from_ms(50), 0, 9});  // farthest
        net.set_default_link({from_ms(10), 0, 3});
        for (HostId h : broker_hosts) {
            brokers.push_back(std::make_unique<FakeBroker>(kernel, net, Endpoint{h, 7000}));
        }
    }

    Bdn make_bdn(config::BdnConfig cfg = {}) {
        return Bdn(kernel, net, Endpoint{bdn_host, 7100}, net.host_clock(bdn_host), cfg);
    }

    DiscoveryRequest make_request() {
        DiscoveryRequest req;
        req.request_id = Uuid::random(rng);
        req.reply_to = client_ep();
        req.realm = "client-realm";
        return req;
    }

    void send_request(Bdn& bdn, const DiscoveryRequest& req) {
        wire::ByteWriter w;
        w.u8(wire::kMsgDiscoveryRequest);
        req.encode(w);
        net.send_datagram(client_ep(), bdn.endpoint(), w.take());
    }

    Endpoint client_ep() const { return {client_host, 7200}; }

    void register_all(Bdn& bdn, Rng& r) {
        for (const auto& broker : brokers) {
            bdn.register_broker(broker->advertisement(r));
        }
    }

    sim::Kernel kernel;
    sim::SimNetwork net;
    Rng rng;
    HostId bdn_host{}, client_host{};
    std::vector<HostId> broker_hosts;
    std::vector<std::unique_ptr<FakeBroker>> brokers;
};

TEST_F(BdnFixture, RegistersAdvertisements) {
    Bdn bdn = make_bdn();
    register_all(bdn, rng);
    EXPECT_EQ(bdn.registered_count(), 3u);
    EXPECT_EQ(bdn.stats().ads_received, 3u);
}

TEST_F(BdnFixture, ReRegistrationUpdatesNotDuplicates) {
    Bdn bdn = make_bdn();
    const BrokerAdvertisement ad = brokers[0]->advertisement(rng);
    bdn.register_broker(ad);
    bdn.register_broker(ad);
    EXPECT_EQ(bdn.registered_count(), 1u);
}

/// The endpoint map's size, as debug_snapshot() reports it.
std::uint64_t endpoint_map_size(const Bdn& bdn) {
    const std::string snapshot = bdn.debug_snapshot();
    const std::string key = "\"endpoint_map_size\":";
    const auto at = snapshot.find(key);
    if (at == std::string::npos) return ~std::uint64_t{0};
    return std::stoull(snapshot.substr(at + key.size()));
}

TEST_F(BdnFixture, ReAdvertisingFromNewEndpointsKeepsOneMapping) {
    Bdn bdn = make_bdn();
    BrokerAdvertisement ad = brokers[0]->advertisement(rng);
    for (std::uint16_t port = 1; port <= 10000; ++port) {
        ad.endpoint = Endpoint{broker_hosts[0], port};
        bdn.register_broker(ad);
    }
    EXPECT_EQ(bdn.registered_count(), 1u);
    EXPECT_EQ(endpoint_map_size(bdn), 1u);
}

TEST_F(BdnFixture, PongFromAbandonedEndpointLeavesRttUnchanged) {
    Bdn bdn = make_bdn();
    BrokerAdvertisement ad = brokers[0]->advertisement(rng);
    const Endpoint old_endpoint = ad.endpoint;
    bdn.register_broker(ad);
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);  // first ping answered: 10 ms
    const DurationUs measured = bdn.registry().at(0).rtt;
    ASSERT_GE(measured, 0);

    ad.endpoint = Endpoint{broker_hosts[2], 7000};  // the broker moved
    bdn.register_broker(ad);
    const auto forge_pong = [&](const Endpoint& from) {
        wire::ByteWriter w;
        w.u8(wire::kMsgPong);
        w.i64(net.host_clock(bdn_host).now());  // claims a one-way-delay RTT
        w.i64(0);
        net.send_datagram(from, bdn.endpoint(), w.take());
        kernel.run_until(kernel.now() + kSecond);
    };
    forge_pong(old_endpoint);
    EXPECT_EQ(bdn.registry().at(0).rtt, measured);
    forge_pong(ad.endpoint);  // the current endpoint still measures
    EXPECT_NE(bdn.registry().at(0).rtt, measured);
    EXPECT_EQ(endpoint_map_size(bdn), 1u);
}

TEST_F(BdnFixture, PongFromUnmappedEndpointCountsInStatAndRegistry) {
    // Stats::pongs_received and the bdn_pongs_received counter count the
    // same thing: every pong, whether or not its source maps to a broker.
    obs::MetricsRegistry metrics;
    Bdn bdn = make_bdn();
    bdn.set_observability(&metrics, nullptr, nullptr);
    const Pong pong{net.host_clock(bdn_host).now(), 0};
    net.send_datagram(client_ep(), bdn.endpoint(), pong.frame({}));
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_EQ(bdn.stats().pongs_received, 1u);
    EXPECT_EQ(metrics.counter("bdn_pongs_received", bdn.name()).value(), 1u);
    EXPECT_EQ(bdn.registered_count(), 0u);
}

TEST_F(BdnFixture, SweepKeepsSharedEndpointMappingOfSurvivor) {
    config::BdnConfig cfg;
    cfg.ad_lease = from_ms(2000);
    cfg.ping_refresh_interval = from_ms(500);
    Bdn bdn = make_bdn(cfg);
    bdn.start();
    // Two ids on one endpoint; the later ad owns the mapping.
    const BrokerAdvertisement first = brokers[0]->advertisement(rng);
    bdn.register_broker(first);
    kernel.run_until(kernel.now() + from_ms(1200));
    const BrokerAdvertisement second = brokers[0]->advertisement(rng);
    bdn.register_broker(second);
    kernel.run_until(kernel.now() + from_ms(1400));  // first's lease lapsed
    ASSERT_EQ(bdn.registered_count(), 1u);
    EXPECT_EQ(endpoint_map_size(bdn), 1u);

    // The survivor's refresh pongs still find it.
    const TimeUs swept_at = net.host_clock(bdn_host).now();
    kernel.run_until(kernel.now() + from_ms(500));  // one more refresh round
    const auto registry = bdn.registry();
    ASSERT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry[0].ad.broker_id, second.broker_id);
    EXPECT_GT(registry[0].last_pong, swept_at);
}

TEST_F(BdnFixture, RealmFilterIgnoresForeignAds) {
    // §2.3: "a BDN in the US may be interested only in broker additions in
    // North America".
    config::BdnConfig cfg;
    cfg.accepted_realms = {"us-east"};
    Bdn bdn = make_bdn(cfg);
    bdn.register_broker(brokers[0]->advertisement(rng, "us-east"));
    bdn.register_broker(brokers[1]->advertisement(rng, "europe"));
    EXPECT_EQ(bdn.registered_count(), 1u);
    EXPECT_EQ(bdn.stats().ads_filtered, 1u);
}

TEST_F(BdnFixture, DistanceTableFromPings) {
    Bdn bdn = make_bdn();
    register_all(bdn, rng);
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);
    const auto registry = bdn.registry();
    ASSERT_EQ(registry.size(), 3u);
    for (const auto& rb : registry) {
        EXPECT_GE(rb.rtt, 0) << "ping did not complete";
    }
    EXPECT_EQ(bdn.stats().pongs_received, 3u);
}

TEST_F(BdnFixture, ClosestAndFarthestInjection) {
    Bdn bdn = make_bdn();  // default strategy
    register_all(bdn, rng);
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);  // distance table ready
    send_request(bdn, make_request());
    kernel.run_until(kernel.now() + kSecond);
    // §4: injected at exactly the closest (b0) and farthest (b2) brokers.
    EXPECT_EQ(brokers[0]->requests.size(), 1u);
    EXPECT_TRUE(brokers[1]->requests.empty());
    EXPECT_EQ(brokers[2]->requests.size(), 1u);
    EXPECT_EQ(bdn.stats().injections, 2u);
}

TEST_F(BdnFixture, ClosestOnlyInjection) {
    config::BdnConfig cfg;
    cfg.injection = config::InjectionStrategy::kClosestOnly;
    Bdn bdn = make_bdn(cfg);
    register_all(bdn, rng);
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);
    send_request(bdn, make_request());
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_EQ(brokers[0]->requests.size(), 1u);
    EXPECT_TRUE(brokers[1]->requests.empty());
    EXPECT_TRUE(brokers[2]->requests.empty());
}

TEST_F(BdnFixture, AllInjectionIsSequentiallySpaced) {
    config::BdnConfig cfg;
    cfg.injection = config::InjectionStrategy::kAll;
    cfg.injection_spacing = from_ms(10);
    Bdn bdn = make_bdn(cfg);
    register_all(bdn, rng);
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);
    const TimeUs t0 = kernel.now();
    send_request(bdn, make_request());
    kernel.run_until(kernel.now() + kSecond);
    ASSERT_EQ(brokers[0]->requests.size(), 1u);
    ASSERT_EQ(brokers[1]->requests.size(), 1u);
    ASSERT_EQ(brokers[2]->requests.size(), 1u);
    // O(N) distribution: send k is spaced k*10 ms after the first (§9).
    // Arrival = request reaches BDN + k*spacing + link latency.
    const TimeUs a0 = brokers[0]->requests[0].at - t0;
    const TimeUs a1 = brokers[1]->requests[0].at - t0;
    const TimeUs a2 = brokers[2]->requests[0].at - t0;
    EXPECT_LT(a0, a1);
    EXPECT_LT(a1, a2);
    EXPECT_GE(a2 - a0, from_ms(20) + from_ms(45) - from_ms(5));  // spacing + latency gap
}

// Injection sends, and a sampled request's inject span, are timers that
// outlive the request handler. Destroying the BDN while they are pending
// must leave none of them reaching into it; the sends still go out.
TEST_F(BdnFixture, DestroyedMidInjectionLeavesNoDanglingTimers) {
    obs::SpanRecorder spans;
    timesvc::FixedUtcSource utc(net.true_clock());
    config::BdnConfig cfg;
    cfg.injection = config::InjectionStrategy::kAll;
    cfg.injection_spacing = from_ms(10);
    for (const bool sampled : {false, true}) {
        auto bdn = std::make_unique<Bdn>(kernel, net, Endpoint{bdn_host, 7100},
                                         net.host_clock(bdn_host), cfg);
        bdn->set_observability(nullptr, &spans, &utc);
        register_all(*bdn, rng);
        bdn->start();
        kernel.run_until(kernel.now() + kSecond);
        DiscoveryRequest req = make_request();
        if (sampled) req.trace.trace_id = Uuid::random(rng);
        send_request(*bdn, req);
        while (bdn->stats().injections < brokers.size()) ASSERT_TRUE(kernel.step());
        bdn.reset();
        kernel.run_until(kernel.now() + kSecond);
    }
    for (const auto& broker : brokers) EXPECT_EQ(broker->requests.size(), 2u);
}

/// Counts the timers a node arms and forwards them to the simulator.
class CountingScheduler final : public Scheduler {
public:
    explicit CountingScheduler(Scheduler& inner) : inner_(inner) {}
    TimerHandle schedule(DurationUs delay, std::function<void()> task) override {
        ++scheduled;
        return inner_.schedule(delay, std::move(task));
    }
    void cancel_timer(TimerHandle handle) override { inner_.cancel_timer(handle); }

    std::size_t scheduled = 0;

private:
    Scheduler& inner_;
};

// At zero spacing the injections leave inside the request handler: a
// request, sampled or not, arms no timer, and its inject span is closed.
TEST_F(BdnFixture, ZeroSpacingInjectsInlineWithoutTimers) {
    obs::SpanRecorder spans;
    timesvc::FixedUtcSource utc(net.true_clock());
    CountingScheduler timers(kernel);
    config::BdnConfig cfg;
    cfg.injection_spacing = 0;
    Bdn bdn(timers, net, Endpoint{bdn_host, 7100}, net.host_clock(bdn_host), cfg);
    bdn.set_observability(nullptr, &spans, &utc);
    register_all(bdn, rng);
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);  // distance table ready
    Uuid sampled_trace;
    for (const bool sampled : {false, true}) {
        const std::size_t armed = timers.scheduled;
        DiscoveryRequest req = make_request();
        if (sampled) req.trace.trace_id = sampled_trace = Uuid::random(rng);
        send_request(bdn, req);
        kernel.run_until(kernel.now() + from_ms(100));
        EXPECT_EQ(timers.scheduled, armed) << (sampled ? "sampled" : "unsampled");
    }
    // §4: closest (b0) and farthest (b2), once per request.
    EXPECT_EQ(brokers[0]->requests.size(), 2u);
    EXPECT_TRUE(brokers[1]->requests.empty());
    EXPECT_EQ(brokers[2]->requests.size(), 2u);
    EXPECT_EQ(bdn.stats().injections, 4u);
    bool inject_span_closed = false;
    for (const obs::SpanRecord& span : spans.trace(sampled_trace)) {
        if (span.name == "bdn.inject") inject_span_closed = span.finished();
    }
    EXPECT_TRUE(inject_span_closed);
}

TEST_F(BdnFixture, RegistryCapRefusesNewIdsAndKeepsRenewals) {
    // A flood of distinct broker ids past the cap: the registry and the
    // endpoint map stop at the cap, every refusal is counted, a refused id
    // costs no ping, and an admitted id still renews and moves.
    struct PingCatcher final : transport::MessageHandler {
        void on_datagram(const Endpoint&, const Bytes& data) override {
            if (!data.empty() && data[0] == wire::kMsgPing) ++pings;
        }
        int pings = 0;
    } catcher;
    const HostId admitted_host = net.add_host({"flood-a", "S", "r", 0});
    const HostId refused_host = net.add_host({"flood-b", "S", "r", 0});
    constexpr std::size_t kRefused = 1000;
    static_assert(Bdn::kMaxRegistry <= 65536, "one port per admitted id on one host");

    Bdn bdn = make_bdn();
    bdn.start();
    BrokerAdvertisement first;
    for (std::size_t i = 0; i < Bdn::kMaxRegistry + kRefused; ++i) {
        const bool admitted = i < Bdn::kMaxRegistry;
        const Endpoint ep = admitted
                                ? Endpoint{admitted_host, static_cast<std::uint16_t>(i)}
                                : Endpoint{refused_host,
                                           static_cast<std::uint16_t>(i - Bdn::kMaxRegistry)};
        if (!admitted) net.bind(ep, &catcher);
        BrokerAdvertisement ad;
        ad.broker_id = Uuid::random(rng);
        ad.broker_name = "flood";
        ad.endpoint = ep;
        ad.realm = "r";
        if (i == 0) first = ad;
        bdn.register_broker(ad);
    }
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_EQ(bdn.registered_count(), Bdn::kMaxRegistry);
    EXPECT_EQ(endpoint_map_size(bdn), Bdn::kMaxRegistry);
    EXPECT_EQ(bdn.stats().ads_refused, kRefused);
    EXPECT_EQ(bdn.stats().pings_sent, Bdn::kMaxRegistry);
    EXPECT_EQ(catcher.pings, 0);
    EXPECT_NE(bdn.debug_snapshot().find("\"ads_refused\":1000"), std::string::npos);

    // A known id renews and moves at the cap.
    first.broker_name = "renewed";
    first.endpoint = Endpoint{refused_host, 4000};
    bdn.register_broker(first);
    EXPECT_EQ(bdn.stats().ads_refused, kRefused);
    EXPECT_EQ(bdn.registered_count(), Bdn::kMaxRegistry);
    EXPECT_EQ(endpoint_map_size(bdn), Bdn::kMaxRegistry);
    const auto registry = bdn.registry();
    const auto renewed = std::find_if(registry.begin(), registry.end(), [&](const auto& rb) {
        return rb.ad.broker_id == first.broker_id;
    });
    ASSERT_NE(renewed, registry.end());
    EXPECT_EQ(renewed->ad.broker_name, "renewed");
    EXPECT_EQ(renewed->ad.endpoint, first.endpoint);
    for (std::size_t i = 0; i < kRefused; ++i) {
        net.unbind(Endpoint{refused_host, static_cast<std::uint16_t>(i)});
    }
}

TEST_F(BdnFixture, AcksEveryRequestIncludingDuplicates) {
    struct AckCatcher final : transport::MessageHandler {
        void on_datagram(const Endpoint&, const Bytes& data) override {
            wire::ByteReader r(data);
            if (r.u8() == wire::kMsgDiscoveryAck) ++acks;
        }
        int acks = 0;
    } catcher;
    net.bind(client_ep(), &catcher);

    Bdn bdn = make_bdn();
    register_all(bdn, rng);
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);
    const DiscoveryRequest req = make_request();
    send_request(bdn, req);
    send_request(bdn, req);  // retransmission with the same UUID
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_EQ(catcher.acks, 2);                       // §3: timely acks
    EXPECT_EQ(bdn.stats().duplicate_requests, 1u);    // §3: idempotent
    EXPECT_EQ(brokers[0]->requests.size(), 1u);       // injected once only
}

TEST_F(BdnFixture, PrivateBdnRequiresCredential) {
    config::BdnConfig cfg;
    cfg.required_credential = "member-key";
    Bdn bdn = make_bdn(cfg);
    register_all(bdn, rng);
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);

    DiscoveryRequest bad = make_request();
    bad.credential = "wrong";
    send_request(bdn, bad);
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_EQ(bdn.stats().credential_rejections, 1u);
    EXPECT_TRUE(brokers[0]->requests.empty());

    DiscoveryRequest good = make_request();
    good.credential = "member-key";
    send_request(bdn, good);
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_FALSE(brokers[0]->requests.empty());
}

TEST_F(BdnFixture, NoRegisteredBrokersMeansNoInjection) {
    Bdn bdn = make_bdn();
    bdn.start();
    send_request(bdn, make_request());
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_EQ(bdn.stats().requests_received, 1u);
    EXPECT_EQ(bdn.stats().injections, 0u);
    EXPECT_EQ(bdn.stats().acks_sent, 1u);  // still acknowledges
}

TEST_F(BdnFixture, SingleRegisteredBrokerWorks) {
    // §2.1: "Our scheme will work even if a single broker is registered".
    Bdn bdn = make_bdn();
    bdn.register_broker(brokers[1]->advertisement(rng));
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);
    send_request(bdn, make_request());
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_EQ(brokers[1]->requests.size(), 1u);
    EXPECT_EQ(bdn.stats().injections, 1u);
}

TEST_F(BdnFixture, MalformedDatagramIgnored) {
    Bdn bdn = make_bdn();
    net.send_datagram(client_ep(), bdn.endpoint(), Bytes{wire::kMsgDiscoveryRequest, 0x01});
    net.send_datagram(client_ep(), bdn.endpoint(), Bytes{});
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_EQ(bdn.stats().requests_received, 0u);
}

TEST_F(BdnFixture, PeriodicRefreshTracksChangingDistances) {
    config::BdnConfig cfg;
    cfg.ping_refresh_interval = from_ms(200);
    Bdn bdn = make_bdn(cfg);
    bdn.register_broker(brokers[0]->advertisement(rng));
    bdn.start();
    kernel.run_until(kernel.now() + kSecond);
    const DurationUs rtt_before = bdn.registry()[0].rtt;
    EXPECT_NEAR(static_cast<double>(rtt_before), static_cast<double>(from_ms(10)), 1000.0);
    // The link degrades; subsequent refreshes must notice.
    net.set_link(bdn_host, broker_hosts[0], {from_ms(40), 0, 2});
    kernel.run_until(kernel.now() + kSecond);
    const DurationUs rtt_after = bdn.registry()[0].rtt;
    EXPECT_NEAR(static_cast<double>(rtt_after), static_cast<double>(from_ms(80)), 1000.0);
}

TEST_F(BdnFixture, RegistrySyncPushesAdsToPeerBdn) {
    const HostId peer_host = net.add_host({"bdn2", "S", "bdn-realm", 0});
    const Endpoint peer_ep{peer_host, 7100};

    config::BdnConfig cfg;
    cfg.sync_peers = {peer_ep};
    cfg.registry_sync_interval = from_ms(500);
    Bdn bdn_a = make_bdn(cfg);
    Bdn bdn_b(kernel, net, peer_ep, net.host_clock(peer_host), {});
    bdn_a.start();
    bdn_b.start();

    register_all(bdn_a, rng);
    kernel.run_until(kernel.now() + 2 * kSecond);

    EXPECT_EQ(bdn_b.registered_count(), 3u) << "peer must learn the full registry";
    EXPECT_GE(bdn_a.stats().sync_pushes, 1u);
    EXPECT_GE(bdn_b.stats().sync_received, 1u);
    EXPECT_EQ(bdn_b.stats().sync_brokers_learned, 3u);
    ASSERT_NE(bdn_a.sync_channel(peer_ep), nullptr);
    EXPECT_EQ(bdn_a.sync_channel(peer_ep)->state(),
              transport::RudpChannel::State::kHealthy);
}

TEST_F(BdnFixture, RegistrySyncSurvivesLossyPath) {
    // A registry big enough to fragment across many segments, pushed over
    // a 30%-loss path: the RUDP lane must still converge the peer.
    const HostId peer_host = net.add_host({"bdn2", "S", "bdn-realm", 0});
    const Endpoint peer_ep{peer_host, 7100};
    net.set_directed_loss(bdn_host, peer_host, 0.30);

    config::BdnConfig cfg;
    cfg.sync_peers = {peer_ep};
    cfg.registry_sync_interval = from_ms(500);
    Bdn bdn_a = make_bdn(cfg);
    Bdn bdn_b(kernel, net, peer_ep, net.host_clock(peer_host), {});
    bdn_a.start();
    bdn_b.start();

    for (int i = 0; i < 200; ++i) {
        BrokerAdvertisement ad;
        ad.broker_id = Uuid::random(rng);
        ad.broker_name = "bulk-broker-" + std::to_string(i) +
                         std::string(64, 'x');  // pad past one chunk's worth
        ad.endpoint = Endpoint{broker_hosts[0], static_cast<std::uint16_t>(9000 + i)};
        ad.realm = "r";
        bdn_a.register_broker(ad);
    }
    kernel.run_until(kernel.now() + 10 * kSecond);

    EXPECT_EQ(bdn_b.registered_count(), 200u);
    EXPECT_GE(bdn_a.stats().sync_pushes, 1u);
}

TEST_F(BdnFixture, RegistrySyncClampsLeaseToSendersRemaining) {
    // Regression: a synced entry must carry what is left of the sender's
    // lease, not be granted a fresh full lease by the receiver. Here the
    // sender leases for 2 s and the receiver's own policy is 60 s — the
    // merged entry must still lapse when the original grant does.
    const HostId peer_host = net.add_host({"bdn2", "S", "bdn-realm", 0});
    const Endpoint peer_ep{peer_host, 7100};

    config::BdnConfig cfg_a;
    cfg_a.sync_peers = {peer_ep};
    cfg_a.registry_sync_interval = from_ms(500);
    cfg_a.ad_lease = 2 * kSecond;
    config::BdnConfig cfg_b;
    cfg_b.ad_lease = 60 * kSecond;

    Bdn bdn_a = make_bdn(cfg_a);
    Bdn bdn_b(kernel, net, peer_ep, net.host_clock(peer_host), cfg_b);
    bdn_a.start();
    bdn_b.start();

    const TimeUs t0 = kernel.now();
    bdn_a.register_broker(brokers[0]->advertisement(rng));
    kernel.run_until(t0 + 1500 * kMillisecond);

    const auto reg = bdn_b.registry();
    ASSERT_EQ(reg.size(), 1u);
    EXPECT_GT(reg[0].lease_expires_at, t0);
    // The sender's grant ends at t0 + 2 s; allow slack for sync latency but
    // nothing close to the receiver's own 60 s policy.
    EXPECT_LE(reg[0].lease_expires_at, t0 + 2 * kSecond + from_ms(500))
        << "receiver granted a fresh lease instead of clamping to remaining";

    // And the entry actually lapses: once the original grant is over, the
    // receiver's sweep evicts it (the sender's copy expired too, so the
    // digest-driven pushes stop carrying it).
    kernel.run_until(t0 + 8 * kSecond);
    std::size_t live = 0;
    for (const auto& rb : bdn_b.registry()) {
        if (rb.lease_expires_at == 0 || rb.lease_expires_at > kernel.now()) ++live;
    }
    EXPECT_EQ(live, 0u) << "clamped lease outlived the sender's grant";
}

TEST_F(BdnFixture, RegistrySyncNonLeasingSenderCannotRenewLease) {
    // A sender that does not track leases (-1 on the wire) must not refresh
    // a lease the receiver already granted: only the broker's own re-ad can.
    const HostId peer_host = net.add_host({"bdn2", "S", "bdn-realm", 0});
    const Endpoint peer_ep{peer_host, 7100};

    config::BdnConfig cfg_a;
    cfg_a.sync_peers = {peer_ep};
    cfg_a.registry_sync_interval = from_ms(500);
    cfg_a.ad_lease = 0;  // sender: no leases
    config::BdnConfig cfg_b;
    cfg_b.ad_lease = 2 * kSecond;  // receiver leases direct registrations

    Bdn bdn_a = make_bdn(cfg_a);
    Bdn bdn_b(kernel, net, peer_ep, net.host_clock(peer_host), cfg_b);
    bdn_a.start();
    bdn_b.start();

    const BrokerAdvertisement ad = brokers[0]->advertisement(rng);
    bdn_b.register_broker(ad);  // direct registration: leased locally
    const TimeUs direct_lease = bdn_b.registry()[0].lease_expires_at;
    ASSERT_GT(direct_lease, 0);

    bdn_a.register_broker(ad);  // the sender also knows this broker
    kernel.run_until(kernel.now() + 1500 * kMillisecond);

    ASSERT_EQ(bdn_b.registered_count(), 1u);
    EXPECT_EQ(bdn_b.registry()[0].lease_expires_at, direct_lease)
        << "a -1 (non-leasing) sync entry renewed the receiver's lease";
}

TEST_F(BdnFixture, RegistrySyncNeverResurrectsExpiredEntry) {
    // A v2 sync entry whose remaining lease is already spent (<= 0, not the
    // -1 sentinel) must be dropped, never stored — even though the same ad
    // with time left would be welcome.
    Bdn bdn = make_bdn();

    RegistrySyncEntry spent;
    spent.ad = brokers[0]->advertisement(rng);
    spent.lease_remaining = 0;  // expired exactly at encode time
    spent.origin = 0xABCD;
    spent.version = 7;
    RegistrySyncEntry negative;
    negative.ad = brokers[1]->advertisement(rng);
    negative.lease_remaining = -from_ms(500);  // long dead at the sender
    negative.origin = 0xABCD;
    negative.version = 8;

    wire::ByteWriter w;
    w.u8(wire::kMsgBdnRegistrySync2);
    w.u32(2);
    spent.encode(w);
    negative.encode(w);
    const Bytes payload = w.take();

    // Deliver over a real RUDP lane from a fake peer, exactly as a (buggy
    // or clock-stepped) BDN would push it.
    struct FrameRouter final : transport::MessageHandler {
        transport::RudpChannel* channel = nullptr;
        void on_datagram(const Endpoint&, const Bytes& data) override {
            if (channel == nullptr || data.empty()) return;
            wire::ByteReader reader(data);
            const std::uint8_t type = reader.u8();
            channel->handle_frame(type, reader);
        }
    } router;
    const Endpoint peer_ep{client_host, 7300};
    net.bind(peer_ep, &router);
    transport::RudpChannel channel(kernel, net, net.host_clock(client_host), peer_ep,
                                   bdn.endpoint(), transport::RudpOptions{}, "fake-peer");
    router.channel = &channel;
    ASSERT_TRUE(channel.send_bulk(payload));
    kernel.run_until(kernel.now() + 2 * kSecond);

    EXPECT_EQ(bdn.registered_count(), 0u) << "expired sync entries were resurrected";
    EXPECT_EQ(bdn.stats().sync_expired_dropped, 2u);
    net.unbind(peer_ep);
}

TEST_F(BdnFixture, RegistrySyncSkipsPushWhileDigestUnchanged) {
    // Periodic full-registry pushes are wasteful when nothing changed; the
    // digest-skip keeps the lane idle until the registry actually moves.
    const HostId peer_host = net.add_host({"bdn2", "S", "bdn-realm", 0});
    const Endpoint peer_ep{peer_host, 7100};

    config::BdnConfig cfg;
    cfg.sync_peers = {peer_ep};
    cfg.registry_sync_interval = from_ms(500);
    Bdn bdn_a = make_bdn(cfg);
    Bdn bdn_b(kernel, net, peer_ep, net.host_clock(peer_host), {});
    bdn_a.start();
    bdn_b.start();

    register_all(bdn_a, rng);
    kernel.run_until(kernel.now() + 3 * kSecond);

    EXPECT_EQ(bdn_a.stats().sync_pushes, 1u) << "unchanged registry was re-pushed";
    EXPECT_GE(bdn_a.stats().sync_skipped_unchanged, 3u);
    EXPECT_EQ(bdn_b.registered_count(), 3u);

    // A new advertisement changes the digest: exactly one more push.
    BrokerAdvertisement fresh;
    fresh.broker_id = Uuid::random(rng);
    fresh.broker_name = "late-joiner";
    fresh.endpoint = Endpoint{broker_hosts[0], 9100};
    fresh.realm = "r";
    bdn_a.register_broker(fresh);
    kernel.run_until(kernel.now() + 2 * kSecond);

    EXPECT_EQ(bdn_a.stats().sync_pushes, 2u);
    EXPECT_EQ(bdn_b.registered_count(), 4u);
}

TEST_F(BdnFixture, RegistrySyncReRegistrationChangesDigest) {
    // A lease renewal (re-advertisement) mints a fresh version, so the
    // digest changes and peers hear about the renewal.
    const HostId peer_host = net.add_host({"bdn2", "S", "bdn-realm", 0});
    const Endpoint peer_ep{peer_host, 7100};

    config::BdnConfig cfg;
    cfg.sync_peers = {peer_ep};
    cfg.registry_sync_interval = from_ms(500);
    Bdn bdn_a = make_bdn(cfg);
    Bdn bdn_b(kernel, net, peer_ep, net.host_clock(peer_host), {});
    bdn_a.start();
    bdn_b.start();

    const BrokerAdvertisement ad = brokers[0]->advertisement(rng);
    bdn_a.register_broker(ad);
    kernel.run_until(kernel.now() + 2 * kSecond);
    const std::uint64_t pushes_before = bdn_a.stats().sync_pushes;
    EXPECT_EQ(pushes_before, 1u);

    bdn_a.register_broker(ad);  // renewal, same broker id
    kernel.run_until(kernel.now() + 2 * kSecond);
    EXPECT_EQ(bdn_a.stats().sync_pushes, pushes_before + 1);
}

}  // namespace
}  // namespace narada::discovery
