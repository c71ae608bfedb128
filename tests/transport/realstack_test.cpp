// The full discovery stack over REAL loopback sockets: the same broker,
// BDN and client objects that run on the simulator, now on PosixTransport
// with wall-clock timers. Windows are shortened so the test finishes in
// about a second of real time.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>

#include "broker/broker.hpp"
#include "broker/client.hpp"
#include "discovery/bdn.hpp"
#include "discovery/broker_plugin.hpp"
#include "discovery/client.hpp"
#include "transport/posix_transport.hpp"
#include "test_ports.hpp"

namespace narada {
namespace {

struct RealStackFixture : ::testing::Test {
    RealStackFixture() : utc(wall) {
        auto next_port = [] { return Endpoint{1, transport::claim_test_port()}; };

        config::BdnConfig bdn_cfg;
        bdn_cfg.ping_refresh_interval = from_ms(200);
        bdn = std::make_unique<discovery::Bdn>(transport, transport, next_port(), wall,
                                               bdn_cfg, "real-bdn");

        config::BrokerConfig broker_cfg;
        broker_cfg.advertise_bdns = {bdn->endpoint()};
        broker_cfg.processing_delay = from_ms(1);
        for (int i = 0; i < 3; ++i) {
            auto node = std::make_unique<broker::Broker>(
                transport, transport, next_port(), wall, utc, broker_cfg,
                "real-broker-" + std::to_string(i));
            discovery::BrokerIdentity identity;
            identity.hostname = "127.0.0.1";
            identity.realm = "loopback";
            auto plugin = std::make_unique<discovery::BrokerDiscoveryPlugin>(identity);
            node->add_plugin(plugin.get());
            plugins.push_back(std::move(plugin));
            brokers.push_back(std::move(node));
        }
        // Star overlay around broker 0.
        brokers[1]->connect_to_peer(brokers[0]->endpoint());
        brokers[2]->connect_to_peer(brokers[0]->endpoint());
        for (auto& b : brokers) b->start();

        config::DiscoveryConfig client_cfg;
        client_cfg.bdns = {bdn->endpoint()};
        client_cfg.response_window = from_ms(500);
        client_cfg.ping_window = from_ms(250);
        client_cfg.retransmit_interval = from_ms(250);
        client_cfg.max_responses = 3;
        client = std::make_unique<discovery::DiscoveryClient>(
            transport, transport, next_port(), wall, utc, client_cfg, "real-client",
            "loopback");

        bdn->start();
    }

    std::optional<discovery::DiscoveryReport> discover(int timeout_ms = 5000) {
        std::mutex m;
        std::condition_variable cv;
        std::optional<discovery::DiscoveryReport> result;
        client->discover([&](const discovery::DiscoveryReport& report) {
            std::scoped_lock lock(m);
            result = report;
            cv.notify_all();
        });
        std::unique_lock lock(m);
        cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                    [&] { return result.has_value(); });
        return result;
    }

    transport::PosixTransport transport;
    WallClock wall;
    timesvc::FixedUtcSource utc;
    std::unique_ptr<discovery::Bdn> bdn;
    std::vector<std::unique_ptr<broker::Broker>> brokers;
    std::vector<std::unique_ptr<discovery::BrokerDiscoveryPlugin>> plugins;
    std::unique_ptr<discovery::DiscoveryClient> client;
};

TEST_F(RealStackFixture, AdvertisementsReachBdnOverRealSockets) {
    // Brokers advertised over real UDP at start(); give them a moment.
    for (int i = 0; i < 50 && bdn->registered_count() < 3; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(bdn->registered_count(), 3u);
}

TEST_F(RealStackFixture, EndToEndDiscoveryOverRealSockets) {
    // Wait for registration so the BDN has injection targets.
    for (int i = 0; i < 50 && bdn->registered_count() < 3; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const auto report = discover();
    ASSERT_TRUE(report.has_value());
    ASSERT_TRUE(report->success);
    EXPECT_EQ(report->candidates.size(), 3u);
    const auto* chosen = report->selected_candidate();
    ASSERT_NE(chosen, nullptr);
    EXPECT_GE(chosen->ping_rtt, 0);
    // Loopback RTTs are sub-millisecond-ish; sanity-bound at 100 ms.
    EXPECT_LT(chosen->ping_rtt, from_ms(100));
}

TEST_F(RealStackFixture, PubSubOverRealSockets) {
    const Endpoint sub_ep{7, transport::claim_test_port()};
    const Endpoint pub_ep{8, transport::claim_test_port()};
    broker::PubSubClient sub(transport, transport, sub_ep);
    broker::PubSubClient pub(transport, transport, pub_ep);

    std::mutex m;
    std::condition_variable cv;
    std::vector<broker::Event> events;
    sub.on_event([&](const broker::Event& e) {
        std::scoped_lock lock(m);
        events.push_back(e);
        cv.notify_all();
    });

    std::atomic<bool> sub_connected{false};
    sub.on_connected([&] { sub_connected = true; });
    sub.subscribe("real/topic/#");
    sub.connect(brokers[1]->endpoint());  // leaf
    pub.connect(brokers[2]->endpoint());  // other leaf, crosses the hub
    for (int i = 0; i < 100 && !sub_connected; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(sub_connected);

    pub.publish("real/topic/news", Bytes{42});
    std::unique_lock lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(3), [&] { return !events.empty(); }));
    EXPECT_EQ(events[0].topic, "real/topic/news");
    EXPECT_EQ(events[0].payload, Bytes{42});
}

}  // namespace
}  // namespace narada
