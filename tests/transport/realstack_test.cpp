// The full discovery stack over REAL loopback sockets: the same broker,
// BDN and client objects that run on the simulator, now on a one-shard
// ShardRuntime with wall-clock timers. Every node is built, started, read
// and destroyed on its home reactor through ShardPort::call, so the test
// thread never races the reactor. Windows are shortened so the test
// finishes in about a second of real time.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "broker/broker.hpp"
#include "broker/client.hpp"
#include "discovery/bdn.hpp"
#include "discovery/broker_plugin.hpp"
#include "discovery/client.hpp"
#include "transport/shard_runtime.hpp"
#include "test_ports.hpp"

namespace narada {
namespace {

struct RealStackFixture : ::testing::Test {
    RealStackFixture() : utc(wall) {
        auto next_port = [] { return Endpoint{1, transport::claim_test_port()}; };
        home().call([&] {
            config::BdnConfig bdn_cfg;
            bdn_cfg.ping_refresh_interval = from_ms(200);
            bdn = std::make_unique<discovery::Bdn>(home(), home(), next_port(), wall, bdn_cfg,
                                                   "real-bdn");

            config::BrokerConfig broker_cfg;
            broker_cfg.advertise_bdns = {bdn->endpoint()};
            broker_cfg.processing_delay = from_ms(1);
            for (int i = 0; i < 3; ++i) {
                auto node = std::make_unique<broker::Broker>(
                    home(), home(), next_port(), wall, utc, broker_cfg,
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
                home(), home(), next_port(), wall, utc, client_cfg, "real-client", "loopback");

            bdn->start();
        });
    }

    ~RealStackFixture() override {
        home().call([&] {
            sub.reset();
            pub.reset();
            client.reset();
            brokers.clear();
            plugins.clear();
            bdn.reset();
        });
    }

    transport::ShardPort& home() { return runtime.port(0); }

    std::size_t registered_count() {
        return home().call([&] { return bdn->registered_count(); });
    }

    /// Wait (up to a second) for all three brokers to register.
    void wait_for_registration() {
        for (int i = 0; i < 50 && registered_count() < 3; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }

    std::optional<discovery::DiscoveryReport> discover(int timeout_ms = 5000) {
        // The report callback runs on the reactor and may outlive a timed-out
        // wait, so it owns the promise it fulfils.
        auto done = std::make_shared<std::promise<discovery::DiscoveryReport>>();
        std::future<discovery::DiscoveryReport> pending = done->get_future();
        home().call([&] {
            client->discover(
                [done](const discovery::DiscoveryReport& report) { done->set_value(report); });
        });
        if (pending.wait_for(std::chrono::milliseconds(timeout_ms)) !=
            std::future_status::ready) {
            return std::nullopt;
        }
        return pending.get();
    }

    WallClock wall;
    timesvc::FixedUtcSource utc;
    transport::ShardRuntime runtime;
    // Built and destroyed on the runtime's reactor.
    std::unique_ptr<discovery::Bdn> bdn;
    std::vector<std::unique_ptr<broker::Broker>> brokers;
    std::vector<std::unique_ptr<discovery::BrokerDiscoveryPlugin>> plugins;
    std::unique_ptr<discovery::DiscoveryClient> client;
    std::optional<broker::PubSubClient> sub;
    std::optional<broker::PubSubClient> pub;
};

TEST_F(RealStackFixture, AdvertisementsReachBdnOverRealSockets) {
    // Brokers advertised over real UDP at start(); give them a moment.
    wait_for_registration();
    EXPECT_EQ(registered_count(), 3u);
}

TEST_F(RealStackFixture, EndToEndDiscoveryOverRealSockets) {
    // Wait for registration so the BDN has injection targets.
    wait_for_registration();
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
    // Callbacks run on the reactor and share this state with the test
    // thread; they own it, so an early return leaves them nothing dangling.
    struct Inbox {
        std::mutex m;
        std::condition_variable cv;
        std::vector<broker::Event> events;
        std::atomic<bool> connected{false};
    };
    auto inbox = std::make_shared<Inbox>();
    const Endpoint sub_ep{7, transport::claim_test_port()};
    const Endpoint pub_ep{8, transport::claim_test_port()};
    home().call([&] {
        sub.emplace(home(), home(), sub_ep);
        pub.emplace(home(), home(), pub_ep);
        sub->on_event([inbox](const broker::Event& e) {
            {
                std::scoped_lock lock(inbox->m);
                inbox->events.push_back(e);
            }
            inbox->cv.notify_all();
        });
        sub->on_connected([inbox] { inbox->connected = true; });
        sub->subscribe("real/topic/#");
        sub->connect(brokers[1]->endpoint());  // leaf
        pub->connect(brokers[2]->endpoint());  // other leaf, crosses the hub
    });
    for (int i = 0; i < 100 && !inbox->connected; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(inbox->connected);

    home().call([&] { pub->publish("real/topic/news", Bytes{42}); });
    std::unique_lock lock(inbox->m);
    ASSERT_TRUE(inbox->cv.wait_for(lock, std::chrono::seconds(3),
                                   [&] { return !inbox->events.empty(); }));
    EXPECT_EQ(inbox->events[0].topic, "real/topic/news");
    EXPECT_EQ(inbox->events[0].payload, Bytes{42});
}

}  // namespace
}  // namespace narada
