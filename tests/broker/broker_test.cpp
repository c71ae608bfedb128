#include "broker/broker.hpp"

#include <gtest/gtest.h>

#include "broker/client.hpp"
#include "broker/topic.hpp"
#include "sim/kernel.hpp"
#include "sim/network.hpp"
#include "wire/msg_types.hpp"

namespace narada::broker {
namespace {

struct BrokerFixture : ::testing::Test {
    BrokerFixture() : net(kernel, 5), utc(kernel.clock()) {
        for (int i = 0; i < 4; ++i) {
            hosts.push_back(net.add_host({"h" + std::to_string(i), "S", "realm", 0}));
        }
        net.set_default_link({from_ms(2), 0, 2});
        config::BrokerConfig cfg;
        cfg.processing_delay = from_ms(1);
        // These tests drain the kernel to empty; periodic peer heartbeats
        // would keep it busy forever.
        cfg.peer_heartbeat_interval = 0;
        for (int i = 0; i < 3; ++i) {
            brokers.push_back(std::make_unique<Broker>(
                kernel, net, Endpoint{hosts[i], 7000}, net.host_clock(hosts[i]), utc, cfg,
                "b" + std::to_string(i)));
            brokers.back()->start();
        }
    }

    PubSubClient make_client(std::uint16_t port = 8000) {
        return PubSubClient(kernel, net, Endpoint{hosts[3], port});
    }

    sim::Kernel kernel;
    sim::SimNetwork net;
    timesvc::FixedUtcSource utc;
    std::vector<HostId> hosts;
    std::vector<std::unique_ptr<Broker>> brokers;
};

TEST_F(BrokerFixture, ClientConnectHandshake) {
    PubSubClient client = make_client();
    bool connected = false;
    client.on_connected([&] { connected = true; });
    client.connect(brokers[0]->endpoint());
    kernel.run();
    EXPECT_TRUE(connected);
    EXPECT_TRUE(client.connected());
    EXPECT_EQ(brokers[0]->clients().size(), 1u);
}

TEST_F(BrokerFixture, PublishDeliversToLocalSubscriber) {
    PubSubClient alice = make_client(8000);
    PubSubClient bob = make_client(8001);
    std::vector<Event> seen;
    bob.on_event([&](const Event& e) { seen.push_back(e); });
    alice.connect(brokers[0]->endpoint());
    bob.connect(brokers[0]->endpoint());
    bob.subscribe("news/sports");
    kernel.run();
    alice.publish("news/sports", Bytes{1, 2});
    alice.publish("news/politics", Bytes{3});
    kernel.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].topic, "news/sports");
    EXPECT_EQ(seen[0].payload, (Bytes{1, 2}));
}

TEST_F(BrokerFixture, WildcardSubscriptionDelivers) {
    PubSubClient alice = make_client(8000);
    PubSubClient bob = make_client(8001);
    int count = 0;
    bob.on_event([&](const Event&) { ++count; });
    alice.connect(brokers[0]->endpoint());
    bob.connect(brokers[0]->endpoint());
    bob.subscribe("news/#");
    kernel.run();
    alice.publish("news/sports", Bytes{});
    alice.publish("news/politics/us", Bytes{});
    alice.publish("weather/today", Bytes{});
    kernel.run();
    EXPECT_EQ(count, 2);
}

TEST_F(BrokerFixture, EventsFloodAcrossLinkedBrokers) {
    // b0 - b1 - b2 chain; publisher on b0, subscriber on b2.
    brokers[1]->connect_to_peer(brokers[0]->endpoint());
    brokers[2]->connect_to_peer(brokers[1]->endpoint());
    kernel.run();
    EXPECT_EQ(brokers[1]->peers().size(), 2u);

    PubSubClient alice = make_client(8000);
    PubSubClient carol = make_client(8001);
    int count = 0;
    carol.on_event([&](const Event&) { ++count; });
    alice.connect(brokers[0]->endpoint());
    carol.connect(brokers[2]->endpoint());
    carol.subscribe("chain/topic");
    kernel.run();
    alice.publish("chain/topic", Bytes{42});
    kernel.run();
    EXPECT_EQ(count, 1);
    EXPECT_EQ(brokers[2]->stats().events_delivered, 1u);
}

TEST_F(BrokerFixture, FloodDuplicatesSuppressedInCycle) {
    // Triangle: every broker links to the others; each event must be
    // ingested exactly once per broker despite multiple arrival paths.
    brokers[0]->connect_to_peer(brokers[1]->endpoint());
    brokers[1]->connect_to_peer(brokers[2]->endpoint());
    brokers[2]->connect_to_peer(brokers[0]->endpoint());
    kernel.run();

    Event event;
    event.topic = "loop/test";
    brokers[0]->publish(event);
    kernel.run();
    EXPECT_EQ(brokers[0]->stats().events_ingested, 1u);
    EXPECT_EQ(brokers[1]->stats().events_ingested, 1u);
    EXPECT_EQ(brokers[2]->stats().events_ingested, 1u);
    EXPECT_GT(brokers[0]->stats().duplicates_suppressed +
                  brokers[1]->stats().duplicates_suppressed +
                  brokers[2]->stats().duplicates_suppressed,
              0u);
}

TEST_F(BrokerFixture, TtlBoundsPropagation) {
    brokers[0]->connect_to_peer(brokers[1]->endpoint());
    brokers[1]->connect_to_peer(brokers[2]->endpoint());
    kernel.run();
    Event event;
    event.topic = "ttl/test";
    event.ttl = 2;  // reaches b1 (ttl 2 -> forwards with 1) but b1 stops
    brokers[0]->publish(event);
    kernel.run();
    EXPECT_EQ(brokers[1]->stats().events_ingested, 1u);
    EXPECT_EQ(brokers[2]->stats().events_ingested, 0u);
}

TEST_F(BrokerFixture, PingAnsweredWithEcho) {
    struct PongCatcher final : transport::MessageHandler {
        void on_datagram(const Endpoint&, const Bytes& data) override {
            wire::ByteReader r(data);
            EXPECT_EQ(r.u8(), wire::kMsgPong);
            echoed = r.i64();
            utc = r.i64();
            ++pongs;
        }
        TimeUs echoed = -1;
        TimeUs utc = -1;
        int pongs = 0;
    } catcher;
    const Endpoint me{hosts[3], 9100};
    net.bind(me, &catcher);
    wire::ByteWriter w;
    w.u8(wire::kMsgPing);
    w.i64(123456);
    net.send_datagram(me, brokers[0]->endpoint(), w.take());
    kernel.run();
    EXPECT_EQ(catcher.pongs, 1);
    EXPECT_EQ(catcher.echoed, 123456);
    EXPECT_GE(catcher.utc, 0);
    EXPECT_EQ(brokers[0]->stats().pings_answered, 1u);
}

TEST_F(BrokerFixture, MetricsReflectConnectionsAndLoadModel) {
    PubSubClient alice = make_client(8000);
    alice.connect(brokers[0]->endpoint());
    brokers[0]->connect_to_peer(brokers[1]->endpoint());
    kernel.run();
    auto load = std::make_shared<StaticLoadModel>(0.7, 1024ull << 20, 256ull << 20);
    brokers[0]->set_load_model(load);
    const UsageMetrics m = brokers[0]->metrics();
    EXPECT_EQ(m.connections, 2u);  // one client + one peer
    EXPECT_EQ(m.broker_links, 1u);
    EXPECT_DOUBLE_EQ(m.cpu_load, 0.7);
    EXPECT_EQ(m.total_memory, 1024ull << 20);
    EXPECT_EQ(m.free_memory, 256ull << 20);
}

TEST_F(BrokerFixture, ClientByeRemovesSubscriptions) {
    PubSubClient alice = make_client(8000);
    PubSubClient bob = make_client(8001);
    int count = 0;
    bob.on_event([&](const Event&) { ++count; });
    alice.connect(brokers[0]->endpoint());
    bob.connect(brokers[0]->endpoint());
    bob.subscribe("t/x");
    kernel.run();
    bob.disconnect();
    kernel.run();
    alice.publish("t/x", Bytes{});
    kernel.run();
    EXPECT_EQ(count, 0);
    EXPECT_EQ(brokers[0]->clients().size(), 1u);  // alice remains
}

TEST_F(BrokerFixture, ResubscribeOnReconnect) {
    PubSubClient alice = make_client(8000);
    PubSubClient bob = make_client(8001);
    int count = 0;
    bob.on_event([&](const Event&) { ++count; });
    bob.subscribe("t/x");  // subscribe before ever connecting
    alice.connect(brokers[0]->endpoint());
    bob.connect(brokers[0]->endpoint());
    kernel.run();
    bob.disconnect();
    kernel.run();
    bob.connect(brokers[1]->endpoint());  // move to another broker
    kernel.run();
    brokers[0]->connect_to_peer(brokers[1]->endpoint());
    kernel.run();
    alice.publish("t/x", Bytes{});
    kernel.run();
    EXPECT_EQ(count, 1);  // subscription replayed at the new broker
}

TEST_F(BrokerFixture, MalformedMessagesCounted) {
    net.send_datagram(Endpoint{hosts[3], 9000}, brokers[0]->endpoint(),
                      Bytes{wire::kMsgPublish});  // truncated publish
    net.send_datagram(Endpoint{hosts[3], 9000}, brokers[0]->endpoint(), Bytes{});
    kernel.run();
    // Empty datagram and truncated publish are both dropped gracefully.
    EXPECT_GE(brokers[0]->stats().malformed_dropped, 1u);
}

TEST_F(BrokerFixture, PublishFromUnknownClientIgnored) {
    Event event;
    event.topic = "t/x";
    event.id = Uuid::from_halves(1, 2);
    wire::ByteWriter w;
    w.u8(wire::kMsgPublish);
    event.encode(w);
    net.send_datagram(Endpoint{hosts[3], 9000}, brokers[0]->endpoint(), w.take());
    kernel.run();
    EXPECT_EQ(brokers[0]->stats().events_ingested, 0u);
}

TEST_F(BrokerFixture, PluginSeesEventsAndMessages) {
    struct Probe final : BrokerPlugin {
        void on_attach(Broker& b) override { broker = &b; }
        void on_start() override { started = true; }
        bool on_message(const Endpoint&, std::uint8_t type, wire::ByteReader&,
                        bool) override {
            if (type == 0x77) {
                ++custom_messages;
                return true;
            }
            return false;
        }
        void on_event(const Event& e) override { topics.push_back(e.topic); }
        Broker* broker = nullptr;
        bool started = false;
        int custom_messages = 0;
        std::vector<std::string> topics;
    } probe;

    brokers[0]->add_plugin(&probe);
    EXPECT_EQ(probe.broker, brokers[0].get());
    EXPECT_TRUE(probe.started);  // broker already started

    Event event;
    event.topic = "plugin/topic";
    brokers[0]->publish(event);
    net.send_datagram(Endpoint{hosts[3], 9000}, brokers[0]->endpoint(), Bytes{0x77});
    kernel.run();
    ASSERT_EQ(probe.topics.size(), 1u);
    EXPECT_EQ(probe.topics[0], "plugin/topic");
    EXPECT_EQ(probe.custom_messages, 1);
}

TEST_F(BrokerFixture, DestroyedWithinProcessingDelayLeavesNoDanglingTimer) {
    struct Probe final : BrokerPlugin {
        void on_attach(Broker&) override {}
        void on_event(const Event&) override { ++events; }
        int events = 0;
    } probe;
    brokers[0]->add_plugin(&probe);

    // publish() schedules the modelled processing step processing_delay
    // (1 ms) out; the broker is gone before it fires.
    Event event;
    event.topic = "news/sports";
    brokers[0]->publish(event);
    kernel.run_until(kernel.now() + 500 * kMicrosecond);
    brokers[0].reset();
    kernel.run_until(kernel.now() + kSecond);
    EXPECT_EQ(probe.events, 0);
}

TEST_F(BrokerFixture, EventCodecRoundTrip) {
    Event event;
    event.id = Uuid::from_halves(3, 4);
    event.topic = "a/b/c";
    event.payload = Bytes{9, 8, 7};
    event.headers = {{"key", "value"}, {"source", "test"}};
    event.ttl = 5;
    wire::ByteWriter w;
    event.encode(w);
    wire::ByteReader r(w.bytes());
    const Event decoded = Event::decode(r);
    EXPECT_EQ(decoded, event);
    EXPECT_TRUE(r.at_end());
}

TEST_F(BrokerFixture, ConnectionDrivenLoadModel) {
    ConnectionDrivenLoadModel model(0.1, 0.05, 1000, 10);
    model.set_connections(4);
    EXPECT_NEAR(model.cpu_load(), 0.3, 1e-12);
    EXPECT_EQ(model.free_memory(), 960u);
    model.set_connections(200);
    EXPECT_DOUBLE_EQ(model.cpu_load(), 1.0);  // clamped
    EXPECT_EQ(model.free_memory(), 0u);       // clamped
}

}  // namespace
}  // namespace narada::broker
