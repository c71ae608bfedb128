// The same protocol stack over REAL loopback sockets: UDP datagrams, TCP
// broker links and wall-clock timers — now via the thread-per-core
// ShardRuntime. Demonstrates that nothing in the brokers, BDN or client
// depends on the simulator, and that the node population of one process
// spreads across reactor shards: each protocol object is homed on
// port(i % shards), its sockets bound on that shard alone, and runs
// single-threaded on that shard's reactor while the group as a whole uses
// every core. main() touches a node only through its home port's call():
// construction, start, reads, discover() and destruction all run on the
// node's own reactor.
//
//   $ ./examples/realsock_discovery
#include <chrono>
#include <cstdio>
#include <future>
#include <optional>
#include <thread>

#include "broker/broker.hpp"
#include "discovery/bdn.hpp"
#include "discovery/broker_plugin.hpp"
#include "discovery/client.hpp"
#include "transport/shard_runtime.hpp"

using namespace narada;

int main() {
    // Two reactor shards: enough to put neighbouring nodes on different
    // reactors without oversubscribing small machines.
    transport::ShardRuntimeOptions topt;
    topt.shards = 2;
    transport::ShardRuntime rt(topt);
    WallClock wall;
    timesvc::FixedUtcSource utc(wall);
    // Round-robin home shards: a protocol object bound through port(i) has
    // its sockets on shard i and every callback and timer serialized on
    // shard i's thread.
    std::size_t next_home = 0;
    auto home_port = [&]() -> transport::ShardPort& {
        transport::ShardPort& p = rt.port(next_home);
        next_home = (next_home + 1) % rt.shards();
        return p;
    };

    std::uint16_t port = transport::PosixTransport::find_free_port(46000);
    auto next_port = [&port] {
        const Endpoint ep{1, port};
        port = transport::PosixTransport::find_free_port(static_cast<std::uint16_t>(port + 1));
        return ep;
    };

    // One BDN, homed on its own shard.
    config::BdnConfig bdn_cfg;
    bdn_cfg.ping_refresh_interval = from_ms(250);
    transport::ShardPort& bdn_home = home_port();
    const Endpoint bdn_ep = next_port();
    std::optional<discovery::Bdn> bdn;
    bdn_home.call([&] {
        bdn.emplace(bdn_home, bdn_home, bdn_ep, wall, bdn_cfg, "gridservicelocator.org");
    });

    // Four brokers in a star around broker 0, each advertising to the BDN.
    config::BrokerConfig broker_cfg;
    broker_cfg.advertise_bdns = {bdn_ep};
    broker_cfg.processing_delay = from_ms(1);
    struct HomedBroker {
        transport::ShardPort* home = nullptr;
        Endpoint endpoint;
        std::optional<broker::Broker> node;
        std::optional<discovery::BrokerDiscoveryPlugin> plugin;
    };
    std::vector<HomedBroker> brokers(4);
    for (std::size_t i = 0; i < brokers.size(); ++i) {
        HomedBroker& b = brokers[i];
        b.home = &home_port();
        b.endpoint = next_port();
        b.home->call([&] {
            b.node.emplace(*b.home, *b.home, b.endpoint, wall, utc, broker_cfg,
                           "loop-broker-" + std::to_string(i));
            discovery::BrokerIdentity identity;
            identity.hostname = "127.0.0.1";
            identity.realm = "loopback";
            b.plugin.emplace(identity);
            b.node->add_plugin(&*b.plugin);
            if (i > 0) b.node->connect_to_peer(brokers[0].endpoint);
        });
    }
    for (HomedBroker& b : brokers) b.home->call([&] { b.node->start(); });
    bdn_home.call([&] { bdn->start(); });

    // Wait for real UDP advertisements to land.
    const auto registered = [&] {
        return bdn_home.call([&] { return bdn->registered_count(); });
    };
    for (int i = 0; i < 100 && registered() < brokers.size(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::printf("BDN registered %zu brokers over real UDP\n", registered());

    // Discovery client with tight real-time windows.
    config::DiscoveryConfig client_cfg;
    client_cfg.bdns = {bdn_ep};
    client_cfg.response_window = from_ms(400);
    client_cfg.ping_window = from_ms(200);
    client_cfg.max_responses = 4;
    transport::ShardPort& client_home = home_port();
    const Endpoint client_ep = next_port();
    std::optional<discovery::DiscoveryClient> client;
    std::promise<discovery::DiscoveryReport> done;
    client_home.call([&] {
        client.emplace(client_home, client_home, client_ep, wall, utc, client_cfg,
                       "realsock-client", "loopback");
        client->discover(
            [&done](const discovery::DiscoveryReport& report) { done.set_value(report); });
    });
    std::future<discovery::DiscoveryReport> pending = done.get_future();
    std::optional<discovery::DiscoveryReport> result;
    if (pending.wait_for(std::chrono::seconds(5)) == std::future_status::ready) {
        result = pending.get();
    }

    // Tear every node down on its own reactor before the runtime stops.
    client_home.call([&] { client.reset(); });
    for (HomedBroker& b : brokers) {
        b.home->call([&] {
            b.plugin.reset();
            b.node.reset();
        });
    }
    bdn_home.call([&] { bdn.reset(); });

    if (!result || !result->success) {
        std::printf("discovery over real sockets failed\n");
        return 1;
    }
    const auto* chosen = result->selected_candidate();
    std::printf("discovered %zu brokers in %.2f ms (wall clock)\n", result->candidates.size(),
                to_ms(result->total_duration));
    std::printf("selected %s, measured loopback ping rtt %.3f ms\n",
                chosen->response.broker_name.c_str(), to_ms(chosen->ping_rtt));
    std::printf("realsock_discovery OK\n");
    return 0;
}
