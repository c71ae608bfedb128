// The same protocol stack over REAL loopback sockets: UDP datagrams, TCP
// broker links and wall-clock timers — now via the thread-per-core
// ShardRuntime. Demonstrates that nothing in the brokers, BDN or client
// depends on the simulator, and that the node population of one process
// spreads across reactor shards: each protocol object is homed on
// port(i % shards), its sockets bound on that shard alone, and runs
// single-threaded on that shard's reactor while the group as a whole uses
// every core. Nodes are started from main(): their ports route those
// first sends to the home shard's sockets.
//
//   $ ./examples/realsock_discovery
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
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
    discovery::Bdn bdn(bdn_home, bdn_home, next_port(), wall, bdn_cfg,
                       "gridservicelocator.org");

    // Four brokers in a star around broker 0, each advertising to the BDN.
    config::BrokerConfig broker_cfg;
    broker_cfg.advertise_bdns = {bdn.endpoint()};
    broker_cfg.processing_delay = from_ms(1);
    std::vector<std::unique_ptr<broker::Broker>> brokers;
    std::vector<std::unique_ptr<discovery::BrokerDiscoveryPlugin>> plugins;
    for (int i = 0; i < 4; ++i) {
        transport::ShardPort& home = home_port();
        auto node = std::make_unique<broker::Broker>(home, home, next_port(), wall,
                                                     utc, broker_cfg,
                                                     "loop-broker-" + std::to_string(i));
        discovery::BrokerIdentity identity;
        identity.hostname = "127.0.0.1";
        identity.realm = "loopback";
        auto plugin = std::make_unique<discovery::BrokerDiscoveryPlugin>(identity);
        node->add_plugin(plugin.get());
        plugins.push_back(std::move(plugin));
        brokers.push_back(std::move(node));
    }
    for (int i = 1; i < 4; ++i) brokers[i]->connect_to_peer(brokers[0]->endpoint());
    for (auto& b : brokers) b->start();
    bdn.start();

    // Wait for real UDP advertisements to land.
    for (int i = 0; i < 100 && bdn.registered_count() < 4; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::printf("BDN registered %zu brokers over real UDP\n", bdn.registered_count());

    // Discovery client with tight real-time windows.
    config::DiscoveryConfig client_cfg;
    client_cfg.bdns = {bdn.endpoint()};
    client_cfg.response_window = from_ms(400);
    client_cfg.ping_window = from_ms(200);
    client_cfg.max_responses = 4;
    transport::ShardPort& client_home = home_port();
    discovery::DiscoveryClient client(client_home, client_home, next_port(), wall, utc,
                                      client_cfg, "realsock-client", "loopback");

    std::mutex m;
    std::condition_variable cv;
    std::optional<discovery::DiscoveryReport> result;
    client.discover([&](const discovery::DiscoveryReport& report) {
        std::scoped_lock lock(m);
        result = report;
        cv.notify_all();
    });
    {
        std::unique_lock lock(m);
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return result.has_value(); });
    }
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
