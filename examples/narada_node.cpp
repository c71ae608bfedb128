// narada_node — run a broker, BDN or discovery client over real loopback
// sockets, configured entirely from an INI file (the paper's "node
// configuration file", §3). This is the deployable face of the library:
// start a few nodes in separate terminals and watch discovery happen over
// actual UDP/TCP.
//
//   $ ./examples/narada_node examples/config/bdn.ini &
//   $ ./examples/narada_node examples/config/broker1.ini &
//   $ ./examples/narada_node examples/config/broker2.ini &
//   $ ./examples/narada_node examples/config/client.ini
//
// Config format (see examples/config/*.ini):
//   [node]
//   role = broker | bdn | client
//   port = 47001            ; UDP+TCP port on 127.0.0.1
//   name = my-broker
//   realm = lab
//   run_for_ms = 0          ; 0 = run until SIGINT (brokers/BDNs)
// plus the standard [broker] / [bdn] / [discovery] / [weights] sections.
// An [obs] section (enabled, trace_sample_rate, span_capacity) wires the
// observability plane: every node prints a NARADA_METRICS snapshot on
// shutdown, and a traced client prints its span timeline.
//
// A [transport] section (pin_cpus, udp_batch, pool_buffers, udp_sockbuf,
// udp_gso) tunes the datapath. A node runs one protocol object, so it runs
// one epoll reactor: a ShardRuntime with a single shard, whose thread
// serializes every callback and timer (pin_cpus = N pins it to CPU N).
// main() touches the node only through ShardPort::call: construction,
// start, stats reads, discover() and destruction all run on the reactor.
//
// A [security] section turns on the secured discovery datapath:
//   [security]
//   mode = seal             ; off | sign | seal
//   demo_ca_seed = 42       ; REQUIRED when mode != off (see below)
//   peers = bdn@47000       ; identities this node seals to (identity@port)
//   authenticate_ads = true ; BDN: reject plain / foreign-subject ads
// Real deployments load CA roots and per-node keys from files; this demo
// binary instead derives the whole PKI deterministically from
// demo_ca_seed — every node sharing the seed derives the same demo CA
// (and each other's keypairs), so independently started processes can
// verify each other with zero key distribution. That makes the seed a
// pre-shared secret: demo-grade trust, not production key management.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <future>
#include <optional>
#include <thread>

#include "broker/broker.hpp"
#include "crypto/certificate.hpp"
#include "crypto/rsa.hpp"
#include "discovery/bdn.hpp"
#include "discovery/broker_plugin.hpp"
#include "discovery/client.hpp"
#include "discovery/security.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transport/shard_runtime.hpp"

using namespace narada;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop = true; }

/// Observability plane for one process, built from the [obs] section.
/// Null members mean the plane is off and every wiring call is skipped.
struct ObsPlane {
    std::optional<obs::MetricsRegistry> metrics;
    std::optional<obs::SpanRecorder> spans;

    explicit ObsPlane(const config::ObsConfig& cfg) {
        if (!cfg.enabled) return;
        metrics.emplace();
        spans.emplace(cfg.span_capacity);
    }

    [[nodiscard]] obs::MetricsRegistry* registry() {
        return metrics ? &*metrics : nullptr;
    }
    [[nodiscard]] obs::SpanRecorder* recorder() { return spans ? &*spans : nullptr; }

    void print_metrics() const {
        if (metrics) std::printf("NARADA_METRICS %s\n", metrics->to_json().c_str());
    }
};

/// Secured-datapath plane for one process, built from the [security]
/// section. A disengaged context means security is off and set_security
/// receives nullptr (the components' plain path).
///
/// Key material is derived deterministically from `demo_ca_seed`: the CA
/// keypair comes straight from the seed, each identity's keypair from
/// seed ⊕ fnv1a(identity). Nodes sharing the seed therefore agree on the
/// CA *and* can compute any peer's public key locally — a pre-shared-
/// secret bootstrap that stands in for real key distribution so the
/// multi-process demo works with nothing but matching INI files.
struct SecurityPlane {
    WallClock clock;
    Rng rng;
    std::optional<discovery::SecurityContext> context;

    SecurityPlane(const config::Ini& ini, const std::string& name)
        : rng(static_cast<std::uint64_t>(
              std::chrono::steady_clock::now().time_since_epoch().count())) {
        const config::SecurityConfig cfg = config::SecurityConfig::from_ini(ini);
        if (!cfg.enabled()) return;
        const std::int64_t seed = ini.get_int("security", "demo_ca_seed", -1);
        if (seed < 0) {
            throw config::IniError(
                "security.demo_ca_seed is required when security.mode != off "
                "(all cooperating nodes must share it)");
        }
        const TimeUs now = clock.now();
        const TimeUs valid_from = now - 60 * kSecond;
        const TimeUs valid_to = now + 24 * 60 * 60 * kSecond;

        Rng ca_rng(static_cast<std::uint64_t>(seed));
        const crypto::RsaKeyPair ca = crypto::rsa_generate(ca_rng, 1024);
        const crypto::Certificate root =
            crypto::make_self_signed("demo-ca", ca, valid_from, valid_to, 1);
        const auto identity_keys = [&](const std::string& identity) {
            Rng id_rng(static_cast<std::uint64_t>(seed) ^ fnv1a(identity));
            return crypto::rsa_generate(id_rng, 1024);
        };

        const crypto::RsaKeyPair own = identity_keys(name);
        const crypto::Certificate leaf = crypto::issue_certificate(
            name, own.public_key, "demo-ca", ca.private_key, valid_from, valid_to, 2);
        context.emplace(name, own, std::vector<crypto::Certificate>{leaf, root},
                        std::vector<crypto::Certificate>{root}, cfg, clock, rng);

        // peers = identity@port, ...: the identities this node seals to.
        // Senders resolve the seal target by endpoint (identity_at), so each
        // entry provisions both the key and the endpoint -> identity map.
        for (const auto& entry : ini.get_list("security", "peers")) {
            const auto at = entry.rfind('@');
            if (at == std::string::npos || at == 0 || at + 1 == entry.size()) {
                throw config::IniError("bad security.peers entry (want identity@port): " +
                                       entry);
            }
            const std::string peer = entry.substr(0, at);
            const auto port =
                static_cast<std::uint16_t>(std::stoul(entry.substr(at + 1)));
            context->add_peer_key(peer, identity_keys(peer).public_key);
            context->map_endpoint({0, port}, peer);
        }
        std::printf("[%s] security: mode=%s, demo CA seed %lld, %zu provisioned peer(s)\n",
                    name.c_str(), config::to_string(cfg.mode).c_str(),
                    static_cast<long long>(seed),
                    ini.get_list("security", "peers").size());
    }

    [[nodiscard]] discovery::SecurityContext* get() {
        return context ? &*context : nullptr;
    }

private:
    static std::uint64_t fnv1a(const std::string& s) {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const char c : s) h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
        return h;
    }
};

void wait_until_stopped(std::int64_t run_for_ms) {
    const auto start = std::chrono::steady_clock::now();
    while (!g_stop) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (run_for_ms > 0 &&
            std::chrono::steady_clock::now() - start >
                std::chrono::milliseconds(run_for_ms)) {
            break;
        }
    }
}

int run_broker(const config::Ini& ini, transport::ShardPort& home, const Endpoint& endpoint,
               const std::string& name, const std::string& realm, std::int64_t run_for_ms,
               ObsPlane& obs, SecurityPlane& sec) {
    WallClock wall;
    timesvc::FixedUtcSource utc(wall);
    const config::BrokerConfig cfg = config::BrokerConfig::from_ini(ini);
    std::vector<Endpoint> peers;
    for (const auto& peer : ini.get_list("node", "peers")) {
        peers.push_back(config::parse_endpoint(peer));
    }
    std::optional<broker::Broker> node;
    std::optional<discovery::BrokerDiscoveryPlugin> plugin;
    home.call([&] {
        node.emplace(home, home, endpoint, wall, utc, cfg, name);
        discovery::BrokerIdentity identity;
        identity.hostname = "127.0.0.1:" + std::to_string(endpoint.port);
        identity.realm = realm;
        plugin.emplace(identity);
        node->add_plugin(&*plugin);
        plugin->set_security(sec.get());
        node->set_observability(obs.registry());
        plugin->set_observability(obs.registry(), obs.recorder());
        for (const Endpoint& peer : peers) node->connect_to_peer(peer);
        node->start();
    });
    std::printf("[%s] broker up on 127.0.0.1:%u (%zu BDNs configured, %s routing)\n",
                name.c_str(), endpoint.port, cfg.advertise_bdns.size(),
                config::to_string(cfg.routing_mode).c_str());
    wait_until_stopped(run_for_ms);
    home.call([&] {
        std::printf("[%s] shutting down; stats: %llu events, %llu responses sent\n",
                    name.c_str(),
                    static_cast<unsigned long long>(node->stats().events_ingested),
                    static_cast<unsigned long long>(plugin->stats().responses_sent));
        plugin.reset();
        node.reset();
        obs.print_metrics();
    });
    return 0;
}

int run_bdn(const config::Ini& ini, transport::ShardPort& home, const Endpoint& endpoint,
            const std::string& name, std::int64_t run_for_ms, ObsPlane& obs,
            SecurityPlane& sec) {
    WallClock wall;
    timesvc::FixedUtcSource utc(wall);
    const config::BdnConfig cfg = config::BdnConfig::from_ini(ini);
    std::optional<discovery::Bdn> bdn;
    home.call([&] {
        bdn.emplace(home, home, endpoint, wall, cfg, name);
        bdn->set_security(sec.get());
        bdn->set_observability(obs.registry(), obs.recorder(), &utc);
        bdn->start();
    });
    std::printf("[%s] BDN up on 127.0.0.1:%u\n", name.c_str(), endpoint.port);
    wait_until_stopped(run_for_ms);
    home.call([&] {
        std::printf("[%s] shutting down; %zu brokers registered, %llu requests served\n",
                    name.c_str(), bdn->registered_count(),
                    static_cast<unsigned long long>(bdn->stats().requests_received));
        bdn.reset();
        obs.print_metrics();
    });
    return 0;
}

int run_client(const config::Ini& ini, transport::ShardPort& home, const Endpoint& endpoint,
               const std::string& name, const std::string& realm,
               const config::ObsConfig& obs_cfg, ObsPlane& obs, SecurityPlane& sec) {
    WallClock wall;
    timesvc::FixedUtcSource utc(wall);
    const config::DiscoveryConfig cfg = config::DiscoveryConfig::from_ini(ini);
    std::printf("[%s] discovering...\n", name.c_str());
    std::optional<discovery::DiscoveryClient> client;
    std::promise<discovery::DiscoveryReport> done;
    home.call([&] {
        client.emplace(home, home, endpoint, wall, utc, cfg, name, realm);
        client->set_security(sec.get());
        client->set_observability(obs.registry(), obs.recorder(), obs_cfg.trace_sample_rate);
        if (sec.get() != nullptr && obs.registry() != nullptr) {
            sec.get()->set_observability(obs.registry(), name);
        }
        client->discover(
            [&done](const discovery::DiscoveryReport& report) { done.set_value(report); });
    });
    std::future<discovery::DiscoveryReport> pending = done.get_future();
    std::optional<discovery::DiscoveryReport> result;
    if (pending.wait_for(std::chrono::seconds(30)) == std::future_status::ready) {
        result = pending.get();
    }
    std::string trace;  // the run's span timeline, when it was sampled
    home.call([&] {
        if (result && obs.recorder() != nullptr && client->trace_context().sampled()) {
            trace = obs.recorder()->to_json(client->trace_context().trace_id);
        }
        client.reset();
    });
    if (!result) {
        std::printf("[%s] discovery timed out\n", name.c_str());
        return 1;
    }
    if (!result->success) {
        std::printf("[%s] discovery failed (%u retransmits, multicast=%d)\n", name.c_str(),
                    result->retransmits, result->used_multicast);
        return 1;
    }
    const auto* chosen = result->selected_candidate();
    std::printf("[%s] %zu candidates in %.2f ms\n", name.c_str(), result->candidates.size(),
                to_ms(result->total_duration));
    for (const auto& candidate : result->candidates) {
        std::printf("    %-28s est %7.3f ms  ping %7.3f ms  score %8.2f\n",
                    candidate.response.broker_name.c_str(), to_ms(candidate.estimated_delay),
                    candidate.ping_rtt < 0 ? -1.0 : to_ms(candidate.ping_rtt),
                    candidate.score);
    }
    std::printf("[%s] selected %s at 127.0.0.1:%u\n", name.c_str(),
                chosen->response.broker_name.c_str(), chosen->response.endpoint.port);
    if (!trace.empty()) std::printf("NARADA_TRACE %s\n", trace.c_str());
    home.call([&] { obs.print_metrics(); });
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::printf("usage: %s <config.ini>\n", argv[0]);
        return 2;
    }
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    try {
        const config::Ini ini = config::Ini::parse_file(argv[1]);
        const std::string role = ini.get_or("node", "role", "");
        const auto port = static_cast<std::uint16_t>(ini.get_int("node", "port", 0));
        const std::string name = ini.get_or("node", "name", role + "@" + std::to_string(port));
        const std::string realm = ini.get_or("node", "realm", "loopback");
        const std::int64_t run_for_ms = ini.get_int("node", "run_for_ms", 0);
        if (port == 0) {
            std::printf("config error: [node] port is required\n");
            return 2;
        }
        const config::ObsConfig obs_cfg = config::ObsConfig::from_ini(ini);
        ObsPlane obs(obs_cfg);
        const config::TransportConfig tcfg = config::TransportConfig::from_ini(ini);
        transport::ShardRuntimeOptions topt;
        topt.pin_cpus = tcfg.pin_cpus;
        topt.transport.udp_batch = tcfg.udp_batch;
        topt.transport.pool_buffers = tcfg.pool_buffers;
        topt.transport.udp_sockbuf = tcfg.udp_sockbuf;
        topt.transport.udp_gso = tcfg.udp_gso;
        transport::ShardRuntime transport(topt);
        // Before any bind: the reactor threads read the instrument
        // pointers unsynchronized once sockets are live.
        transport.set_observability(obs.registry(), name);
        const Endpoint endpoint{0, port};  // host label 0: cross-process convention
        SecurityPlane sec(ini, name);
        transport::ShardPort& home = transport.port(0);
        if (role == "broker") {
            return run_broker(ini, home, endpoint, name, realm, run_for_ms, obs, sec);
        }
        if (role == "bdn") {
            return run_bdn(ini, home, endpoint, name, run_for_ms, obs, sec);
        }
        if (role == "client") {
            return run_client(ini, home, endpoint, name, realm, obs_cfg, obs, sec);
        }
        std::printf("config error: [node] role must be broker, bdn or client\n");
        return 2;
    } catch (const std::exception& e) {
        std::printf("error: %s\n", e.what());
        return 1;
    }
}
