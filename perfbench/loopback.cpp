// Loopback workloads: the discovery plane over real sockets.
//
// One process, one ShardRuntime reactor (1 shard, the narada_node default),
// one BDN, eight brokers in a star and four discovery clients, all bound on
// 127.0.0.1. A generator thread, pinned with the reactor to one CPU, paces
// discoveries as an open loop at a fixed rate: each discovery is due at a
// fixed time, is handed to the reactor then, waits if its client is still
// busy, and is timed from its due time to broker selection. Periodic work
// (BDN distance refresh, re-advertisement, peer heartbeats, rekey) runs on
// periods that divide a second, so every measured window holds the same
// number of each. See NOTES.md for the choices.
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <ctime>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "broker/broker.hpp"
#include "common/stats.hpp"
#include "crypto/certificate.hpp"
#include "crypto/rsa.hpp"
#include "discovery/bdn.hpp"
#include "discovery/broker_plugin.hpp"
#include "discovery/client.hpp"
#include "discovery/security.hpp"
#include "obs/metrics.hpp"
#include "traced.hpp"
#include "transport/posix_transport.hpp"
#include "transport/shard_runtime.hpp"
#include "wire/msg_types.hpp"

namespace perfbench {
namespace {

using namespace narada;

constexpr std::size_t kBrokers = 8;
constexpr std::size_t kClients = 4;
constexpr double kLeadInSeconds = 1.0;
/// Longest a discovery can take without loss: response window + ping window.
constexpr auto kDrainLimit = std::chrono::milliseconds(3500);

struct Spec {
    int setup_repeats;            ///< setups per run; setup_s is their median
    double read_rate;             ///< discoveries per second
    std::size_t sealed_clients;   ///< clients sealing their requests to the BDN
    std::size_t synthetic_ads;    ///< extra registry entries at the BDN
    double write_rate;            ///< ad-renewal datagrams per second
    DurationUs refresh_interval;  ///< BDN distance refresh
    DurationUs rekey_interval;    ///< session rekey (sealed clients)
};

// Re-advertisement and peer heartbeats run twice a second on both
// workloads: many per window, never 0-or-1.
constexpr DurationUs kAdvertiseInterval = from_ms(500);
constexpr DurationUs kHeartbeatInterval = from_ms(500);
/// Periods that must land no time in a window.
constexpr DurationUs kNever = 3600 * kSecond;

/// The one CPU the reactor and the generator thread share: the last this
/// process may run on, or -1 when it cannot be read. On a shared CPU the
/// generator is late exactly when the host stalls the reactor too, which
/// is what marks a starved slice (see kStarvedLatenessUs); and the
/// scheduler cannot move either thread between runs or within one.
int bench_cpu() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (CPU_ISSET(cpu, &set)) return cpu;
    }
    return -1;
}

// 1 000/s keeps the reactor about a third busy: at 2 000/s (about 70 %)
// every multi-millisecond host stall queues work that takes twice as long
// again to drain, and p90 swung from 0.45 to 7.5 ms between identical runs.
constexpr Spec kStarPlain{.setup_repeats = 15,
                          .read_rate = 1000.0,
                          .sealed_clients = 0,
                          .synthetic_ads = 0,
                          .write_rate = 0.0,
                          .refresh_interval = from_ms(250),
                          .rekey_interval = kNever};
// No distance refresh: one would ping all 2 008 entries at once. The two
// sealed clients rekey together every 5 s. Each handshake holds the reactor
// for tens of milliseconds; at 1 000/s (about 60 % busy) the discoveries
// queued behind it could keep all four clients busy until the backlog grew
// for seconds, so reads run at 500/s (about 35 % busy).
constexpr Spec kRegistrySealed{.setup_repeats = 3,
                               .read_rate = 500.0,
                               .sealed_clients = 2,
                               .synthetic_ads = 2000,
                               .write_rate = 1000.0,
                               .refresh_interval = kNever,
                               .rekey_interval = 5 * kSecond};

/// Run `fn` on the reactor thread and wait for it; rethrows its exception.
template <class F>
void on_reactor(transport::ShardRuntime& rt, F&& fn) {
    struct Call {
        F* fn;
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        std::exception_ptr error;
    } call{&fn, {}, {}, false, nullptr};
    rt.run_on(0, [](void* p) {
        auto* c = static_cast<Call*>(p);
        try {
            (*c->fn)();
        } catch (...) {
            c->error = std::current_exception();
        }
        std::scoped_lock lock(c->m);
        c->done = true;
        c->cv.notify_all();
    }, &call);
    std::unique_lock lock(call.m);
    call.cv.wait(lock, [&call] { return call.done; });
    if (call.error) std::rethrow_exception(call.error);
}

/// Block until `pred` holds on the reactor thread. The predicate is checked
/// there after every reactor timer tick (1 ms), so it reads node state
/// without racing the datapath; this thread sleeps on a condition variable.
void await_on_reactor(transport::ShardRuntime& rt, std::function<bool()> pred,
                      const char* what) {
    struct Wait {
        transport::ShardRuntime* rt;
        std::function<bool()> pred;
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        bool abandoned = false;
        static void check(const std::shared_ptr<Wait>& w) {
            {
                std::scoped_lock lock(w->m);
                if (w->abandoned) return;
            }
            if (w->pred()) {
                std::scoped_lock lock(w->m);
                w->done = true;
                w->cv.notify_all();
                return;
            }
            w->rt->schedule(from_ms(1), [w] { check(w); });
        }
    };
    auto wait = std::make_shared<Wait>();
    wait->rt = &rt;
    wait->pred = std::move(pred);
    rt.schedule(0, [wait] { Wait::check(wait); });
    std::unique_lock lock(wait->m);
    if (!wait->cv.wait_for(lock, std::chrono::seconds(20), [&] { return wait->done; })) {
        wait->abandoned = true;
        throw std::runtime_error(std::string("setup timed out waiting for ") + what);
    }
}

/// Seeded demo PKI for the sealed workload: a CA, the BDN and one identity
/// per sealing client, 1024-bit keys like narada_node's.
struct Pki {
    crypto::Certificate root;
    crypto::RsaKeyPair bdn_keys;
    crypto::Certificate bdn_leaf;
    std::vector<crypto::RsaKeyPair> client_keys;
    std::vector<crypto::Certificate> client_leaves;

    Pki(std::uint64_t seed, std::size_t clients, TimeUs now) {
        Rng rng(seed ^ 0x706B69ull);
        const TimeUs from = now - 60 * kSecond;
        const TimeUs to = now + 24 * 3600 * kSecond;
        const crypto::RsaKeyPair ca = crypto::rsa_generate(rng, 1024);
        root = crypto::make_self_signed("bench-ca", ca, from, to, 1);
        bdn_keys = crypto::rsa_generate(rng, 1024);
        bdn_leaf = crypto::issue_certificate("bdn", bdn_keys.public_key, "bench-ca",
                                             ca.private_key, from, to, 2);
        for (std::size_t i = 0; i < clients; ++i) {
            client_keys.push_back(crypto::rsa_generate(rng, 1024));
            client_leaves.push_back(crypto::issue_certificate(
                client_name(i), client_keys.back().public_key, "bench-ca", ca.private_key,
                from, to, 3 + i));
        }
    }

    static std::string client_name(std::size_t i) { return "client-" + std::to_string(i); }
};

struct Sink final : transport::MessageHandler {
    void on_datagram(const Endpoint&, const Bytes&) override {}
};

/// The assembled plane. Nodes are built on the calling thread (binding is
/// thread-safe), started and torn down on the reactor thread.
class Plane {
public:
    Plane(const Spec& spec, std::uint64_t seed, bool traced)
        : spec_(spec), runtime_(runtime_options()), sec_rng_(seed ^ 0x736563ull) {
        if (traced) {
            // Before any bind: the reactor reads the instrument pointers
            // unsynchronized once sockets are live.
            runtime_.set_observability(&registry_, "bench");
            tracer_ = std::make_unique<Tracer>(runtime_);
            tracer_->lateness_us.reserve(1 << 20);
        }
        // Below the ephemeral range, spread by pid so concurrent runs rarely probe
        // the same ports.
        port_ = static_cast<std::uint16_t>(20000 + (getpid() % 400) * 25);
        try {
            build(seed);
        } catch (...) {
            shutdown();  // no callback may outlive a failed setup
            throw;
        }
    }

    ~Plane() { shutdown(); }

    /// Destroy every node on the reactor thread, so no callback can reach
    /// a node (or the load that drives it) after this returns. Two steps:
    /// a BDN injection is a zero-delay timer that captures the BDN and that
    /// its destructor does not cancel. With the clients gone and the BDN
    /// unbound no injection can start, and the pending ones run before the
    /// second step destroys the BDN.
    void shutdown() {
        on_reactor(runtime_, [this] {
            clients_.clear();
            if (bdn_) runtime_.unbind(bdn_->endpoint());
        });
        on_reactor(runtime_, [this] {
            brokers_.clear();
            plugins_.clear();
            bdn_.reset();
            if (renewer_.port != 0) runtime_.unbind(renewer_);
            renewer_ = {};
        });
    }

    Plane(const Plane&) = delete;
    Plane& operator=(const Plane&) = delete;

    transport::ShardRuntime& runtime() { return runtime_; }
    Tracer* tracer() { return tracer_.get(); }
    obs::MetricsRegistry& registry() { return registry_; }
    discovery::Bdn& bdn() { return *bdn_; }
    discovery::DiscoveryClient& client(std::size_t i) { return *clients_[i]; }
    const std::set<Endpoint>& live_brokers() const { return live_; }
    const std::vector<std::unique_ptr<broker::Broker>>& brokers() const { return brokers_; }
    std::vector<discovery::SecurityContext*> security_contexts() {
        std::vector<discovery::SecurityContext*> out;
        if (bdn_sec_) out.push_back(&*bdn_sec_);
        for (const auto& c : client_sec_) out.push_back(c.get());
        return out;
    }
    const Endpoint& renewer() const { return renewer_; }
    const std::vector<Bytes>& renewals() const { return renewals_; }

private:
    static transport::ShardRuntimeOptions runtime_options() {
        transport::ShardRuntimeOptions options;  // narada_node's [transport] defaults
        options.shards = 1;
        if (const int cpu = bench_cpu(); cpu >= 0) options.pin_cpus = {cpu};
        return options;
    }

    Endpoint next_port() {
        port_ = transport::PosixTransport::find_free_port(port_);
        const Endpoint ep{0, port_};
        ++port_;
        return ep;
    }

    /// What a node is built on: the runtime itself, or in traced runs a
    /// decorator over it.
    struct Io {
        Scheduler& scheduler;
        transport::Transport& transport;
    };
    Io io_for(Role role) {
        if (!tracer_) return {runtime_, runtime_};
        nodes_.push_back(std::make_unique<TracedNode>(runtime_, *tracer_, role));
        return {*nodes_.back(), *nodes_.back()};
    }

    void build(std::uint64_t seed) {
        // --- keys (sealed workload) -------------------------------------------
        if (spec_.sealed_clients > 0) {
            pki_.emplace(seed, spec_.sealed_clients, wall_.now());
            config::SecurityConfig sec;
            sec.mode = config::SecurityConfig::Mode::kSeal;
            sec.rekey_interval = spec_.rekey_interval;
            bdn_sec_.emplace("bdn", pki_->bdn_keys,
                             std::vector<crypto::Certificate>{pki_->bdn_leaf, pki_->root},
                             std::vector<crypto::Certificate>{pki_->root}, sec, wall_,
                             sec_rng_);
            for (std::size_t i = 0; i < spec_.sealed_clients; ++i) {
                client_sec_.push_back(std::make_unique<discovery::SecurityContext>(
                    Pki::client_name(i), pki_->client_keys[i],
                    std::vector<crypto::Certificate>{pki_->client_leaves[i], pki_->root},
                    std::vector<crypto::Certificate>{pki_->root}, sec, wall_, sec_rng_));
            }
        }

        // --- BDN ----------------------------------------------------------------
        const Endpoint bdn_ep = next_port();
        config::BdnConfig bdn_cfg;
        bdn_cfg.injection_spacing = 0;
        bdn_cfg.ping_refresh_interval = spec_.refresh_interval;
        const Io bdn_io = io_for(Role::kBdn);
        bdn_ = std::make_unique<discovery::Bdn>(bdn_io.scheduler, bdn_io.transport, bdn_ep,
                                                wall_, bdn_cfg, "bdn");
        if (bdn_sec_) bdn_->set_security(&*bdn_sec_);

        // --- brokers: a star around broker 0 ------------------------------------
        config::BrokerConfig broker_cfg;
        broker_cfg.advertise_bdns = {bdn_ep};
        broker_cfg.processing_delay = 0;
        broker_cfg.advertise_interval = kAdvertiseInterval;
        broker_cfg.peer_heartbeat_interval = kHeartbeatInterval;
        for (std::size_t i = 0; i < kBrokers; ++i) {
            const Endpoint ep = next_port();
            const Io io = io_for(Role::kBroker);
            auto node = std::make_unique<broker::Broker>(io.scheduler, io.transport, ep, wall_,
                                                         utc_, broker_cfg,
                                                         "broker-" + std::to_string(i));
            discovery::BrokerIdentity identity;
            identity.hostname = "127.0.0.1:" + std::to_string(ep.port);
            identity.realm = "loopback";
            auto plugin = std::make_unique<discovery::BrokerDiscoveryPlugin>(identity);
            node->add_plugin(plugin.get());
            live_.insert(ep);
            plugins_.push_back(std::move(plugin));
            brokers_.push_back(std::move(node));
        }

        // --- clients ------------------------------------------------------------
        config::DiscoveryConfig client_cfg;
        client_cfg.bdns = {bdn_ep};
        client_cfg.max_responses = kBrokers;
        client_cfg.target_set_size = kBrokers;
        // Windows long enough to fire only on loss.
        client_cfg.response_window = 2 * kSecond;
        client_cfg.retransmit_interval = kSecond;
        client_cfg.ping_window = kSecond;
        for (std::size_t i = 0; i < kClients; ++i) {
            const Io io = io_for(Role::kClient);
            clients_.push_back(std::make_unique<discovery::DiscoveryClient>(
                io.scheduler, io.transport, next_port(), wall_, utc_, client_cfg,
                "client-" + std::to_string(i), "loopback"));
        }
        // The first `sealed_clients` clients seal toward the BDN.
        for (std::size_t i = 0; i < client_sec_.size(); ++i) {
            client_sec_[i]->add_peer_key("bdn", pki_->bdn_keys.public_key);
            client_sec_[i]->map_endpoint(bdn_ep, "bdn");
            clients_[i]->set_security(client_sec_[i].get());
        }

        // --- synthetic registry: ads whose endpoints are the live brokers -------
        renewer_ = next_port();
        runtime_.bind(renewer_, &sink_);
        Rng ad_rng(seed ^ 0x616473ull);
        const std::vector<Endpoint> live(live_.begin(), live_.end());
        for (std::size_t i = 0; i < spec_.synthetic_ads; ++i) {
            discovery::BrokerAdvertisement ad;
            ad.broker_id = Uuid::random(ad_rng);
            ad.broker_name = "synthetic-" + std::to_string(i);
            ad.endpoint = live[i % live.size()];
            ad.hostname = "127.0.0.1:" + std::to_string(ad.endpoint.port);
            ad.protocols = {"tcp", "udp"};
            ad.realm = "loopback";
            wire::ByteWriter w;
            w.u8(wire::kMsgBrokerAdvertisement);
            ad.encode(w);
            renewals_.push_back(w.take());
        }

        // --- start and wait for the plane ---------------------------------------
        on_reactor(runtime_, [this] {
            bdn_->start();
            for (std::size_t i = 1; i < kBrokers; ++i) {
                brokers_[i]->connect_to_peer(brokers_[0]->endpoint());
            }
            for (auto& b : brokers_) b->start();
        });
        await_on_reactor(runtime_, [this] {
            if (bdn_->registered_count() != kBrokers) return false;
            if (brokers_[0]->established_peer_count() != kBrokers - 1) return false;
            for (const auto& rb : bdn_->registry()) {
                if (rb.rtt < 0) return false;  // distance table measured
            }
            return true;
        }, "registration and peer links");
        // The synthetic fill arrives the way renewals do, as ad datagrams, in
        // chunks small enough for the BDN's socket buffer.
        constexpr std::size_t kFillChunk = 250;
        for (std::size_t done = 0; done < renewals_.size();) {
            const std::size_t end = std::min(done + kFillChunk, renewals_.size());
            for (; done < end; ++done) runtime_.send_datagram(renewer_, bdn_ep, renewals_[done]);
            await_on_reactor(runtime_, [this, end] {
                return bdn_->registered_count() == kBrokers + end;
            }, "the synthetic registry fill");
        }
        await_on_reactor(runtime_, [this] {
            return bdn_->stats().pongs_received >= bdn_->stats().pings_sent;
        }, "distance pings to the synthetic entries");

        // Warm-up: one discovery per client primes connections, pools and
        // (sealed clients) the session with the BDN.
        struct Warm {
            std::mutex m;
            std::condition_variable cv;
            std::size_t done = 0;
            std::size_t good = 0;
        } warm;
        on_reactor(runtime_, [this, &warm] {
            for (auto& c : clients_) {
                c->discover([&warm](const discovery::DiscoveryReport& r) {
                    std::scoped_lock lock(warm.m);
                    ++warm.done;
                    if (r.success && r.candidates.size() == kBrokers) ++warm.good;
                    warm.cv.notify_all();
                });
            }
        });
        std::unique_lock lock(warm.m);
        if (!warm.cv.wait_for(lock, std::chrono::seconds(10),
                              [&] { return warm.done == kClients; }) ||
            warm.good != kClients) {
            throw std::runtime_error("warm-up discoveries did not reach every broker");
        }
    }

    const Spec& spec_;
    WallClock wall_;
    timesvc::FixedUtcSource utc_{wall_};
    obs::MetricsRegistry registry_;
    // The runtime outlives every node, decorator and handler below.
    transport::ShardRuntime runtime_;
    std::unique_ptr<Tracer> tracer_;
    std::vector<std::unique_ptr<TracedNode>> nodes_;
    Rng sec_rng_;
    std::optional<Pki> pki_;
    std::optional<discovery::SecurityContext> bdn_sec_;
    std::vector<std::unique_ptr<discovery::SecurityContext>> client_sec_;
    std::uint16_t port_ = 0;
    std::unique_ptr<discovery::Bdn> bdn_;
    std::vector<std::unique_ptr<discovery::BrokerDiscoveryPlugin>> plugins_;
    std::vector<std::unique_ptr<broker::Broker>> brokers_;
    std::vector<std::unique_ptr<discovery::DiscoveryClient>> clients_;
    std::set<Endpoint> live_;
    Sink sink_;
    Endpoint renewer_;
    std::vector<Bytes> renewals_;
};

// --- the open loop --------------------------------------------------------------

struct Job {
    class Load* load = nullptr;
    std::int64_t due_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t client = 0;
    enum : std::uint8_t { kQueued, kRunning, kOk, kFailed } state = kQueued;
    bool live_selected = false;
    std::uint8_t retransmits = 0;
    std::uint8_t candidates = 0;
    float ack_ms = -1, first_ms = -1, collect_ms = 0, scoring_us = 0, ping_ms = 0;
};

/// Reactor-side state captured at a window boundary.
struct Marker {
    std::int64_t at_ns = 0;
    double reactor_cpu_s = 0;
    Ledger ledger;
    discovery::Bdn::Stats bdn;
    std::vector<discovery::SecurityContext::Stats> security;
    std::uint64_t broker_ingested = 0, broker_duplicates = 0;
    std::uint64_t syscalls = 0, frames_in = 0, bytes_in = 0, eagain = 0, backlog_drops = 0;
    std::uint64_t recv_batch_count = 0;
    double recv_batch_sum = 0;
};

class Load {
public:
    Load(Plane& plane, const Spec& spec, int window_s)
        : plane_(plane), spec_(spec), window_s_(window_s) {
        const std::size_t lead = static_cast<std::size_t>(kLeadInSeconds * spec.read_rate);
        const std::size_t window = static_cast<std::size_t>(window_s * spec.read_rate);
        jobs.resize(lead + window);
        lead_jobs = lead;
        gen_lateness_us.reserve(jobs.size());
    }

    void run();

    // Results (valid after run()).
    std::vector<Job> jobs;
    std::size_t lead_jobs = 0;
    std::int64_t t0_ns = 0, t1_ns = 0;
    /// Process and generator-thread CPU seconds at each whole second of
    /// the window, edges included.
    struct CpuSample {
        double process = 0;
        double generator = 0;
    };
    std::vector<CpuSample> cpu_at_second;
    std::vector<double> gen_lateness_us;  ///< window discoveries
    Marker start_marker, end_marker;      ///< reactor-side window edges
    std::size_t backlog_end = 0;

private:
    struct Slot {
        bool busy = false;
        std::deque<Job*> pending;
    };

    static void on_due(void* arg) {
        Job& job = *static_cast<Job*>(arg);
        job.load->due(job);
    }
    static void on_marker(void* arg) {
        auto* m = static_cast<std::pair<Load*, Marker*>*>(arg);
        m->first->mark(*m->second);
    }

    void due(Job& job) {
        Tracer* t = plane_.tracer();
        const Tracer::Frame frame = t ? t->enter() : Tracer::Frame{};
        Slot& slot = slots_[job.client];
        if (slot.busy) {
            slot.pending.push_back(&job);
        } else {
            start(job);
        }
        if (t) t->leave(frame, t->ledger.harness);
    }

    void start(Job& job) {
        slots_[job.client].busy = true;
        job.state = Job::kRunning;
        Tracer* t = plane_.tracer();
        const Tracer::Frame frame = t ? t->enter() : Tracer::Frame{};
        plane_.client(job.client).discover(
            [this, &job](const discovery::DiscoveryReport& r) { done(job, r); });
        if (t) t->leave(frame, t->ledger.client_start);
    }

    void done(Job& job, const discovery::DiscoveryReport& r) {
        Tracer* t = plane_.tracer();
        const Tracer::Frame frame = t ? t->enter() : Tracer::Frame{};
        job.end_ns = now_ns();
        job.state = r.success ? Job::kOk : Job::kFailed;
        const discovery::Candidate* chosen = r.selected_candidate();
        job.live_selected =
            chosen != nullptr && plane_.live_brokers().contains(chosen->response.endpoint);
        job.retransmits = static_cast<std::uint8_t>(std::min<std::uint32_t>(r.retransmits, 255));
        job.candidates = static_cast<std::uint8_t>(std::min<std::size_t>(r.candidates.size(), 255));
        job.ack_ms = static_cast<float>(to_ms(r.time_to_ack));
        job.first_ms = static_cast<float>(to_ms(r.time_to_first_response));
        job.collect_ms = static_cast<float>(to_ms(r.collection_duration));
        job.scoring_us = static_cast<float>(r.scoring_duration);
        job.ping_ms = static_cast<float>(to_ms(r.ping_duration));
        Slot& slot = slots_[job.client];
        slot.busy = false;
        if (!slot.pending.empty()) {
            Job* next = slot.pending.front();
            slot.pending.pop_front();
            start(*next);
        }
        if (++completed_ == jobs.size()) {
            std::scoped_lock lock(drain_m_);
            drained_ = true;
            drain_cv_.notify_all();
        }
        if (t) t->leave(frame, t->ledger.harness);
    }

    void mark(Marker& m) {
        m.at_ns = now_ns();
        m.reactor_cpu_s = thread_cpu_s();
        if (Tracer* t = plane_.tracer()) m.ledger = t->ledger;
        m.bdn = plane_.bdn().stats();
        for (const auto* sec : plane_.security_contexts()) m.security.push_back(sec->stats());
        for (const auto& b : plane_.brokers()) {
            m.broker_ingested += b->stats().events_ingested;
            m.broker_duplicates += b->stats().duplicates_suppressed;
        }
        if (plane_.tracer() != nullptr) {
            obs::MetricsRegistry& reg = plane_.registry();
            const std::string node = "bench#0";
            m.syscalls = reg.counter("transport_syscalls_recv", node).value() +
                         reg.counter("transport_syscalls_send", node).value();
            m.frames_in = reg.counter("transport_frames_in", node).value();
            m.bytes_in = reg.counter("transport_bytes_in", node).value();
            m.eagain = reg.counter("transport_eagain_stalls", node).value();
            m.backlog_drops = reg.counter("transport_udp_backlog_dropped", node).value();
            const auto snap =
                reg.histogram("transport_recv_batch", node, obs::batch_buckets()).snapshot();
            m.recv_batch_count = snap.count;
            m.recv_batch_sum = snap.sum;
        }
    }

    void generate();

    Plane& plane_;
    const Spec& spec_;
    int window_s_;
    Slot slots_[kClients];
    std::pair<Load*, Marker*> start_arg_{this, &start_marker};
    std::pair<Load*, Marker*> end_arg_{this, &end_marker};
    std::size_t completed_ = 0;  ///< reactor thread only
    std::mutex drain_m_;
    std::condition_variable drain_cv_;
    bool drained_ = false;
};

void Load::generate() {
    // Pace from this thread, not from reactor timers (which round every wait
    // up to a whole millisecond); a 1 ns timer slack keeps sleeps tight.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    if (const int cpu = bench_cpu(); cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }
    transport::ShardRuntime& rt = plane_.runtime();
    const std::int64_t read_period = static_cast<std::int64_t>(1e9 / spec_.read_rate);
    const std::int64_t write_period =
        spec_.write_rate > 0 ? static_cast<std::int64_t>(1e9 / spec_.write_rate) : 0;
    const std::int64_t base = now_ns() + 2'000'000;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        jobs[k].load = this;
        jobs[k].due_ns = base + static_cast<std::int64_t>(k) * read_period;
        jobs[k].client = static_cast<std::uint32_t>(k % kClients);
    }
    t0_ns = base + static_cast<std::int64_t>(lead_jobs) * read_period;
    t1_ns = t0_ns + static_cast<std::int64_t>(window_s_) * 1'000'000'000;

    const std::vector<Bytes>& renewals = plane_.renewals();
    const Endpoint bdn_ep = plane_.bdn().endpoint();
    int next_second = 0;
    std::size_t next_read = 0;
    std::size_t next_write = 0;
    const auto write_due = [&] { return base + static_cast<std::int64_t>(next_write) * write_period; };
    while (true) {
        const std::int64_t boundary = next_second <= window_s_
                                          ? t0_ns + std::int64_t{next_second} * 1'000'000'000
                                          : INT64_MAX;
        const std::int64_t read_due = next_read < jobs.size() ? jobs[next_read].due_ns : INT64_MAX;
        const std::int64_t w_due =
            write_period > 0 && write_due() < t1_ns ? write_due() : INT64_MAX;
        const std::int64_t next = std::min({boundary, read_due, w_due});
        if (next == INT64_MAX) break;
        const std::int64_t now = now_ns();
        if (next > now) {
            timespec ts{static_cast<time_t>(next / 1'000'000'000),
                        static_cast<long>(next % 1'000'000'000)};
            clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
            continue;
        }
        if (next == boundary) {
            cpu_at_second.push_back({process_cpu_s(), thread_cpu_s()});
            if (next_second == 0) rt.run_on(0, &Load::on_marker, &start_arg_);
            if (next_second == window_s_) rt.run_on(0, &Load::on_marker, &end_arg_);
            ++next_second;
        } else if (next == read_due) {
            Job& job = jobs[next_read++];
            if (job.due_ns >= t0_ns) gen_lateness_us.push_back(static_cast<double>(now - job.due_ns) / 1e3);
            rt.run_on(0, &Load::on_due, &job);
        } else {
            rt.send_datagram(plane_.renewer(), bdn_ep, renewals[next_write % renewals.size()]);
            ++next_write;
        }
    }
}

void Load::run() {
    std::thread generator([this] { generate(); });
    generator.join();
    {
        std::unique_lock lock(drain_m_);
        drain_cv_.wait_for(lock, kDrainLimit, [this] { return drained_; });
    }
    // Barrier: every dispatch task posted before it has run once it returns.
    on_reactor(plane_.runtime(), [this] { backlog_end = jobs.size() - completed_; });
}

// --- metrics ------------------------------------------------------------------

/// A 1-second slice in which the generator handed more than a tenth of its
/// discoveries over later than this is one in which the host starved the
/// process: normally the generator's p90 lateness is about 50 us, also
/// while the reactor it shares a CPU with runs a 30 ms RSA operation. The
/// generator never waits for the reactor; a host that stops their CPU
/// stalls both.
constexpr double kStarvedLatenessUs = 500.0;

struct WindowStats {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    SampleSet latency_ms;  ///< every successful discovery due in the window
    /// Medians over the window's 1-second slices, each slice's discoveries
    /// by due time (latency) or completion time (CPU). A burst of host
    /// stalls then moves a few slices, not the figure. Starved slices are
    /// left out while at least a sixth of the window is not starved.
    double p50_ms = 0;
    double p90_ms = 0;
    double cpu_us_per_discovery = 0;
    std::vector<double> slice_p90_ms, slice_cpu_us;
    std::vector<bool> slice_starved;
    std::size_t starved_slices = 0;
};

WindowStats window_stats(const Load& load, Result& result) {
    WindowStats w;
    const std::size_t seconds = load.cpu_at_second.size() - 1;
    std::vector<SampleSet> slice_latency(seconds);
    std::vector<double> slice_done(seconds, 0.0);
    std::vector<double> slice_due(seconds, 0.0), slice_late(seconds, 0.0);
    const auto slice_of = [&](std::int64_t t) {
        return t < load.t0_ns ? seconds
                              : static_cast<std::size_t>((t - load.t0_ns) / 1'000'000'000);
    };
    for (std::size_t k = load.lead_jobs; k < load.jobs.size(); ++k) {
        const Job& job = load.jobs[k];
        const std::size_t slice = slice_of(job.due_ns);
        slice_due[slice] += 1;
        if (load.gen_lateness_us[k - load.lead_jobs] > kStarvedLatenessUs) slice_late[slice] += 1;
        ++w.attempted;
        if (job.state != Job::kOk) {
            ++w.failed;
            continue;
        }
        const double ms = static_cast<double>(job.end_ns - job.due_ns) / 1e6;
        w.latency_ms.add(ms);
        slice_latency[slice].add(ms);
    }
    for (const Job& job : load.jobs) {
        if (job.state == Job::kOk && !job.live_selected) {
            result.check(false, "a discovery selected a broker that is not live");
            break;
        }
        if (job.state >= Job::kOk && slice_of(job.end_ns) < seconds) {
            slice_done[slice_of(job.end_ns)] += 1;
        }
    }
    for (std::size_t i = 0; i < seconds; ++i) {
        const auto& a = load.cpu_at_second[i];
        const auto& b = load.cpu_at_second[i + 1];
        w.slice_p90_ms.push_back(slice_latency[i].percentile(90));
        w.slice_cpu_us.push_back(ratio(
            ((b.process - a.process) - (b.generator - a.generator)) * 1e6, slice_done[i]));
        w.slice_starved.push_back(slice_late[i] * 10 > slice_due[i]);
        if (w.slice_starved.back()) ++w.starved_slices;
    }
    const bool skip_starved = (seconds - w.starved_slices) * 6 >= seconds;
    SampleSet p50, p90, cpu;
    for (std::size_t i = 0; i < seconds; ++i) {
        if (skip_starved && w.slice_starved[i]) continue;
        p50.add(slice_latency[i].percentile(50));
        p90.add(w.slice_p90_ms[i]);
        cpu.add(w.slice_cpu_us[i]);
    }
    w.p50_ms = p50.median();
    w.p90_ms = p90.median();
    w.cpu_us_per_discovery = cpu.median();
    return w;
}

void check_security(Plane& plane, Result& result) {
    on_reactor(plane.runtime(), [&] {
        result.check(plane.bdn().stats().secure_open_failures == 0,
                     "the BDN rejected a secure envelope");
        for (const auto* sec : plane.security_contexts()) {
            result.check(sec->stats().open_errors == 0 && sec->stats().verify_failures == 0,
                         "security context " + sec->identity() + " saw open/verify errors");
        }
    });
}

/// One measured window on `plane`: drive the load, run the output checks,
/// tear the plane down (no discovery still running may touch the load
/// while it is counted) and count.
struct Measured {
    std::unique_ptr<Load> load;
    WindowStats window;
};

Measured measure(Plane& plane, const Spec& spec, int seconds, Result& result) {
    Measured m{std::make_unique<Load>(plane, spec, seconds), {}};
    m.load->run();
    check_security(plane, result);
    plane.shutdown();
    m.window = window_stats(*m.load, result);
    result.attempted = m.window.attempted;
    result.failed = m.window.failed;
    return m;
}

void end_to_end(const Spec& spec, const Args& args, Result& result) {
    std::vector<double> setups;
    std::unique_ptr<Plane> plane;
    for (int i = 0; i < spec.setup_repeats; ++i) {
        plane.reset();
        const std::int64_t t = now_ns();
        plane = std::make_unique<Plane>(spec, args.seed, /*traced=*/false);
        setups.push_back(static_cast<double>(now_ns() - t) / 1e9);
    }
    const double setup_rss_mb = peak_rss_mb();
    const Measured m = measure(*plane, spec, args.seconds, result);
    const WindowStats& w = m.window;
    result.set("latency_p50_ms", w.p50_ms, "ms");
    result.set("latency_p90_ms", w.p90_ms, "ms");
    result.set("cpu_us_per_discovery", w.cpu_us_per_discovery, "us");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    result.set("setup_s", SampleSet(setups).median(), "s");
    SampleSet lateness(m.load->gen_lateness_us);
    std::printf("diag: window p50=%.3fms p90=%.3fms p99=%.3fms "
                "gen_lateness_p50=%.1fus p90=%.1fus max=%.1fus setup_peak_rss=%.2fMB setups=",
                w.latency_ms.percentile(50), w.latency_ms.percentile(90),
                w.latency_ms.percentile(99), lateness.median(), lateness.percentile(90),
                lateness.max(), setup_rss_mb);
    for (double s : setups) std::printf("%.4f ", s);
    std::printf("\ndiag: starved_slices=%zu slice p90_ms (* starved)=", w.starved_slices);
    for (std::size_t i = 0; i < w.slice_p90_ms.size(); ++i) {
        std::printf("%.3f%s ", w.slice_p90_ms[i], w.slice_starved[i] ? "*" : "");
    }
    std::printf("\ndiag: window percentiles 5..95 ms=");
    for (int q = 5; q <= 95; q += 5) std::printf("%.3f ", w.latency_ms.percentile(q));
    std::printf("\ndiag: slice cpu_us=");
    for (double v : w.slice_cpu_us) std::printf("%.0f ", v);
    std::printf("\n");
}

void per_layer(const Spec& spec, const Args& args, Result& result) {
    // Untraced reference window, then the traced one: the gap is the
    // tracing overhead.
    double untraced_cpu = 0;
    {
        Plane plane(spec, args.seed, /*traced=*/false);
        untraced_cpu =
            measure(plane, spec, args.seconds, result).window.cpu_us_per_discovery;
    }
    Plane plane(spec, args.seed, /*traced=*/true);
    const Measured m = measure(plane, spec, args.seconds, result);
    const Load& load = *m.load;
    const WindowStats& w = m.window;

    const Marker& a = load.start_marker;
    const Marker& b = load.end_marker;
    const Ledger l = b.ledger.minus(a.ledger);
    // Discoveries completed between the two reactor-side markers: the
    // denominator of every per-discovery figure below.
    double d = 0;
    for (const Job& job : load.jobs) {
        if (job.state >= Job::kOk && job.end_ns >= a.at_ns && job.end_ns < b.at_ns) d += 1;
    }
    const double span_s = static_cast<double>(b.at_ns - a.at_ns) / 1e9;
    const double reactor_us = (b.reactor_cpu_s - a.reactor_cpu_s) * 1e6;
    const auto per = [d](double x) { return ratio(x, d); };
    const std::size_t bdn = static_cast<std::size_t>(Role::kBdn);
    const std::size_t brk = static_cast<std::size_t>(Role::kBroker);
    const std::size_t cli = static_cast<std::size_t>(Role::kClient);

    // transport.
    result.set("transport.syscalls_per_discovery", per(static_cast<double>(b.syscalls - a.syscalls)), "count");
    result.set("transport.datagrams_per_discovery", per(static_cast<double>(b.frames_in - a.frames_in)), "count");
    result.set("transport.bytes_per_discovery", per(static_cast<double>(b.bytes_in - a.bytes_in)), "B");
    result.set("transport.recv_batch_mean",
               ratio(b.recv_batch_sum - a.recv_batch_sum,
                     static_cast<double>(b.recv_batch_count - a.recv_batch_count)),
               "count");
    result.set("transport.send_call_us", l.sends.mean_us(), "us");
    result.set("transport.loop_self_us_per_discovery",
               per(reactor_us - static_cast<double>(l.total_self_ns()) / 1e3), "us");
    result.set("transport.reactor_busy_ratio", ratio(reactor_us / 1e6, span_s), "ratio");
    Tracer& tracer = *plane.tracer();
    SampleSet lateness(std::vector<double>(
        tracer.lateness_us.begin() + static_cast<std::ptrdiff_t>(a.ledger.lateness_samples),
        tracer.lateness_us.begin() + static_cast<std::ptrdiff_t>(b.ledger.lateness_samples)));
    result.set("transport.timer_lateness_p50_us", lateness.percentile(50), "us");
    result.set("transport.timer_lateness_p99_us", lateness.percentile(99), "us");
    double timers = 0;
    for (const Span& s : l.timers) timers += static_cast<double>(s.calls);
    result.set("transport.timers_per_discovery", per(timers), "count");
    result.set("transport.eagain_stalls", static_cast<double>(b.eagain - a.eagain), "count");
    result.set("transport.backlog_drops", static_cast<double>(b.backlog_drops - a.backlog_drops), "count");

    // discovery.bdn.
    const Span& plain_req = l.handlers[bdn][wire::kMsgDiscoveryRequest];
    Span session{l.envelopes[bdn][2].calls + l.envelopes[bdn][3].calls,
                 l.envelopes[bdn][2].self_ns + l.envelopes[bdn][3].self_ns};
    result.set("discovery.bdn.request_plain_self_us", plain_req.mean_us(), "us");
    result.set("discovery.bdn.request_sealed_self_us", session.mean_us(), "us");
    result.set("discovery.bdn.ad_self_us", l.handlers[bdn][wire::kMsgBrokerAdvertisement].mean_us(), "us");
    result.set("discovery.bdn.pong_self_us", l.handlers[bdn][wire::kMsgPong].mean_us(), "us");
    const double requests = static_cast<double>(b.bdn.requests_received - a.bdn.requests_received);
    result.set("discovery.bdn.injections_per_request",
               ratio(static_cast<double>(b.bdn.injections - a.bdn.injections), requests), "ratio");
    result.set("discovery.bdn.duplicate_ratio",
               ratio(static_cast<double>(b.bdn.duplicate_requests - a.bdn.duplicate_requests), requests),
               "ratio");
    result.set("discovery.bdn.shed_ratio",
               ratio(static_cast<double>(b.bdn.requests_shed() - a.bdn.requests_shed()), requests),
               "ratio");
    result.set("discovery.bdn.gathers_partial_ratio",
               ratio(static_cast<double>(b.bdn.gathers_partial - a.bdn.gathers_partial),
                     static_cast<double>(b.bdn.gathers - a.bdn.gathers)),
               "ratio");

    // crypto. (the BDN's context is the first one, when present)
    const bool sealed = !a.security.empty();
    const auto sec_delta = [&](auto field) {
        return sealed ? static_cast<double>(field(b.security[0]) - field(a.security[0])) : 0.0;
    };
    using SecStats = discovery::SecurityContext::Stats;
    result.set("crypto.open_extra_us",
               session.calls > 0 ? session.mean_us() - plain_req.mean_us() : 0.0, "us");
    result.set("crypto.handshake_ms", l.envelopes[bdn][1].mean_us() / 1e3, "ms");
    result.set("crypto.handshakes_per_s",
               ratio(sec_delta([](const SecStats& s) { return s.handshakes_accepted; }), span_s), "1/s");
    const double hits = sec_delta([](const SecStats& s) { return s.session_hits; });
    const double misses = sec_delta([](const SecStats& s) { return s.session_misses; });
    result.set("crypto.session_hit_ratio", ratio(hits, hits + misses), "ratio");
    result.set("crypto.memo_hit_ratio",
               ratio(sec_delta([](const SecStats& s) { return s.memo_hits; }),
                     sec_delta([](const SecStats& s) { return s.opens; })),
               "ratio");
    double open_errors = 0;
    for (std::size_t i = 0; i < a.security.size(); ++i) {
        open_errors += static_cast<double>(b.security[i].open_errors - a.security[i].open_errors);
    }
    result.set("crypto.open_errors", open_errors, "count");

    // broker.
    result.set("broker.request_self_us", l.handlers[brk][wire::kMsgDiscoveryRequest].mean_us(), "us");
    result.set("broker.flood_self_us", l.handlers[brk][wire::kMsgEventFlood].mean_us(), "us");
    result.set("broker.ping_self_us", l.handlers[brk][wire::kMsgPing].mean_us(), "us");
    result.set("broker.flood_msgs_per_discovery",
               per(static_cast<double>(l.handlers[brk][wire::kMsgEventFlood].calls)), "count");
    const double ingested = static_cast<double>(b.broker_ingested - a.broker_ingested);
    const double dups = static_cast<double>(b.broker_duplicates - a.broker_duplicates);
    result.set("broker.duplicate_ratio", ratio(dups, ingested + dups), "ratio");

    // discovery.client.
    SampleSet ack, first, collect, scoring, ping, latency;
    double retransmits = 0, candidates = 0, n = 0;
    for (std::size_t k = load.lead_jobs; k < load.jobs.size(); ++k) {
        const Job& job = load.jobs[k];
        if (job.state != Job::kOk) continue;
        ack.add(job.ack_ms);
        first.add(job.first_ms);
        collect.add(job.collect_ms);
        scoring.add(job.scoring_us);
        ping.add(job.ping_ms);
        latency.add(static_cast<double>(job.end_ns - job.due_ns) / 1e6);
        retransmits += job.retransmits;
        candidates += job.candidates;
        n += 1;
    }
    result.set("discovery.client.ack_ms", ack.median(), "ms");
    result.set("discovery.client.first_response_ms", first.median(), "ms");
    result.set("discovery.client.collect_ms", collect.median(), "ms");
    result.set("discovery.client.scoring_us", scoring.median(), "us");
    result.set("discovery.client.ping_ms", ping.median(), "ms");
    result.set("discovery.client.response_self_us", l.handlers[cli][wire::kMsgDiscoveryResponse].mean_us(), "us");
    result.set("discovery.client.pong_self_us", l.handlers[cli][wire::kMsgPong].mean_us(), "us");
    result.set("discovery.client.responses_per_discovery", ratio(candidates, n), "count");
    result.set("discovery.client.retransmits_per_discovery", ratio(retransmits, n), "count");
    result.set("discovery.client.latency_p99_ms", latency.percentile(99), "ms");

    // harness.
    SampleSet gen(load.gen_lateness_us);
    result.set("harness.gen_lateness_p50_us", gen.median(), "us");
    result.set("harness.gen_lateness_max_us", gen.max(), "us");
    result.set("harness.backlog_end", static_cast<double>(load.backlog_end), "count");
    result.set("harness.starved_slices", static_cast<double>(w.starved_slices), "count");
    result.set("harness.trace_overhead_pct",
               100.0 * (ratio(w.cpu_us_per_discovery, untraced_cpu) - 1.0), "%");

    std::printf("diag: reactor_us_per_discovery=%.2f spans_us_per_discovery=%.2f untraced_cpu=%.2f traced_cpu=%.2f\n",
                per(reactor_us), per(static_cast<double>(l.total_self_ns()) / 1e3), untraced_cpu,
                w.cpu_us_per_discovery);
}

Result run_loopback(const Spec& spec, const Args& args) {
    Result result;
    if (args.trace) {
        per_layer(spec, args, result);
    } else {
        end_to_end(spec, args, result);
    }
    return result;
}

}  // namespace

Result run_star_plain(const Args& args) { return run_loopback(kStarPlain, args); }
Result run_registry_sealed(const Args& args) { return run_loopback(kRegistrySealed, args); }

}  // namespace perfbench
