// Struct-of-arrays client swarm.
//
// Simulates 100k-1M discovery clients in one process against the *real*
// broker/BDN plane. A discovery::Client is a fine citizen at tens of nodes
// but costs kilobytes of objects, per-client std::functions and per-client
// kernel timers; the swarm replaces it with packed parallel arrays — one
// byte-or-few field per endpoint — a bucketed hierarchical TimerWheel, and
// a single kernel timer armed at the wheel's next-deadline hint.
//
// The wire shim: one DiscoveryRequest is framed per swarm (a
// discovery::RequestTemplate); each send stamps a copy in a pooled
// transport buffer with the two per-client fields (request UUID, reply-to
// endpoint), so the swarm never sees the request's byte layout. Request
// UUIDs are minted deterministically from (seed, endpoint index, run
// sequence) so response matching recomputes the UUID instead of storing
// it. Responses and acks are parsed with the borrowed views — the steady
// path allocates nothing.
//
// Endpoints live on a handful of aggregate sim hosts, each covering a port
// range bound through SimNetwork::bind_range; NAT-style mobility rebinds a
// client to a fresh port on its host and rediscovers. A shared per-BDN
// breaker (consecutive ack-less attempts trip it; virtual-time cooldown)
// steers the population away from a dead or shedding BDN.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/uuid.hpp"
#include "discovery/messages.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "sim/network.hpp"
#include "swarm/timer_wheel.hpp"

namespace narada::swarm {

/// Discovery behaviour for one population slice (mixed-profile swarms
/// assign different profiles to different cohorts).
struct ClientProfile {
    DurationUs response_deadline = from_ms(2000);  ///< per-attempt response wait
    std::uint32_t max_attempts = 4;                ///< sends per discovery run
    DurationUs backoff_initial = from_ms(500);     ///< after a failed run
    DurationUs backoff_max = 30 * kSecond;
    double backoff_jitter = 0.25;                  ///< uniform +/- fraction
    DurationUs rediscovery_interval = 0;           ///< 0 = keep the broker
};

struct SwarmOptions {
    std::uint32_t capacity = 0;       ///< endpoint slots
    std::vector<Endpoint> bdns;       ///< discovery entry points
    std::string hostname = "swarm";   ///< shared requester hostname
    std::string realm = "swarm";
    std::uint64_t seed = 1;
    std::vector<ClientProfile> profiles{ClientProfile{}};
    std::uint32_t breaker_threshold = 64;          ///< ack-less attempts to trip
    DurationUs breaker_cooldown = 5 * kSecond;
};

/// Plain counters (not atomics): the swarm is single-threaded on the
/// kernel, and plain integers keep the digest byte-deterministic.
struct SwarmCounters {
    std::uint64_t started = 0;          ///< client activations
    std::uint64_t departed = 0;
    std::uint64_t requests_sent = 0;    ///< every request datagram
    std::uint64_t retransmits = 0;      ///< attempts 2..N of a run
    std::uint64_t acks = 0;
    std::uint64_t connects = 0;         ///< accepted responses
    std::uint64_t stale_responses = 0;  ///< wrong/old UUID, detached target
    std::uint64_t shed_suspected = 0;   ///< attempt timed out with no ack
    std::uint64_t failed_runs = 0;      ///< runs that exhausted max_attempts
    std::uint64_t rediscoveries = 0;
    std::uint64_t rebinds = 0;
    std::uint64_t breaker_trips = 0;    ///< shared per-BDN breaker opens
    std::uint64_t misdelivered = 0;     ///< datagram for an unowned port
};

class ClientSwarm final : public sim::RangeHandler {
public:
    ClientSwarm(sim::Kernel& kernel, sim::SimNetwork& network, SwarmOptions options);
    ~ClientSwarm() override;
    ClientSwarm(const ClientSwarm&) = delete;
    ClientSwarm& operator=(const ClientSwarm&) = delete;

    /// Bind the swarm's aggregate hosts: each host serves ports
    /// [port_lo, port_hi] via one range binding. Total port space must
    /// cover `capacity` with headroom for NAT rebinds.
    void attach(const std::vector<HostId>& hosts, std::uint16_t port_lo, std::uint16_t port_hi);

    /// Activate up to `count` detached clients with `profile`; each starts
    /// a discovery run immediately. Returns the number started.
    std::uint32_t start_clients(std::uint32_t count, std::uint32_t profile = 0);

    /// Deactivate up to `count` active clients (diurnal downslope,
    /// departures). Returns the number stopped.
    std::uint32_t stop_clients(std::uint32_t count);

    /// NAT-style mobility: move up to `count` active clients to a fresh
    /// port on their host and rediscover. Returns the number rebound.
    std::uint32_t rebind_clients(std::uint32_t count);

    [[nodiscard]] std::uint32_t capacity() const {
        return static_cast<std::uint32_t>(state_.size());
    }
    [[nodiscard]] std::uint32_t active() const { return active_; }
    [[nodiscard]] std::uint32_t connected() const { return connected_; }

    [[nodiscard]] const SwarmCounters& counters() const { return counters_; }
    /// Time from run start to accepted response, milliseconds (virtual).
    [[nodiscard]] const SampleSet& discovery_latency_ms() const { return latency_; }

    /// Bytes of swarm state retained (arrays, wheel, port tables, pools) —
    /// the honest numerator of the bytes-per-endpoint gauge.
    [[nodiscard]] std::size_t state_bytes() const;

    /// Deterministic digest over counters, per-endpoint state and latency
    /// samples. Two runs with the same seed must produce identical digests.
    [[nodiscard]] std::uint64_t metrics_digest() const;
    [[nodiscard]] std::string metrics_digest_hex() const;

    /// Wire the swarm to a registry: counters/gauges are published under
    /// `node` by publish_metrics(); connects also observe the
    /// swarm_discovery_latency_ms histogram as they happen.
    void set_observability(obs::MetricsRegistry* registry, std::string node);
    /// Sync counters and gauges (active, connected, state bytes,
    /// bytes-per-endpoint, RSS) to the registry.
    void publish_metrics();

    // sim::RangeHandler
    void on_range_datagram(const Endpoint& to, const Endpoint& from, const Bytes& data) override;

private:
    enum State : std::uint8_t { kDetached = 0, kWaiting = 1, kBackoff = 2, kConnected = 3 };
    static constexpr std::uint8_t kFlagAcked = 0x01;
    static constexpr std::uint16_t kNoBroker = 0xFFFF;
    static constexpr std::uint32_t kNoAddr = 0xFFFFFFFFu;
    static constexpr std::uint32_t kNoOwner = 0xFFFFFFFFu;

    struct HostSlot {
        HostId host = kInvalidHost;
        std::vector<std::uint32_t> port_owner;  ///< (port - port_lo) -> client
        std::uint32_t alloc_cursor = 0;         ///< rotating free-port scan
    };

    struct BdnHealth {
        std::uint32_t ackless = 0;   ///< consecutive attempts with no ack
        TimeUs open_until = 0;       ///< breaker-open horizon (virtual time)
    };

    [[nodiscard]] Uuid mint_uuid(std::uint32_t i) const;
    [[nodiscard]] std::uint64_t draw(std::uint32_t i);  ///< per-endpoint stream
    [[nodiscard]] Endpoint endpoint_of(std::uint32_t i) const;
    [[nodiscard]] std::uint16_t broker_index(const Endpoint& ep);
    [[nodiscard]] std::size_t pick_bdn(std::uint32_t i);
    void assign_port(std::uint32_t i);
    void release_port(std::uint32_t i);

    void begin_run(std::uint32_t i);
    void send_attempt(std::uint32_t i);
    void handle_deadline(std::uint32_t i);
    void note_ackless(std::size_t bdn);

    /// Make sure the kernel wake-up fires no later than `t` (no-op inside
    /// a tick batch — on_tick re-arms once from the wheel hint).
    void ensure_armed_by(TimeUs t);
    void arm_kernel();
    static void tick_trampoline(void* ctx, std::uint64_t arg);
    void on_tick();

    sim::Kernel& kernel_;
    sim::SimNetwork& network_;
    SwarmOptions options_;

    // --- struct-of-arrays endpoint state (the per-endpoint budget) -------
    std::vector<std::uint8_t> state_;
    std::vector<std::uint8_t> profile_;
    std::vector<std::uint8_t> flags_;
    std::vector<std::uint8_t> attempts_;   ///< sends in the current run
    std::vector<std::uint8_t> backoff_;    ///< consecutive failed runs
    std::vector<std::uint8_t> last_bdn_;   ///< BDN index of the last attempt
    std::vector<std::uint16_t> broker_;    ///< assigned broker (table index)
    std::vector<std::uint32_t> seq_;       ///< discovery-run sequence
    std::vector<std::uint32_t> addr_;      ///< (host slot << 16) | port
    std::vector<TimeUs> run_start_;        ///< for latency samples
    std::vector<std::uint64_t> rng_;       ///< per-endpoint splitmix cursor

    TimerWheel wheel_;
    std::vector<std::uint32_t> due_scratch_;

    std::vector<HostSlot> hosts_;
    std::unordered_map<HostId, std::uint16_t> host_slot_of_;
    std::uint16_t port_lo_ = 0;
    std::uint16_t port_hi_ = 0;

    std::vector<Endpoint> brokers_;  ///< interned broker endpoints
    std::unordered_map<Endpoint, std::uint16_t> broker_slot_of_;

    std::vector<BdnHealth> bdn_health_;

    /// The framed request every send stamps with its run's id and the
    /// sending endpoint.
    discovery::RequestTemplate request_;

    sim::TimerId armed_timer_ = sim::kInvalidTimer;
    TimeUs armed_at_ = 0;
    bool in_tick_ = false;

    std::uint32_t start_cursor_ = 0;
    std::uint32_t stop_cursor_ = 0;
    std::uint32_t rebind_cursor_ = 0;
    std::uint32_t active_ = 0;
    std::uint32_t connected_ = 0;

    SwarmCounters counters_;
    SampleSet latency_;

    obs::MetricsRegistry* registry_ = nullptr;
    std::string obs_node_;
    obs::Histogram* latency_hist_ = nullptr;
    SwarmCounters published_;  ///< last values synced to the registry
};

}  // namespace narada::swarm
