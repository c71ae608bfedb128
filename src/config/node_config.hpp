// Typed node configurations.
//
// These structs carry every knob the paper describes as configurable, with
// defaults taken from the paper's own numbers:
//   * dedup cache of the last 1000 discovery-request UUIDs (§4)
//   * response-collection window of 4–5 s (§6) — default 4.5 s
//   * target set of ~10 brokers, configurable 5–20 (§6, §10)
//   * metric weights exactly as in the §9 pseudo-code
// Each struct can be loaded from an INI file ([broker], [bdn], [discovery]
// sections) or constructed programmatically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "config/ini.hpp"

namespace narada::config {

/// Strategy a BDN uses to inject a discovery request into the broker
/// network (§4: "issued simultaneously to the brokers that are closest and
/// farthest from the BDN").
enum class InjectionStrategy : std::uint8_t {
    kClosestAndFarthest,  ///< the paper's scheme
    kClosestOnly,         ///< ablation: single nearest injection point
    kRandom,              ///< ablation: one random injection point
    kAll,                 ///< ablation: O(N) direct fan-out to every broker
};

InjectionStrategy parse_injection_strategy(const std::string& name);
std::string to_string(InjectionStrategy s);

/// How a broker disseminates events across its peer links.
enum class RoutingMode : std::uint8_t {
    /// Forward every event on every link (duplicate-suppressed flooding).
    kFlood,
    /// Forward only on links that announced matching subscription interest
    /// — the "optimized routing" the paper credits the broker network with
    /// (§9). Interest announcements are themselves flooded control
    /// messages, so the mode works on arbitrary (cyclic) overlays.
    kRouted,
};

RoutingMode parse_routing_mode(const std::string& name);
std::string to_string(RoutingMode m);

/// Weights from the paper's §9 pseudo-code. "Higher the better" terms are
/// added, "lower the better" terms subtracted by the scorer.
struct MetricWeights {
    double free_to_total_memory = 100.0;  ///< WEIGHTAGE_FREE_TO_TOTAL_MEMORY
    double total_memory_mb = 0.01;        ///< WEIGHTAGE_TOTAL_MEMORY (per MB)
    double num_links = 5.0;               ///< WEIGHTAGE_NUM_LINKS (subtracted)
    double cpu_load = 20.0;               ///< subtracted per unit of CPU load
    /// Weight on the estimated one-way delay in ms (subtracted); combines
    /// "nearest" with "least loaded" in a single score.
    double delay_ms = 1.0;
    /// Flat penalty subtracted when a broker's response carries the
    /// overload flag (the broker shed discovery work recently). Keeps
    /// storming brokers out of the target set without excluding them when
    /// nothing better answered.
    double overload_penalty = 50.0;

    static MetricWeights from_ini(const Ini& ini, const std::string& section = "weights");
};

/// Client-side discovery parameters (§3, §6, §7).
struct DiscoveryConfig {
    /// BDN endpoints from the node configuration file (§3).
    std::vector<Endpoint> bdns;
    /// How long to collect discovery responses before scoring (§6: 4–5 s).
    DurationUs response_window = from_ms(4500);
    /// Stop collecting after this many responses, 0 = unlimited (§9).
    std::uint32_t max_responses = 0;
    /// Size of the shortlisted target set (§6: "typically around 10").
    std::uint32_t target_set_size = 10;
    /// UDP pings sent per target-set broker to refine RTT (§10: may repeat).
    std::uint32_t pings_per_broker = 1;
    /// How long to wait for ping replies before selecting.
    DurationUs ping_window = from_ms(500);
    /// Retransmit the discovery request after this much silence (§7).
    DurationUs retransmit_interval = from_ms(2000);
    /// Maximum retransmissions before falling back to multicast / cache.
    std::uint32_t max_retransmits = 2;
    /// Also multicast the request (§7, §9: reaches lab-realm brokers).
    bool use_multicast = false;
    /// Credential string presented to brokers with response policies.
    std::string credential;
    MetricWeights weights;

    // --- overload resilience -------------------------------------------------
    /// Consecutive unacknowledged sends that open a BDN's circuit breaker
    /// (the BDN is then skipped instantly and requests fail over to the
    /// next configured BDN). 0 disables breakers: plain §7 rotation.
    std::uint32_t breaker_failure_threshold = 2;
    /// First cool-down before an open breaker admits a half-open probe.
    DurationUs breaker_open_initial = 2 * kSecond;
    /// Cap on the (exponentially grown, jittered) cool-down.
    DurationUs breaker_open_max = 30 * kSecond;

    /// Adaptive response window: once at least one response has arrived,
    /// close collection after `quiesce_ticks` consecutive silent ticks of
    /// `quiesce_tick` each, no earlier than `response_window_min` into the
    /// window. `response_window` stays the hard upper bound. Off by
    /// default: the fixed §9 window governs.
    bool adaptive_window = false;
    std::uint32_t quiesce_ticks = 3;
    DurationUs quiesce_tick = from_ms(100);
    DurationUs response_window_min = from_ms(200);

    static DiscoveryConfig from_ini(const Ini& ini);
};

/// Broker-side configuration (§2.1, §4, §5).
struct BrokerConfig {
    /// BDNs to advertise to directly (broker configuration file, §2.3).
    std::vector<Endpoint> advertise_bdns;
    /// Also publish the advertisement on the public topic (§2.3).
    bool advertise_on_topic = true;
    /// Re-advertise this often (soft-state registration: "broker
    /// advertisements may also be lost in transit to the BDNs", §7).
    /// 0 disables periodic re-advertisement.
    DurationUs advertise_interval = 30 * kSecond;
    /// Duplicate-request cache size (§4: "last 1000, configurable").
    std::uint32_t dedup_cache_size = 1000;
    /// Whether this broker answers discovery requests at all (§5).
    bool respond_to_discovery = true;
    /// Required credential; empty = accept anyone (§5).
    std::string required_credential;
    /// Network realms the broker answers; empty = all realms (§5).
    std::vector<std::string> allowed_realms;
    /// TTL for discovery-request propagation across broker links.
    std::uint32_t propagation_ttl = 32;
    /// Per-event processing cost before fan-out to peers/clients; models
    /// the broker's CPU time so multi-hop dissemination takes visible time.
    DurationUs processing_delay = from_ms(2.0);
    /// Event dissemination strategy across peer links.
    RoutingMode routing_mode = RoutingMode::kFlood;
    /// Peer-link liveness: ping established peers this often (0 disables).
    /// Brokers "may join and leave the broker network at arbitrary times"
    /// (§1.2); dead links must be detected and shed.
    DurationUs peer_heartbeat_interval = 5 * kSecond;
    /// Consecutive unanswered peer heartbeats before dropping the link.
    std::uint32_t peer_max_missed = 3;

    // --- discovery-plane load shedding ---------------------------------------
    /// Fresh discovery requests the broker processes per second (token
    /// bucket); requests over quota are shed — neither flooded onward nor
    /// answered. 0 = unlimited (no shedding).
    double discovery_rate_limit = 0.0;
    /// Token-bucket burst for `discovery_rate_limit`.
    double discovery_burst = 8.0;
    /// After shedding, responses advertise the overload flag for this long
    /// so requesters' scoring steers new clients elsewhere.
    DurationUs overload_hold = 2 * kSecond;
    // Responses always travel as one lossy UDP datagram each: distant
    // brokers must be able to filter themselves out by loss (§5.2).

    static BrokerConfig from_ini(const Ini& ini);
};

/// Overlay self-healing ([rejoin] section). A broker that falls below
/// `peer_floor` established peer links re-runs discovery and re-peers,
/// spacing attempts with jittered exponential backoff so simultaneous
/// rejoiners do not storm the surviving brokers/BDNs.
struct RejoinConfig {
    /// Minimum established peer links; below this the broker self-heals.
    /// 0 disables rejoin supervision.
    std::uint32_t peer_floor = 1;
    /// First retry delay after a failed (or insufficient) rejoin.
    DurationUs backoff_initial = 500 * kMillisecond;
    /// Cap on the backoff base delay.
    DurationUs backoff_max = 30 * kSecond;
    /// Base-delay growth factor per failed attempt.
    double backoff_multiplier = 2.0;
    /// Uniform jitter factor: each delay is scaled by [1-j, 1+j].
    double backoff_jitter = 0.2;

    static RejoinConfig from_ini(const Ini& ini);
};

/// Observability plane ([obs] section): the metrics registry and the
/// per-request trace spans piggybacked on discovery messages.
struct ObsConfig {
    /// Master switch: when false, no component is wired to a registry or
    /// span recorder and the only residual cost is a null-pointer branch.
    bool enabled = false;
    /// Probability that a discovery run is traced (0 = never, 1 = always).
    /// The sampling decision is made once per run at the client; every
    /// downstream hop honours the nil-trace-id convention.
    double trace_sample_rate = 0.0;
    /// Maximum spans the recorder retains; further spans are counted as
    /// dropped rather than evicting earlier ones (a trace with a hole at
    /// the end beats a trace with a hole at the root).
    std::uint32_t span_capacity = 4096;

    static ObsConfig from_ini(const Ini& ini);
};

/// Real-socket datapath ([transport] section): the reactor's datapath
/// knobs. Sim runs ignore this section entirely (virtual time is
/// single-threaded by contract).
struct TransportConfig {
    /// Optional CPU pins, one per reactor shard ("pin_cpus = 0"); -1
    /// entries (and shards past the list) stay unpinned.
    std::vector<int> pin_cpus;
    /// recvmmsg/sendmmsg batch size per shard.
    std::uint32_t udp_batch = 32;
    /// Buffer-pool free-list capacity per shard.
    std::uint32_t pool_buffers = 64;
    /// SO_RCVBUF/SO_SNDBUF per UDP socket (0 = kernel default).
    std::uint32_t udp_sockbuf = 1 << 20;
    /// UDP generic segmentation/receive offload (probed; falls back).
    bool udp_gso = true;

    static TransportConfig from_ini(const Ini& ini);
};

/// Secured discovery plane ([security] section, paper §9.1). Governs the
/// session-envelope datapath in discovery/security.hpp: whether discovery
/// traffic is authenticated (and encrypted), how many per-peer session
/// keys are cached, and how often sessions are re-established.
struct SecurityConfig {
    enum class Mode : std::uint8_t {
        kOff,   ///< plain datagrams, no crypto on the datapath
        kSign,  ///< authenticate: cleartext payload + session MAC
        kSeal,  ///< authenticate + encrypt: AES-CBC payload + session MAC
    };

    Mode mode = Mode::kOff;
    /// Per-peer session entries kept by each component's SessionKeyCache
    /// (RSA is paid once per cached peer; eviction forces a re-handshake).
    std::uint32_t session_cache_size = 256;
    /// Re-establish a peer's session key after this long (0 = never).
    /// Receivers accept sessions up to twice this age so a sender mid-rekey
    /// never races its own traffic.
    DurationUs rekey_interval = 10 * 60 * kSecond;
    /// BDNs register only advertisements that arrived through a verified
    /// envelope whose certificate subject matches the advertised broker
    /// name; plain ads are rejected (and counted) instead of registered.
    bool authenticate_ads = false;

    [[nodiscard]] bool enabled() const { return mode != Mode::kOff; }
    [[nodiscard]] bool sealing() const { return mode == Mode::kSeal; }

    static SecurityConfig from_ini(const Ini& ini);
};

SecurityConfig::Mode parse_security_mode(const std::string& name);
std::string to_string(SecurityConfig::Mode mode);

/// BDN-side configuration (§2, §4).
struct BdnConfig {
    InjectionStrategy injection = InjectionStrategy::kClosestAndFarthest;
    /// Only store advertisements from these realms; empty = store all (§2.3).
    std::vector<std::string> accepted_realms;
    /// Re-ping registered brokers to refresh the distance table this often.
    DurationUs ping_refresh_interval = 30 * kSecond;
    /// Credential required before a private BDN serves a request (§2.4).
    std::string required_credential;
    /// Expire a broker's registration if it has not answered distance
    /// pings for this long (soft-state registry; 0 = registrations never
    /// expire). Keeps the injection targets honest under broker churn.
    DurationUs registration_expiry = 0;
    /// Advertisement lease: a registration lapses unless the broker
    /// re-advertises within this long (0 = ads never lapse). Unlike
    /// `registration_expiry`, pongs do NOT renew a lease — only a fresh
    /// advertisement does, so crashed brokers age out of the registry and
    /// rejoining brokers re-assert themselves by re-advertising.
    DurationUs ad_lease = 0;
    /// Per-injection cost at the BDN: connection setup to the broker plus
    /// request serialization and processing. Injections to multiple
    /// brokers are issued sequentially with this spacing, which is what
    /// makes the unconnected topology's O(N) distribution visibly slow
    /// (§9, Figure 2 — the paper's BDN opened a fresh connection per
    /// registered broker).
    DurationUs injection_spacing = from_ms(50.0);

    // --- bounded ingest / load shedding --------------------------------------
    /// Maximum discovery requests queued awaiting injection. 0 = legacy
    /// unbounded inline processing. When set, requests are admitted into a
    /// bounded queue and serviced at `request_service_cost` spacing;
    /// arrivals past the bound are shed (and not acked, so requesters fail
    /// over instead of waiting). Advertisements are never queued and never
    /// shed — a lease renewal is a registry write, not injection work.
    std::uint32_t ingest_queue_limit = 0;
    /// Per-request servicing time once dequeued (CPU cost of injection
    /// planning); the drain rate is 1 / request_service_cost.
    DurationUs request_service_cost = from_ms(1.0);
    /// Per-source-host token bucket: discovery requests admitted per
    /// second from any single host. 0 = unlimited. Over-quota requests
    /// are shed before they reach the queue.
    double per_source_rate = 0.0;
    /// Burst allowance for `per_source_rate`.
    double per_source_burst = 8.0;

    // --- bulk ad-registry sync over the reliable-UDP lane --------------------
    /// Peer BDNs that receive periodic full-registry snapshots over the
    /// RUDP bulk lane, so a BDN that was partitioned away (or freshly
    /// started) converges on the broker population without waiting a full
    /// re-advertisement cycle.
    std::vector<Endpoint> sync_peers;
    /// Push a registry snapshot to every sync peer this often (0 = never).
    DurationUs registry_sync_interval = 0;

    // --- federated registry plane (sharding + replication) -------------------
    /// The whole BDN peer group (including this BDN). Two or more members
    /// switch the BDN into federated mode: advertisements are partitioned
    /// across the group by consistent hashing on broker id, ads received by
    /// a non-owner are forwarded to their owners, and discovery requests
    /// scatter/gather candidates from the owning shards. Empty or
    /// single-member = the paper's monolithic registry.
    std::vector<Endpoint> peer_group;
    /// Owners per advertisement (clamped to the group size). R >= 2 keeps
    /// every lease alive through any single BDN crash.
    std::uint32_t replication_factor = 1;
    /// Virtual points per group member on the hash ring.
    std::uint32_t ring_vnodes = 64;
    /// Exchange shared-range registry digests with ring peers this often;
    /// mismatches trigger a lease-clamped push so replicas reconverge after
    /// crashes, partitions and rebalances. 0 = anti-entropy off.
    DurationUs anti_entropy_interval = 0;
    /// How long a scatter/gather coordinator waits for shard replies before
    /// injecting with whatever arrived (partial-result degradation).
    DurationUs shard_deadline = from_ms(150);
    /// Candidates a shard returns per query (its best-RTT slice).
    std::uint32_t shard_reply_limit = 8;

    static BdnConfig from_ini(const Ini& ini);
};

/// Parse "host:port" pairs such as "3:9000" used in config BDN lists.
Endpoint parse_endpoint(const std::string& text);

}  // namespace narada::config
