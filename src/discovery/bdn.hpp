// Broker Discovery Node (BDN).
//
// "Broker Discovery Nodes are registered nodes that facilitate the
// discovery of brokers within the broker network. BDNs maintain
// information regarding broker nodes within the system." (paper §2)
//
// A BDN:
//   * accepts broker advertisements sent directly to it, and — when
//     attached to a broker as a pub/sub client — advertisements published
//     on the public topic (§2.3), optionally filtered by realm;
//   * maintains a distance table by pinging registered brokers (§4: "could
//     easily be constructed by issuing ping requests"), kept as the RTT
//     order of its registry (BdnRegistry), which is bounded by
//     kMaxRegistry ids;
//   * acknowledges discovery requests in a timely manner (§3) and is
//     idempotent under retransmission;
//   * propagates each request into the broker network by injecting it at
//     brokers chosen by the configured strategy — by default the closest
//     and the farthest broker, "to ensure that the broker discovery
//     request propagates faster through the broker network" (§4), read off
//     the two ends of the RTT order without copying the registry;
//   * as a private BDN, can require credentials before serving a request
//     and can announce itself to brokers so they re-advertise (§2.4).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "broker/client.hpp"
#include "broker/dedup_cache.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/scheduler.hpp"
#include "common/token_bucket.hpp"
#include "config/node_config.hpp"
#include "discovery/bdn_registry.hpp"
#include "discovery/messages.hpp"
#include "discovery/registry_shard.hpp"
#include "discovery/scoring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "timesvc/ntp.hpp"
#include "transport/rudp_channel.hpp"
#include "transport/transport.hpp"

namespace narada::discovery {

class SecurityContext;
struct SecureOpenResult;

class Bdn final : public transport::MessageHandler {
public:
    using RegisteredBroker = discovery::RegisteredBroker;

    struct Stats {
        std::uint64_t ads_received = 0;
        std::uint64_t ads_filtered = 0;  ///< rejected by realm policy (§2.3)
        std::uint64_t ads_refused = 0;   ///< new ids past kMaxRegistry
        std::uint64_t requests_received = 0;
        std::uint64_t duplicate_requests = 0;
        std::uint64_t acks_sent = 0;
        std::uint64_t injections = 0;
        std::uint64_t credential_rejections = 0;
        std::uint64_t pings_sent = 0;
        std::uint64_t pongs_received = 0;
        std::uint64_t registrations_expired = 0;  ///< soft-state evictions
        std::uint64_t leases_renewed = 0;         ///< re-advertisements in time
        std::uint64_t leases_expired = 0;         ///< ads aged out unrenewed

        // --- bounded ingest / load shedding (ingest_queue_limit > 0) --------
        std::uint64_t requests_shed_quota = 0;     ///< over per-source rate
        std::uint64_t requests_shed_overflow = 0;  ///< ingest queue full
        std::uint64_t requests_serviced = 0;       ///< dequeued and injected
        std::uint64_t queue_depth_peak = 0;        ///< high-water mark

        // --- bulk registry sync (registry_sync_interval > 0) -----------------
        std::uint64_t sync_pushes = 0;         ///< snapshots handed to the lane
        std::uint64_t sync_push_failures = 0;  ///< channel refused the payload
        std::uint64_t sync_received = 0;       ///< snapshots reassembled here
        std::uint64_t sync_brokers_learned = 0;  ///< ads ingested from snapshots
        std::uint64_t sync_skipped_unchanged = 0;  ///< digest-skip: peer up to date
        std::uint64_t sync_expired_dropped = 0;  ///< synced entries with lapsed leases

        // --- federated registry plane (peer_group, sharding) -----------------
        std::uint64_t ads_forwarded = 0;       ///< ads relayed to their ring owners
        std::uint64_t forwards_received = 0;   ///< forwarded ads stored here (owner)
        std::uint64_t forwards_dropped = 0;    ///< forwarded ads we don't own (stale ring)
        std::uint64_t shard_queries_sent = 0;
        std::uint64_t shard_queries_received = 0;
        std::uint64_t shard_replies_received = 0;
        std::uint64_t gathers = 0;             ///< scatter/gather coordinations started
        std::uint64_t gathers_partial = 0;     ///< injected on deadline, shards missing
        std::uint64_t anti_entropy_rounds = 0;
        std::uint64_t digests_sent = 0;
        std::uint64_t digests_matched = 0;     ///< shared range already converged
        std::uint64_t digest_mismatch_pushes = 0;  ///< repairs triggered by digests
        std::uint64_t digest_ring_mismatches = 0;  ///< digest from another ring epoch
        std::uint64_t rebalance_handoffs = 0;  ///< entries pushed on peer-group change

        // --- secured datapath (set_security) ---------------------------------
        std::uint64_t secured_received = 0;       ///< envelopes opened successfully
        std::uint64_t secure_open_failures = 0;   ///< envelopes rejected (typed error)
        std::uint64_t ads_rejected_unauthenticated = 0;  ///< authenticate_ads policy

        /// Every shed decision, for digests and logs.
        [[nodiscard]] std::uint64_t requests_shed() const {
            return requests_shed_quota + requests_shed_overflow;
        }
    };

    Bdn(Scheduler& scheduler, transport::Transport& transport, const Endpoint& local,
        const Clock& local_clock, config::BdnConfig config, std::string name = {});
    ~Bdn() override;

    Bdn(const Bdn&) = delete;
    Bdn& operator=(const Bdn&) = delete;

    /// Begin the periodic distance-table refresh.
    void start();

    /// Attach to a broker as a pub/sub client on `client_endpoint` and
    /// subscribe to the public advertisement topic (§2.3). The BDN keeps
    /// the attachment alive for its lifetime.
    void attach_to_broker(const Endpoint& broker, const Endpoint& client_endpoint);

    /// Announce this (private) BDN to a broker so that it re-advertises
    /// here (§2.4).
    void announce_to(const Endpoint& broker);

    /// Directly register an advertisement (same as receiving it: it is
    /// encoded once and takes the received-advertisement path). Throws
    /// wire::WireError for an ad the wire cannot carry (over 64 protocols,
    /// or a field above the codec's length bound).
    void register_broker(BrokerAdvertisement ad);

    /// Registry bound: an advertisement or sync entry for a new broker id
    /// past this is refused (counted in `ads_refused`, never pinged), so
    /// untrusted ads cannot grow BDN memory without limit. Renewals and
    /// endpoint moves of known ids are always accepted.
    static constexpr std::size_t kMaxRegistry = 65536;

    [[nodiscard]] std::size_t registered_count() const { return registry_.size(); }
    [[nodiscard]] std::vector<RegisteredBroker> registry() const;
    /// Registrations whose advertisement lease has lapsed but which have
    /// not been swept yet; the next refresh evicts them. Soak tests assert
    /// this reaches zero after churn quiesces.
    [[nodiscard]] std::size_t stale_count() const;
    [[nodiscard]] const Endpoint& endpoint() const { return local_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] const Stats& stats() const { return stats_; }
    [[nodiscard]] const config::BdnConfig& config() const { return config_; }
    /// Requests admitted but not yet injected (bounded by
    /// `ingest_queue_limit`; always 0 in legacy inline mode).
    [[nodiscard]] std::size_t queue_depth() const { return ingest_queue_.size(); }

    /// Push a full-registry snapshot to every configured sync peer now
    /// (the periodic timer does this; tests can force a round). Pushes are
    /// skipped per peer while the registry digest is unchanged since the
    /// last successful push to that peer.
    void sync_registry();
    /// The RUDP lane to/from `peer` (created lazily); null if none exists
    /// yet. Exposes degradation state to tests and snapshots.
    [[nodiscard]] const transport::RudpChannel* sync_channel(const Endpoint& peer) const;

    // --- federated registry plane -------------------------------------------
    /// Two or more ring members: advertisements are sharded, discovery
    /// requests scatter/gather. One or zero: the paper's monolithic BDN.
    [[nodiscard]] bool federated() const { return ring_.size() > 1; }
    [[nodiscard]] const ShardRing& ring() const { return ring_; }
    /// Replace the peer group (membership change). Rebuilds the ring and
    /// hands every held advertisement off to its owners under the new ring;
    /// entries this BDN no longer owns stay as residue until their leases
    /// lapse, so requests in flight keep working through the transition.
    void set_peer_group(std::vector<Endpoint> members);
    /// Run one anti-entropy round now (the periodic timer does this; tests
    /// and soaks can force convergence checks).
    void run_anti_entropy();
    /// Scatter/gather coordinations currently awaiting shard replies.
    [[nodiscard]] std::size_t gather_depth() const { return gathers_.size(); }

    /// Wire this BDN into an observability plane. Any argument may be null
    /// (that facility is simply skipped). `utc` stamps trace spans — the
    /// BDN runs no NTP service of its own, so scenarios pass a source over
    /// the deployment's true clock. Call before traffic flows.
    void set_observability(obs::MetricsRegistry* metrics, obs::SpanRecorder* spans,
                           const timesvc::UtcSource* utc);
    /// Attach the secured-datapath context (nullable = security off). The
    /// BDN accepts kMsgSecureEnvelope datagrams through it and — when its
    /// config sets authenticate_ads — registers only advertisements that
    /// arrived through a verified envelope whose signer matches the
    /// advertised broker name. Not owned; must outlive the BDN.
    void set_security(SecurityContext* security);
    [[nodiscard]] SecurityContext* security() const { return security_; }
    /// JSON introspection dump: counters, queue state, and the lease /
    /// liveness age of every registered broker.
    [[nodiscard]] std::string debug_snapshot() const;

    // MessageHandler.
    void on_datagram(const Endpoint& from, const Bytes& data) override;

private:
    /// The one advertisement entry point (direct datagram, sealed envelope,
    /// pub/sub attachment, register_broker): counts it, applies the realm
    /// filter on the borrowed view, relays it verbatim when another shard
    /// owns it, and registers it otherwise.
    void handle_advertisement(const BrokerAdvertisementView& view);
    [[nodiscard]] bool realm_accepted(std::string_view realm) const;
    void register_advertisement(const BrokerAdvertisement& ad);

    /// The one request entry point. A sampled request opens the
    /// `bdn.request` span at receipt. Credential policy, dedup and (with
    /// `ingest_queue_limit > 0`) the shed checks run once, on the borrowed
    /// view. An admitted request is acked and framed once — verbatim, or
    /// with its trace parent set to the open span — and is dispatched
    /// inline or queued.
    void handle_request(const Endpoint& from, const DiscoveryRequestView& view);
    void handle_pong(const Endpoint& from, wire::ByteReader& reader);
    /// Dispatch the payload of a successfully opened secure envelope. Only
    /// perimeter message types (advertisements, discovery requests) are
    /// accepted inside an envelope; an envelope-in-envelope is rejected.
    void handle_secured(const Endpoint& from, const SecureOpenResult& opened);

    /// A request past credential policy, dedup and shedding, framed once.
    struct AdmittedRequest {
        Uuid request_id;
        obs::TraceContext trace;               ///< as framed
        std::shared_ptr<const Bytes> framed;   ///< type octet + request
        std::uint64_t span = 0;  ///< open `bdn.request` span (0 = unsampled)
    };
    /// Bounded-ingest shed policy (ingest_queue_limit > 0): over-quota
    /// sources, then queue overflow. Counts and logs a shed and returns
    /// true; a shed request gets no ack, so the requester fails over
    /// instead of waiting out its window.
    [[nodiscard]] bool shed_request(const Endpoint& from, const Uuid& request_id);
    /// Type octet + the request region `raw` with its trace parent set to
    /// `parent_span`, in one pooled buffer shared by every later send.
    [[nodiscard]] std::shared_ptr<const Bytes> frame(std::span<const std::uint8_t> raw,
                                                     std::uint64_t parent_span);
    /// Serve an admitted request (inline, or from the queue): scatter/gather
    /// when federated, otherwise spaced injection at the strategy's
    /// targets, re-framed under a `bdn.inject` span when sampled. Ends the
    /// request's `bdn.request` span.
    void dispatch(AdmittedRequest request);
    /// Service one queued request and re-arm the drain timer.
    void drain_queue();
    void send_ack(const Uuid& request_id, const Endpoint& reply_to);
    void send_ping(const Endpoint& broker);

    /// Injection points for the configured strategy, read off the
    /// registry's RTT order.
    [[nodiscard]] std::vector<Endpoint> injection_targets();

    /// Sends of a framed request to `targets`: inline when
    /// `injection_spacing` is 0, otherwise spaced timers, each costing the
    /// configured per-injection processing time and sharing ownership of
    /// `framed`.
    void inject(std::shared_ptr<const Bytes> framed, const std::vector<Endpoint>& targets);

    void refresh_distances();

    // --- federated registry plane helpers -------------------------------
    /// Ring over `config_.peer_group` (forcing `local_` in if absent) plus
    /// an order-independent hash of the member list, used to fence digests
    /// from other ring epochs.
    void rebuild_ring(const std::vector<Endpoint>& members);
    [[nodiscard]] std::uint64_t mint_version() { return ++version_counter_; }
    /// Relay `raw` (a framed advertisement region) to every ring owner of
    /// `broker_id` other than this node. Never applied to already-forwarded
    /// ads, so relays cannot loop.
    void forward_ad(const Uuid& broker_id, std::span<const std::uint8_t> raw);
    /// Merge one synced entry (v2 path): realm filter, lease clamp to the
    /// sender's remaining lease, (version, origin) conflict resolution.
    void merge_entry(const RegistrySyncEntry& entry);
    /// `entry` for the wire: the ad plus this node's remaining lease.
    [[nodiscard]] RegistrySyncEntry make_sync_entry(const RegisteredBroker& rb) const;
    /// Order-independent digest over (id, origin, version) of unexpired
    /// entries; `peer` non-null restricts to entries both nodes own under
    /// the ring (the anti-entropy shared range). Leases are deliberately
    /// excluded: clock skew must not defeat the digest-skip.
    [[nodiscard]] std::pair<std::uint64_t, std::uint32_t> registry_digest(
        const Endpoint* peer) const;
    /// One bulk push of `entries` to `peer` over the RUDP lane.
    bool push_entries(const Endpoint& peer, const std::vector<RegistrySyncEntry>& entries);
    void handle_shard_query(const Endpoint& from, const ShardQuery& query);
    void handle_shard_reply(const Endpoint& from, const ShardReply& reply);
    void handle_registry_digest(const Endpoint& from, const RegistryDigest& digest);
    /// Begin a scatter/gather for an admitted request: local candidates are
    /// seeded immediately, ShardQuery datagrams fan out to the other ring
    /// members, and the gather finalizes when all reply or the per-shard
    /// deadline fires (partial-result degradation).
    void start_gather(const Uuid& request_id, std::shared_ptr<const Bytes> framed);
    void finalize_gather(const Uuid& request_id, bool partial);
    void arm_anti_entropy_timer();

    /// The bulk lane to/from `peer`, created on first use. Channels are
    /// bidirectional: the same instance carries outbound snapshots and
    /// acks inbound ones.
    transport::RudpChannel& rudp_channel(const Endpoint& peer);
    /// rudp_channel() for an outbound push: an abandoned lane is reset and
    /// the peer's last pushed digest forgotten first.
    transport::RudpChannel& push_lane(const Endpoint& peer);
    /// Re-arm the periodic registry push.
    void arm_sync_timer();
    /// Reassembled bulk payload from `peer` (framed with its type octet);
    /// only kMsgBdnRegistrySync2 is accepted.
    void handle_bulk_payload(const Endpoint& peer, const Bytes& payload);

    /// Span-time source; only valid when spans are wired.
    [[nodiscard]] TimeUs span_now() const { return utc_->utc_now(); }
    [[nodiscard]] bool tracing() const { return spans_ != nullptr && utc_ != nullptr; }

    Scheduler& scheduler_;
    transport::Transport& transport_;
    Endpoint local_;
    const Clock& local_clock_;
    config::BdnConfig config_;
    std::string name_;
    Rng rng_;

    /// Entries by broker id, the pong-source endpoint map and the RTT
    /// order, kept in lockstep.
    BdnRegistry registry_{kMaxRegistry};
    broker::DedupCache seen_requests_{1000};
    std::unique_ptr<broker::PubSubClient> attachment_;
    TimerHandle refresh_timer_ = kInvalidTimerHandle;
    bool started_ = false;
    Stats stats_;

    // Bulk registry sync over the RUDP lane, keyed by the peer endpoint
    // (outbound snapshots and inbound frames share one channel per peer).
    std::map<Endpoint, std::unique_ptr<transport::RudpChannel>> rudp_channels_;
    TimerHandle sync_timer_ = kInvalidTimerHandle;
    /// Digest of the last snapshot successfully handed to each peer's lane;
    /// sync_registry skips a peer while its digest is unchanged. Cleared
    /// when the peer's channel is reset (the peer may have lost state).
    std::map<Endpoint, std::uint64_t> last_push_digest_;

    // Federated registry plane (peer_group with 2+ members).
    /// This node's identity for version stamps, derived from `local_`.
    std::uint64_t node_id_ = 0;
    /// Lamport-style counter: bumped on every accepted fresh ad, advanced
    /// past any merged version so later local writes win conflicts.
    std::uint64_t version_counter_ = 0;
    ShardRing ring_;
    /// Order-independent fingerprint of the member list; anti-entropy
    /// digests from another ring epoch are ignored.
    std::uint64_t ring_hash_ = 0;
    /// One in-flight scatter/gather coordination.
    struct GatherState {
        std::shared_ptr<const Bytes> framed;       ///< request, framed once
        std::vector<InjectionCandidate> candidates;
        std::set<Endpoint> pending;                ///< shards yet to reply
        TimerHandle timer = kInvalidTimerHandle;   ///< per-shard deadline
    };
    std::map<Uuid, GatherState> gathers_;
    /// Gather-table bound: beyond this, requests degrade to local-only
    /// injection instead of growing BDN memory under request floods.
    static constexpr std::size_t kMaxGathers = 128;
    TimerHandle anti_entropy_timer_ = kInvalidTimerHandle;

    // Observability (all optional; null = off).
    obs::MetricsRegistry* metrics_ = nullptr;  ///< kept for lazy RUDP channels
    obs::SpanRecorder* spans_ = nullptr;
    SecurityContext* security_ = nullptr;      ///< secured datapath (null = off)
    const timesvc::UtcSource* utc_ = nullptr;
    struct Instruments {
        obs::Counter* requests = nullptr;
        obs::Counter* duplicates = nullptr;
        obs::Counter* acks = nullptr;
        obs::Counter* injections = nullptr;
        obs::Counter* shed_quota = nullptr;
        obs::Counter* shed_overflow = nullptr;
        obs::Counter* serviced = nullptr;
        obs::Counter* ads = nullptr;
        obs::Counter* pings = nullptr;
        obs::Counter* pongs = nullptr;
        obs::Counter* leases_expired = nullptr;
        obs::Counter* ads_forwarded = nullptr;
        obs::Counter* gathers_partial = nullptr;
        obs::Counter* sync_skipped = nullptr;
        obs::Counter* rejected_ads = nullptr;  ///< crypto_rejected_ads
        obs::Gauge* queue_depth = nullptr;
        obs::Histogram* fanout = nullptr;  ///< injection targets per request
    } inst_;

    // Bounded ingest (ingest_queue_limit > 0).
    std::deque<AdmittedRequest> ingest_queue_;
    TimerHandle drain_timer_ = kInvalidTimerHandle;
    /// Per-source-host rate limiters; bounded so spoofed source floods
    /// cannot grow BDN memory (the map resets when it overflows).
    std::map<HostId, TokenBucket> source_buckets_;
    static constexpr std::size_t kMaxTrackedSources = 1024;
    /// Bound on lazily-created RUDP channels (spoofed-frame protection).
    static constexpr std::size_t kMaxSyncChannels = 64;
};

}  // namespace narada::discovery
