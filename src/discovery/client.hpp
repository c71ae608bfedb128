// The discovery client — the requesting node's side of the protocol.
//
// Implements §3 (issuing requests), §6 (processing responses: NTP-based
// delay estimation, weighted shortlisting into a target set, UDP ping
// refinement, final selection) and §7 (fault tolerance: retransmission
// after inactivity, BDN failover, multicast fallback, and recovery through
// the cached last target set when no BDN is reachable).
//
// The run is asynchronous: discover() starts the state machine and the
// callback receives a DiscoveryReport once a broker is selected or every
// fallback is exhausted. Phase timings in the report feed the paper's
// Figure 2/9/11 breakdowns directly.
//
// Every response arrives as one UDP datagram (§5.2) and every ping and
// pong goes through the one codec in messages.hpp; the client holds no
// reliable-UDP lane, so it parses no RUDP segment from the network.
// Requests leave through send_sealed_or_plain (security.hpp).
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/circuit_breaker.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/scheduler.hpp"
#include "config/node_config.hpp"
#include "discovery/messages.hpp"
#include "discovery/scoring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "timesvc/ntp.hpp"
#include "transport/transport.hpp"

namespace narada::discovery {

class SecurityContext;

/// Everything a discovery run produced, including the phase breakdown the
/// paper's figures report.
struct DiscoveryReport {
    bool success = false;
    Uuid request_id;

    /// Every response received (deduplicated per broker), annotated.
    std::vector<Candidate> candidates;
    /// Indices into `candidates`: the shortlisted target set, best first.
    std::vector<std::size_t> target_set;
    /// Index into `candidates` of the selected broker.
    std::optional<std::size_t> selected;

    // --- phase timings on the requester's local clock -----------------------
    DurationUs time_to_ack = -1;             ///< request send -> BDN ack
    DurationUs time_to_first_response = -1;  ///< request send -> first response
    DurationUs collection_duration = 0;      ///< request send -> collection end
    DurationUs scoring_duration = 0;         ///< shortlist computation
    DurationUs ping_duration = 0;            ///< ping fan-out -> selection
    DurationUs total_duration = 0;

    std::uint32_t retransmits = 0;
    bool used_multicast = false;
    bool used_cached_targets = false;
    /// Collection closed early because responses quiesced (adaptive window).
    bool adaptive_close = false;

    [[nodiscard]] const Candidate* selected_candidate() const {
        return selected ? &candidates[*selected] : nullptr;
    }
};

class DiscoveryClient final : public transport::MessageHandler {
public:
    using Callback = std::function<void(const DiscoveryReport&)>;

    /// Lifetime counters across every run of this client.
    struct Stats {
        std::uint64_t breaker_skips = 0;    ///< sends diverted off an open BDN
        std::uint64_t forced_probes = 0;    ///< all BDNs open; probed anyway
        std::uint64_t adaptive_closes = 0;  ///< windows closed by quiescence
        /// The BDN a run was waiting on had its breaker open mid-window and
        /// the request was immediately re-issued to another BDN, with
        /// whatever remained of the response deadline.
        std::uint64_t midflight_failovers = 0;
    };

    DiscoveryClient(Scheduler& scheduler, transport::Transport& transport,
                    const Endpoint& local, const Clock& local_clock,
                    const timesvc::UtcSource& utc, config::DiscoveryConfig config,
                    std::string hostname, std::string realm);
    ~DiscoveryClient() override;

    DiscoveryClient(const DiscoveryClient&) = delete;
    DiscoveryClient& operator=(const DiscoveryClient&) = delete;

    /// Begin a discovery run. Throws std::logic_error if one is in flight.
    void discover(Callback callback);

    [[nodiscard]] bool busy() const { return phase_ != Phase::kIdle; }
    [[nodiscard]] const Endpoint& endpoint() const { return local_; }
    [[nodiscard]] const config::DiscoveryConfig& config() const { return config_; }
    config::DiscoveryConfig& mutable_config() { return config_; }
    [[nodiscard]] const Stats& stats() const { return stats_; }
    /// The circuit breaker guarding `config().bdns[index]`.
    [[nodiscard]] const CircuitBreaker& bdn_breaker(std::size_t index) {
        ensure_breakers();
        return breakers_.at(index);
    }

    /// Wire the client into an observability plane (either pointer may be
    /// null). `trace_sample_rate` is the per-run probability of tracing;
    /// the client makes the sampling decision and mints the trace id, so
    /// every downstream hop only checks for a nil id.
    void set_observability(obs::MetricsRegistry* metrics, obs::SpanRecorder* spans,
                           double trace_sample_rate);
    /// Attach the secured-datapath context (nullable = security off).
    /// Requests to any BDN (or cached-target broker) whose identity is
    /// mapped on the context travel sealed; a retransmission forces a fresh
    /// handshake so a lost handshake datagram cannot wedge the run.
    /// Multicast fallback stays plain — there is no single recipient to
    /// seal toward. Not owned; must outlive the client.
    void set_security(SecurityContext* security) { security_ = security; }
    [[nodiscard]] SecurityContext* security() const { return security_; }
    /// The trace context of the current (or most recent) run; nil trace id
    /// when the run was not sampled.
    [[nodiscard]] const obs::TraceContext& trace_context() const { return trace_; }
    /// JSON introspection dump: run phase, counters, and per-BDN circuit
    /// breaker states (the breaker primitive itself stays obs-free; this
    /// is where its state surfaces).
    [[nodiscard]] std::string debug_snapshot() const;

    /// "Every node keeps track of its last target set of brokers" (§7).
    /// Persisting this across restarts enables BDN-less recovery.
    [[nodiscard]] const std::vector<Endpoint>& cached_target_set() const {
        return cached_targets_;
    }
    void set_cached_target_set(std::vector<Endpoint> targets) {
        cached_targets_ = std::move(targets);
    }

    // MessageHandler.
    void on_datagram(const Endpoint& from, const Bytes& data) override;

private:
    enum class Phase { kIdle, kCollecting, kPinging };

    void send_request();
    void send_to_bdn(const Bytes& encoded);
    void multicast_request(const Bytes& encoded);
    [[nodiscard]] Bytes encode_request() const;

    void on_ack(const Endpoint& from, wire::ByteReader& reader);
    void on_response(wire::ByteReader& reader);
    void on_pong(const Endpoint& from, wire::ByteReader& reader);

    /// (Re)build one breaker per configured BDN; called lazily so tests
    /// that mutate `config().bdns` after construction still get breakers.
    void ensure_breakers();
    [[nodiscard]] bool breakers_enabled() const {
        return config_.breaker_failure_threshold > 0 && !config_.bdns.empty();
    }
    /// The last BDN we sent to never acked: charge its breaker. When the
    /// breaker ends up open and `allow_failover` holds, the run fails over
    /// to another BDN immediately — the window timer keeps running, so the
    /// new BDN only gets the remaining deadline. Returns true when a
    /// failover request was sent (the caller's own retransmit is moot).
    bool record_bdn_failure(bool allow_failover);

    void on_retransmit_timer();
    void on_quiesce_tick();
    void end_collection();
    /// Last-resort paths when the collection window closed empty (§7).
    void run_fallback();
    void start_pings();
    void maybe_finish_pings();
    void finish();
    void fail();
    /// End every span of the current run (collect/ping/root) at UTC now.
    void close_run_spans();

    void cancel_timers();

    Scheduler& scheduler_;
    transport::Transport& transport_;
    Endpoint local_;
    const Clock& local_clock_;
    const timesvc::UtcSource& utc_;
    config::DiscoveryConfig config_;
    std::string hostname_;
    std::string realm_;
    Rng rng_;

    Phase phase_ = Phase::kIdle;
    Callback callback_;
    DiscoveryReport report_;
    /// UUIDs valid for the current run (the fallback issues a fresh one so
    /// brokers that deduplicated the original still answer).
    std::set<Uuid> active_request_ids_;
    /// The UUID outgoing requests carry right now (the newest issued).
    Uuid current_request_id_;
    std::size_t bdn_attempt_ = 0;
    bool fallback_done_ = false;

    /// One breaker per entry of config_.bdns (see ensure_breakers()).
    std::vector<CircuitBreaker> breakers_;
    std::size_t last_bdn_ = 0;   ///< index the last request went to
    bool ack_pending_ = false;   ///< a send awaits its BDN ack
    /// Mid-flight failovers this run; bounded by the BDN count so an
    /// all-dead group cannot ping-pong the request forever.
    std::size_t midflight_failovers_run_ = 0;
    Stats stats_;

    // Adaptive window state (config_.adaptive_window).
    std::uint32_t silent_ticks_ = 0;
    std::size_t responses_at_last_tick_ = 0;

    TimeUs run_start_ = 0;         ///< local clock at request send
    TimeUs collection_end_ = 0;    ///< local clock at collection end
    TimeUs ping_start_ = 0;

    /// Pongs still expected per target-set candidate index.
    std::vector<std::uint32_t> pending_pongs_;

    TimerHandle retransmit_timer_ = kInvalidTimerHandle;
    TimerHandle window_timer_ = kInvalidTimerHandle;
    TimerHandle ping_timer_ = kInvalidTimerHandle;
    TimerHandle quiesce_timer_ = kInvalidTimerHandle;

    std::vector<Endpoint> cached_targets_;

    SecurityContext* security_ = nullptr;  ///< secured datapath (null = off)
    /// Set by the retransmit paths: the next send re-handshakes, healing a
    /// lost handshake (the receiver otherwise has no session and drops us).
    bool force_handshake_next_ = false;

    // Observability (optional; null = off).
    obs::SpanRecorder* spans_ = nullptr;
    double trace_sample_rate_ = 0.0;
    obs::TraceContext trace_;       ///< current run's context (nil = unsampled)
    std::uint64_t root_span_ = 0;   ///< client.discover
    std::uint64_t collect_span_ = 0;
    std::uint64_t ping_span_ = 0;
    struct Instruments {
        obs::Counter* discoveries = nullptr;
        obs::Counter* successes = nullptr;
        obs::Counter* failures = nullptr;
        obs::Counter* responses = nullptr;
        obs::Counter* retransmits = nullptr;
        obs::Counter* breaker_skips = nullptr;
        obs::Counter* forced_probes = nullptr;
        obs::Counter* breaker_opens = nullptr;
        obs::Counter* midflight_failovers = nullptr;
        obs::Histogram* selection_ms = nullptr;
        obs::Histogram* first_response_ms = nullptr;
    } inst_;
};

}  // namespace narada::discovery
