// Broker-side discovery service.
//
// A BrokerPlugin giving a broker everything the paper asks of it:
//   * advertise with configured BDNs on startup, directly and/or on the
//     public advertisement topic (§2.1-2.3);
//   * re-advertise when a (private) BDN announces itself (§2.4);
//   * answer discovery requests arriving by BDN injection, overlay flood,
//     multicast, or directly from a requesting node, subject to the
//     broker's response policy (§5) and the duplicate cache (§4);
//   * re-publish each fresh request on the reserved discovery topic so it
//     floods the broker network (§10: "brokers also propagate discovery
//     requests on a predefined topic");
//   * respond over UDP to the requester's reply endpoint, one lossy
//     datagram per response (§5.2).
//
// One send path per message: the advertisement is framed once. Its
// datagram copies — to configured BDNs and in reply to a BDN announcement
// — all leave through send_advertisement(), sealed whenever the BDN's
// identity is known; the topic copy carries the same bytes without the
// type octet.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "broker/broker.hpp"
#include "broker/dedup_cache.hpp"
#include "common/token_bucket.hpp"
#include "discovery/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace narada::discovery {

class SecurityContext;

/// Static identity a broker presents in advertisements and responses.
struct BrokerIdentity {
    Uuid broker_id;
    std::string hostname;
    std::vector<std::string> protocols{"tcp", "udp"};
    std::string realm;
    std::string geo_location;
    std::string institution;
};

class BrokerDiscoveryPlugin final : public broker::BrokerPlugin {
public:
    struct Stats {
        std::uint64_t requests_seen = 0;
        std::uint64_t duplicates_suppressed = 0;
        std::uint64_t responses_sent = 0;
        std::uint64_t policy_rejections = 0;
        std::uint64_t advertisements_sent = 0;
        /// Fresh requests dropped by the discovery rate limiter
        /// (`discovery_rate_limit` knob); the request still floods so other
        /// brokers can answer, but this broker stays silent.
        std::uint64_t requests_shed = 0;

        // --- secured datapath (set_security) ---------------------------------
        std::uint64_t advertisements_sealed = 0;  ///< ads sent inside envelopes
        std::uint64_t secured_received = 0;       ///< envelopes opened successfully
        std::uint64_t secure_open_failures = 0;   ///< envelopes rejected (typed error)
    };

    explicit BrokerDiscoveryPlugin(BrokerIdentity identity, bool join_multicast = true)
        : identity_(std::move(identity)), join_multicast_(join_multicast) {}
    ~BrokerDiscoveryPlugin() override;

    // BrokerPlugin interface.
    void on_attach(broker::Broker& broker) override;
    void on_start() override;
    bool on_message(const Endpoint& from, std::uint8_t type, wire::ByteReader& reader,
                    bool reliable) override;
    void on_event(const broker::Event& event) override;

    /// Send this broker's advertisement now (startup does this; tests and
    /// churn scenarios can re-trigger it).
    void advertise();

    [[nodiscard]] const BrokerIdentity& identity() const { return identity_; }
    [[nodiscard]] const Stats& stats() const { return stats_; }
    [[nodiscard]] BrokerAdvertisement advertisement() const;
    /// True while the broker shed discovery work within the last
    /// `overload_hold`; advertised in responses so selection steers new
    /// clients away until the hot spot drains.
    [[nodiscard]] bool overloaded() const;

    /// Wire the plugin into an observability plane (either pointer may be
    /// null). Call after on_attach so the broker's name labels the
    /// instruments; spans are stamped off the broker's NTP-corrected UTC
    /// source. The metrics hot path is atomics-only.
    void set_observability(obs::MetricsRegistry* metrics, obs::SpanRecorder* spans);
    /// JSON introspection dump: counters, overload state, response budget.
    [[nodiscard]] std::string debug_snapshot() const;

    /// Attach the secured-datapath context (nullable = security off).
    /// Directly-addressed advertisements — to configured BDNs and in reply
    /// to a BDN announcement — are sealed toward any BDN whose identity is
    /// mapped on the context, and kMsgSecureEnvelope datagrams
    /// (direct secured requests, §9.1) are opened and answered. Not owned;
    /// must outlive the plugin.
    void set_security(SecurityContext* security) { security_ = security; }
    [[nodiscard]] SecurityContext* security() const { return security_; }

private:
    /// The one request entry point, for every arrival path (`flooded` =
    /// arrived as an overlay event, so it must not be re-published). A
    /// sampled request opens the `broker.process` span, which becomes its
    /// trace parent. Dedup, policy and shed decisions run once, on the
    /// borrowed view; a fresh request is re-published from the view's raw
    /// bytes — verbatim, or with the new trace parent when sampled.
    void process_request(const DiscoveryRequestView& view, bool flooded);

    /// The broker's response policy (§5): credentials and realm checks.
    [[nodiscard]] bool policy_admits(std::string_view credential, std::string_view realm) const;

    /// Arm the next periodic re-advertisement.
    void schedule_readvertise(DurationUs interval);

    void send_response(const Uuid& request_id, const Endpoint& reply_to,
                       const obs::TraceContext& trace);

    /// The one datagram advertisement send: `framed_ad_` to `bdn`, sealed
    /// when the security context knows the BDN's identity, plain otherwise.
    void send_advertisement(const Endpoint& bdn);

    BrokerIdentity identity_;
    bool join_multicast_;
    broker::Broker* broker_ = nullptr;
    Scheduler* scheduler_ = nullptr;  ///< outlives the broker; used in dtor
    broker::DedupCache seen_requests_{1000};
    TimerHandle readvertise_timer_ = kInvalidTimerHandle;
    Bytes framed_ad_;  ///< advertisement(), type octet first; framed at attach
    Stats stats_;

    // Load shedding (discovery_rate_limit > 0).
    TokenBucket response_budget_{0.0, 0.0};
    TimeUs last_shed_ = -1;  ///< -1 until the first shed

    // Observability (optional; null = off).
    obs::SpanRecorder* spans_ = nullptr;
    SecurityContext* security_ = nullptr;      ///< secured datapath (null = off)
    struct Instruments {
        obs::Counter* seen = nullptr;
        obs::Counter* duplicates = nullptr;
        obs::Counter* responses = nullptr;
        obs::Counter* rejections = nullptr;
        obs::Counter* shed = nullptr;
        obs::Counter* ads = nullptr;
    } inst_;
};

}  // namespace narada::discovery
