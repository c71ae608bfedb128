#include "discovery/broker_plugin.hpp"

#include <algorithm>

#include "broker/topic.hpp"
#include "common/log.hpp"
#include "discovery/security.hpp"
#include "obs/json.hpp"
#include "wire/msg_types.hpp"

namespace narada::discovery {

BrokerDiscoveryPlugin::~BrokerDiscoveryPlugin() {
    if (scheduler_ != nullptr) scheduler_->cancel_timer(readvertise_timer_);
}

void BrokerDiscoveryPlugin::on_attach(broker::Broker& broker) {
    broker_ = &broker;
    scheduler_ = &broker.scheduler();
    seen_requests_ = broker::DedupCache(broker.config().dedup_cache_size);
    response_budget_ =
        TokenBucket(broker.config().discovery_rate_limit, broker.config().discovery_burst);
    if (identity_.broker_id.is_nil()) {
        identity_.broker_id = Uuid::random(broker.rng());
    }
    if (join_multicast_) {
        // Requests multicast by BDN-less clients (§7) arrive at the broker
        // endpoint like any other datagram.
        broker.transport().join_multicast(transport::kDiscoveryMulticastGroup,
                                          broker.endpoint());
    }
    // Under subscription routing the responder must declare its interest
    // in the reserved request topic or flooded requests stop reaching it.
    broker.add_plugin_interest(std::string(broker::kDiscoveryRequestTopic));
    // Nothing an advertisement carries changes once the broker is known,
    // so every advertisement this plugin sends shares these bytes.
    const BrokerAdvertisement ad = advertisement();
    wire::ByteWriter writer(1 + ad.measured_size());
    writer.u8(wire::kMsgBrokerAdvertisement);
    ad.encode(writer);
    framed_ad_ = writer.take();
}

void BrokerDiscoveryPlugin::on_start() {
    advertise();
    // Soft-state registration: advertisements are fire-and-forget UDP and
    // "may also be lost in transit to the BDNs" (§7); periodic
    // re-advertisement heals losses and BDN restarts.
    const DurationUs interval = broker_->config().advertise_interval;
    if (interval > 0 && readvertise_timer_ == kInvalidTimerHandle) {
        schedule_readvertise(interval);
    }
}

void BrokerDiscoveryPlugin::schedule_readvertise(DurationUs interval) {
    readvertise_timer_ = scheduler_->schedule(interval, [this, interval] {
        advertise();
        schedule_readvertise(interval);
    });
}

BrokerAdvertisement BrokerDiscoveryPlugin::advertisement() const {
    BrokerAdvertisement ad;
    ad.broker_id = identity_.broker_id;
    ad.broker_name = broker_ ? broker_->name() : std::string{};
    ad.hostname = identity_.hostname;
    ad.endpoint = broker_ ? broker_->endpoint() : Endpoint{};
    ad.protocols = identity_.protocols;
    ad.realm = identity_.realm;
    ad.geo_location = identity_.geo_location;
    ad.institution = identity_.institution;
    return ad;
}

void BrokerDiscoveryPlugin::advertise() {
    if (broker_ == nullptr) return;
    // Path 1: directly to the BDNs in the broker's configuration (§2.3).
    // Advertisements travel as datagrams — their loss is tolerated (§7).
    for (const Endpoint& bdn : broker_->config().advertise_bdns) send_advertisement(bdn);

    // Path 2: on the public topic all BDNs subscribe to (§2.3). The event
    // carries the advertisement without its type octet.
    if (broker_->config().advertise_on_topic) {
        broker::Event event;
        event.topic = std::string(broker::kBrokerAdvertisementTopic);
        event.payload.assign(framed_ad_.begin() + 1, framed_ad_.end());
        broker_->publish(std::move(event));
        ++stats_.advertisements_sent;
        if (inst_.ads) inst_.ads->inc();
    }
}

void BrokerDiscoveryPlugin::send_advertisement(const Endpoint& bdn) {
    // Secured deployments seal the advertisement toward any BDN whose
    // identity is known, so it can authenticate who is advertising (§9.1,
    // authenticate_ads). Loss tolerance carries over: a lost handshake is
    // healed by the next periodic re-advertisement, which re-handshakes.
    if (send_sealed_or_plain(security_, broker_->transport(), broker_->endpoint(), bdn,
                             framed_ad_)) {
        ++stats_.advertisements_sealed;
    }
    ++stats_.advertisements_sent;
    if (inst_.ads) inst_.ads->inc();
}

bool BrokerDiscoveryPlugin::on_message(const Endpoint& from, std::uint8_t type,
                                       wire::ByteReader& reader, bool reliable) {
    (void)from;
    (void)reliable;
    if (broker_ == nullptr) return false;
    switch (type) {
        case wire::kMsgDiscoveryRequest: {
            // Arrival paths: BDN injection (reliable), direct request from
            // a node that cached us in its target set (§7), or multicast.
            process_request(DiscoveryRequestView::peek(reader), /*flooded=*/false);
            return true;
        }
        case wire::kMsgSecureEnvelope: {
            // A directly-addressed secured request (§9.1): a client that
            // cached this broker in its target set and seals toward it.
            // Only discovery requests are accepted from inside an envelope;
            // anything else (including a nested envelope) is dropped.
            if (security_ == nullptr) return true;
            const SecureOpenResult opened = security_->open_datagram(reader);
            if (!opened.ok()) {
                ++stats_.secure_open_failures;
                NARADA_DEBUG("discovery", "{}: rejected envelope from {}: {}",
                             broker_->name(), from.str(), crypto::to_string(opened.error));
                return true;
            }
            ++stats_.secured_received;
            try {
                wire::ByteReader inner(opened.payload);
                if (inner.u8() == wire::kMsgDiscoveryRequest) {
                    process_request(DiscoveryRequestView::peek(inner), /*flooded=*/false);
                }
            } catch (const wire::WireError& e) {
                NARADA_DEBUG("discovery", "{}: malformed secured payload from {}: {}",
                             broker_->name(), from.str(), e.what());
            }
            return true;
        }
        case wire::kMsgBdnAdvertisement:
            // A (private) BDN announced itself; brokers "may have the
            // option to re-advertise their information at this newly added
            // BDN" (§2.4).
            send_advertisement(BdnAnnouncement::decode(reader).bdn);
            return true;
        default:
            return false;
    }
}

void BrokerDiscoveryPlugin::on_event(const broker::Event& event) {
    if (broker_ == nullptr) return;
    if (event.topic != broker::kDiscoveryRequestTopic) return;
    try {
        wire::ByteReader reader(event.payload);
        process_request(DiscoveryRequestView::peek(reader), /*flooded=*/true);
    } catch (const wire::WireError& e) {
        NARADA_DEBUG("discovery", "{}: bad flooded request: {}", broker_->name(), e.what());
    }
}

void BrokerDiscoveryPlugin::process_request(const DiscoveryRequestView& view, bool flooded) {
    ++stats_.requests_seen;
    if (inst_.seen) inst_.seen->inc();

    // A sampled request opens the broker-side span; its parent is whatever
    // hop delivered the request (BDN injection or a peer broker's flood),
    // so the recorded tree follows the actual propagation path. The span
    // becomes the trace parent of the re-published request and of the
    // response.
    obs::TraceContext trace = view.trace;
    std::uint64_t process_span = 0;
    if (spans_ != nullptr && trace.sampled()) {
        process_span = spans_->begin(trace.trace_id, trace.parent_span, "broker.process",
                                     broker_->name(), broker_->utc().utc_now());
        if (process_span != 0) trace.parent_span = process_span;
    }
    const auto close_span = [this, process_span] {
        if (process_span != 0) spans_->end(process_span, broker_->utc().utc_now());
    };

    if (!seen_requests_.insert(view.request_id)) {
        // "so that additional CPU/network cycles are not expended on
        // previously processed requests" (§4).
        ++stats_.duplicates_suppressed;
        if (inst_.duplicates) inst_.duplicates->inc();
        close_span();
        return;
    }

    if (!flooded) {
        // Re-publish on the reserved topic so the request floods the broker
        // network. The event id *is* the request UUID, so the overlay's
        // duplicate suppression and ours agree. The payload is the borrowed
        // message region, its trace parent set to our span when sampled —
        // no decode-encode round trip.
        wire::ByteWriter payload;
        payload.reserve(view.raw.size());
        copy_with_trace_parent(payload, view.raw, trace.parent_span);
        broker::Event event;
        event.id = view.request_id;
        event.topic = std::string(broker::kDiscoveryRequestTopic);
        event.payload = payload.take();
        event.ttl = broker_->config().propagation_ttl;
        broker_->publish(std::move(event));
    }

    if (!policy_admits(view.credential, view.realm)) {
        ++stats_.policy_rejections;
        if (inst_.rejections) inst_.rejections->inc();
        close_span();
        return;
    }

    // Load shedding: a broker under a request storm answers only what its
    // discovery budget allows. The request has already flooded (above), so
    // shedding here silences this broker without silencing the network.
    if (response_budget_.limited() &&
        !response_budget_.try_consume(broker_->local_clock().now())) {
        ++stats_.requests_shed;
        if (inst_.shed) inst_.shed->inc();
        last_shed_ = broker_->local_clock().now();
        NARADA_DEBUG("discovery", "{}: shed discovery request {} (over budget)",
                     broker_->name(), view.request_id.str());
        close_span();
        return;
    }
    send_response(view.request_id, view.reply_to, trace);
    close_span();
}

bool BrokerDiscoveryPlugin::overloaded() const {
    if (broker_ == nullptr || last_shed_ < 0) return false;
    return broker_->local_clock().now() - last_shed_ <= broker_->config().overload_hold;
}

bool BrokerDiscoveryPlugin::policy_admits(std::string_view credential,
                                          std::string_view realm) const {
    const config::BrokerConfig& cfg = broker_->config();
    // "not every broker within the broker network needs to respond" (§5).
    if (!cfg.respond_to_discovery) return false;
    // "A broker's response policy may predicate responses based on the
    // presentation of appropriate credentials" (§5).
    if (!cfg.required_credential.empty() && credential != cfg.required_credential) {
        return false;
    }
    // "responses be issued only if the request originated from within a
    // set of pre-defined network realms" (§5).
    if (!cfg.allowed_realms.empty() &&
        std::find(cfg.allowed_realms.begin(), cfg.allowed_realms.end(), realm) ==
            cfg.allowed_realms.end()) {
        return false;
    }
    return true;
}

void BrokerDiscoveryPlugin::send_response(const Uuid& request_id, const Endpoint& reply_to,
                                          const obs::TraceContext& trace) {
    DiscoveryResponse response;
    response.request_id = request_id;
    response.sent_utc = broker_->utc().utc_now();
    response.broker_id = identity_.broker_id;
    response.broker_name = broker_->name();
    response.hostname = identity_.hostname;
    response.endpoint = broker_->endpoint();
    response.protocols = identity_.protocols;
    response.metrics = broker_->metrics();
    response.overloaded = overloaded();
    // Echo the trace so the requester can attach its response event under
    // this broker's span (trace.parent_span was rewritten to our
    // `broker.process` span on the sampled path).
    response.trace = trace;

    // "The communication protocol used for transporting this response is
    // UDP" — one deliberately lossy datagram, so that distant brokers
    // self-filter (§5.2).
    wire::ByteWriter writer(broker_->transport().acquire_buffer());
    writer.reserve(1 + response.measured_size());
    writer.u8(wire::kMsgDiscoveryResponse);
    response.encode(writer);
    broker_->transport().send_datagram(broker_->endpoint(), reply_to, writer.take());
    ++stats_.responses_sent;
    if (inst_.responses) inst_.responses->inc();
}

void BrokerDiscoveryPlugin::set_observability(obs::MetricsRegistry* metrics,
                                              obs::SpanRecorder* spans) {
    spans_ = spans;
    inst_ = {};
    if (metrics == nullptr) return;
    const std::string node = broker_ != nullptr ? broker_->name() : identity_.hostname;
    inst_.seen = &metrics->counter("plugin_requests_seen", node);
    inst_.duplicates = &metrics->counter("plugin_duplicates_suppressed", node);
    inst_.responses = &metrics->counter("plugin_responses_sent", node);
    inst_.rejections = &metrics->counter("plugin_policy_rejections", node);
    inst_.shed = &metrics->counter("plugin_requests_shed", node);
    inst_.ads = &metrics->counter("plugin_advertisements_sent", node);
    seen_requests_.set_instruments(&metrics->counter("plugin_dedup_evictions", node),
                                   &metrics->gauge("plugin_dedup_occupancy", node));
    if (security_ != nullptr) security_->set_observability(metrics, node);
}

std::string BrokerDiscoveryPlugin::debug_snapshot() const {
    obs::JsonWriter w;
    w.begin_object()
        .field("component", "broker_plugin")
        .field("broker", broker_ != nullptr ? broker_->name() : identity_.hostname)
        .field("overloaded", overloaded())
        .field("dedup_occupancy", static_cast<std::uint64_t>(seen_requests_.size()))
        .field("dedup_evictions", seen_requests_.evictions());
    if (response_budget_.limited() && broker_ != nullptr) {
        // available() refills as a side effect; mirror through a copy so a
        // snapshot never perturbs the budget.
        TokenBucket probe = response_budget_;
        w.field("response_budget_tokens", probe.available(broker_->local_clock().now()), 3);
    }
    w.key("stats").begin_object()
        .field("requests_seen", stats_.requests_seen)
        .field("duplicates_suppressed", stats_.duplicates_suppressed)
        .field("responses_sent", stats_.responses_sent)
        .field("policy_rejections", stats_.policy_rejections)
        .field("advertisements_sent", stats_.advertisements_sent)
        .field("requests_shed", stats_.requests_shed)
        .field("advertisements_sealed", stats_.advertisements_sealed)
        .field("secured_received", stats_.secured_received)
        .field("secure_open_failures", stats_.secure_open_failures)
        .end_object()
        .end_object();
    return w.take();
}

}  // namespace narada::discovery
