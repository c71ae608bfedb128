#include "discovery/client.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"
#include "discovery/security.hpp"
#include "obs/json.hpp"
#include "wire/msg_types.hpp"

namespace narada::discovery {

DiscoveryClient::DiscoveryClient(Scheduler& scheduler, transport::Transport& transport,
                                 const Endpoint& local, const Clock& local_clock,
                                 const timesvc::UtcSource& utc, config::DiscoveryConfig config,
                                 std::string hostname, std::string realm)
    : scheduler_(scheduler),
      transport_(transport),
      local_(local),
      local_clock_(local_clock),
      utc_(utc),
      config_(std::move(config)),
      hostname_(std::move(hostname)),
      realm_(std::move(realm)),
      rng_(0x64697363ull ^ (std::uint64_t{local.host} << 16) ^ local.port) {
    transport_.bind(local_, this);
}

DiscoveryClient::~DiscoveryClient() {
    cancel_timers();
    transport_.unbind(local_);
}

void DiscoveryClient::set_observability(obs::MetricsRegistry* metrics, obs::SpanRecorder* spans,
                                        double trace_sample_rate) {
    spans_ = spans;
    trace_sample_rate_ = trace_sample_rate;
    inst_ = {};
    if (metrics == nullptr) return;
    inst_.discoveries = &metrics->counter("client_discoveries", hostname_);
    inst_.successes = &metrics->counter("client_successes", hostname_);
    inst_.failures = &metrics->counter("client_failures", hostname_);
    inst_.responses = &metrics->counter("client_responses", hostname_);
    inst_.retransmits = &metrics->counter("client_retransmits", hostname_);
    inst_.breaker_skips = &metrics->counter("client_breaker_skips", hostname_);
    inst_.forced_probes = &metrics->counter("client_forced_probes", hostname_);
    inst_.breaker_opens = &metrics->counter("client_breaker_opens", hostname_);
    inst_.midflight_failovers = &metrics->counter("client_midflight_failovers", hostname_);
    inst_.selection_ms =
        &metrics->histogram("client_selection_ms", hostname_, obs::latency_buckets_ms());
    inst_.first_response_ms =
        &metrics->histogram("client_first_response_ms", hostname_, obs::latency_buckets_ms());
}

std::string DiscoveryClient::debug_snapshot() const {
    obs::JsonWriter w;
    w.begin_object()
        .field("component", "discovery_client")
        .field("hostname", hostname_)
        .field("phase", phase_ == Phase::kIdle      ? "idle"
                        : phase_ == Phase::kCollecting ? "collecting"
                                                       : "pinging")
        .field("cached_targets", static_cast<std::uint64_t>(cached_targets_.size()));
    w.key("stats").begin_object()
        .field("breaker_skips", stats_.breaker_skips)
        .field("forced_probes", stats_.forced_probes)
        .field("adaptive_closes", stats_.adaptive_closes)
        .field("midflight_failovers", stats_.midflight_failovers)
        .end_object();
    w.key("bdn_breakers").begin_array();
    for (std::size_t i = 0; i < breakers_.size() && i < config_.bdns.size(); ++i) {
        const CircuitBreaker& b = breakers_[i];
        w.begin_object()
            .field("bdn", config_.bdns[i].str())
            .field("state", to_string(b.state()))
            .field("consecutive_failures", b.consecutive_failures())
            .field("opens", b.stats().opens)
            .field("probes", b.stats().probes)
            .field("rejections", b.stats().rejections)
            .field("retry_at_us", static_cast<std::int64_t>(b.retry_at()))
            .end_object();
    }
    w.end_array().end_object();
    return w.take();
}

void DiscoveryClient::discover(Callback callback) {
    if (phase_ != Phase::kIdle) {
        throw std::logic_error("DiscoveryClient::discover: a run is already in flight");
    }
    callback_ = std::move(callback);
    report_ = DiscoveryReport{};
    active_request_ids_.clear();
    bdn_attempt_ = 0;
    fallback_done_ = false;
    pending_pongs_.clear();
    ack_pending_ = false;
    midflight_failovers_run_ = 0;
    silent_ticks_ = 0;
    responses_at_last_tick_ = 0;

    report_.request_id = Uuid::random(rng_);
    current_request_id_ = report_.request_id;
    active_request_ids_.insert(report_.request_id);

    // Sampling decision: one per run, at the root. A sampled run mints the
    // trace id every downstream hop keys on; an unsampled run carries the
    // nil id and costs each hop a single branch.
    trace_ = obs::TraceContext{};
    root_span_ = collect_span_ = ping_span_ = 0;
    if (spans_ != nullptr && trace_sample_rate_ > 0.0 &&
        (trace_sample_rate_ >= 1.0 || rng_.chance(trace_sample_rate_))) {
        trace_.trace_id = Uuid::random(rng_);
        const TimeUs now_utc = utc_.utc_now();
        root_span_ = spans_->begin(trace_.trace_id, 0, "client.discover", hostname_, now_utc);
        collect_span_ =
            spans_->begin(trace_.trace_id, root_span_, "client.collect", hostname_, now_utc);
        trace_.parent_span = root_span_;
    }
    if (inst_.discoveries) inst_.discoveries->inc();

    phase_ = Phase::kCollecting;
    run_start_ = local_clock_.now();
    send_request();

    // The collection window bounds the wait for responses: "the timeout
    // period ... specifies the amount of time a client is willing to wait
    // to gather discovery responses" (§9).
    window_timer_ = scheduler_.schedule(config_.response_window, [this] { end_collection(); });
}

Bytes DiscoveryClient::encode_request() const {
    DiscoveryRequest request;
    request.request_id = current_request_id_;
    request.requester_hostname = hostname_;
    request.reply_to = local_;
    request.protocols = {"tcp", "udp"};
    request.credential = config_.credential;
    request.realm = realm_;
    request.trace = trace_;
    wire::ByteWriter writer(transport_.acquire_buffer());
    writer.reserve(1 + request.measured_size());
    writer.u8(wire::kMsgDiscoveryRequest);
    request.encode(writer);
    return writer.take();
}

void DiscoveryClient::send_request() {
    const Bytes encoded = encode_request();
    send_to_bdn(encoded);
    if (config_.use_multicast) {
        multicast_request(encoded);
    }
    // "retransmission after predefined period of inactivity" (§7).
    if (retransmit_timer_ != kInvalidTimerHandle) scheduler_.cancel_timer(retransmit_timer_);
    retransmit_timer_ =
        scheduler_.schedule(config_.retransmit_interval, [this] { on_retransmit_timer(); });
}

void DiscoveryClient::send_to_bdn(const Bytes& encoded) {
    if (config_.bdns.empty()) return;
    // "The broker discovery request is generally issued to only [one] BDN"
    // (§3); retransmissions rotate through the configured list (§7).
    const std::size_t count = config_.bdns.size();
    std::size_t chosen = bdn_attempt_ % count;
    if (breakers_enabled()) {
        ensure_breakers();
        const TimeUs now = local_clock_.now();
        // Walk the rotation from the nominal pick, skipping open breakers
        // so dead or storming BDNs cost nothing instead of a full window.
        bool found = false;
        for (std::size_t i = 0; i < count && !found; ++i) {
            const std::size_t index = (bdn_attempt_ + i) % count;
            if (breakers_[index].allow(now, rng_)) {
                chosen = index;
                found = true;
            } else {
                ++stats_.breaker_skips;
                if (inst_.breaker_skips) inst_.breaker_skips->inc();
            }
        }
        if (!found) {
            // Every configured BDN is open: a request must still go
            // somewhere, so probe the one whose cool-down ends soonest.
            chosen = 0;
            for (std::size_t i = 1; i < count; ++i) {
                if (breakers_[i].retry_at() < breakers_[chosen].retry_at()) chosen = i;
            }
            breakers_[chosen].force_probe();
            ++stats_.forced_probes;
            if (inst_.forced_probes) inst_.forced_probes->inc();
            NARADA_DEBUG("discovery", "{}: all BDN breakers open; forced probe of {}",
                         local_.str(), config_.bdns[chosen].str());
        }
    }
    last_bdn_ = chosen;
    ack_pending_ = true;
    const bool force = force_handshake_next_;
    force_handshake_next_ = false;
    send_sealed_or_plain(security_, transport_, local_, config_.bdns[chosen], encoded, force);
}

void DiscoveryClient::ensure_breakers() {
    if (breakers_.size() == config_.bdns.size()) return;
    CircuitBreakerOptions options;
    options.failure_threshold = config_.breaker_failure_threshold;
    options.open_backoff.initial = config_.breaker_open_initial;
    options.open_backoff.max = config_.breaker_open_max;
    breakers_.assign(config_.bdns.size(), CircuitBreaker(options));
}

bool DiscoveryClient::record_bdn_failure(bool allow_failover) {
    if (!ack_pending_) return false;
    ack_pending_ = false;
    if (!breakers_enabled()) return false;
    ensure_breakers();
    if (last_bdn_ >= breakers_.size()) return false;
    breakers_[last_bdn_].record_failure(local_clock_.now(), rng_);
    if (breakers_[last_bdn_].state() != CircuitBreaker::State::kOpen) return false;
    // The breaker primitive stays obs-free (it lives below the obs
    // layer); its owner mirrors state transitions into the registry.
    if (inst_.breaker_opens) inst_.breaker_opens->inc();
    NARADA_DEBUG("discovery", "{}: breaker for BDN {} opened (retry at {})", local_.str(),
                 config_.bdns[last_bdn_].str(), breakers_[last_bdn_].retry_at());

    // Mid-flight failover: the BDN this run is waiting on is now known-dead;
    // instead of burning the rest of the window on it (or sitting out the
    // retransmit budget), re-issue to another BDN right away. The window
    // timer is untouched, so the new BDN serves the *remaining* deadline.
    if (!allow_failover || phase_ != Phase::kCollecting || !report_.candidates.empty()) {
        return false;
    }
    if (config_.bdns.size() < 2 || midflight_failovers_run_ >= config_.bdns.size()) {
        return false;
    }
    ++midflight_failovers_run_;
    ++stats_.midflight_failovers;
    if (inst_.midflight_failovers) inst_.midflight_failovers->inc();
    // The failover re-send is still a retransmission of this run's request;
    // keep the report/metric accounting the same as the plain timer path.
    ++report_.retransmits;
    if (inst_.retransmits) inst_.retransmits->inc();
    ++bdn_attempt_;  // rotate; send_to_bdn also skips any open breaker
    NARADA_DEBUG("discovery", "{}: mid-flight failover off {} ({} this run)", local_.str(),
                 config_.bdns[last_bdn_].str(), midflight_failovers_run_);
    send_request();
    return true;
}

void DiscoveryClient::multicast_request(const Bytes& encoded) {
    report_.used_multicast = true;
    transport_.send_multicast(transport::kDiscoveryMulticastGroup, local_, encoded);
}

void DiscoveryClient::on_datagram(const Endpoint& from, const Bytes& data) {
    try {
        wire::ByteReader reader(data);
        const std::uint8_t type = reader.u8();
        switch (type) {
            case wire::kMsgDiscoveryAck: on_ack(from, reader); return;
            case wire::kMsgDiscoveryResponse: on_response(reader); return;
            case wire::kMsgPong: on_pong(from, reader); return;
            default:
                NARADA_DEBUG("discovery", "{}: unexpected message type {}", local_.str(),
                             static_cast<int>(type));
        }
    } catch (const wire::WireError& e) {
        NARADA_DEBUG("discovery", "{}: malformed message from {}: {}", local_.str(), from.str(),
                     e.what());
    }
}

void DiscoveryClient::on_ack(const Endpoint& from, wire::ByteReader& reader) {
    const Uuid id = reader.uuid();
    if (!active_request_ids_.contains(id)) return;
    // Success attribution: the acking BDN (if configured) closes its breaker.
    ack_pending_ = false;
    if (breakers_enabled()) {
        ensure_breakers();
        for (std::size_t i = 0; i < breakers_.size(); ++i) {
            if (config_.bdns[i] == from) {
                breakers_[i].record_success();
                break;
            }
        }
    }
    if (phase_ != Phase::kCollecting) return;
    if (report_.time_to_ack < 0) {
        report_.time_to_ack = local_clock_.now() - run_start_;
    }
}

void DiscoveryClient::on_response(wire::ByteReader& reader) {
    if (phase_ != Phase::kCollecting) return;  // late responses are ignored
    // Filter on the borrowed view first: stale-run responses and duplicate
    // brokers are dropped before any field of the message is copied.
    const DiscoveryResponseView view = DiscoveryResponseView::peek(reader);
    if (!active_request_ids_.contains(view.request_id)) return;

    // One candidate per broker: a broker reached over several paths can
    // answer a fresh fallback UUID again.
    for (const Candidate& c : report_.candidates) {
        if (c.response.broker_id == view.broker_id) return;
    }
    const DiscoveryResponse response = view.materialize();

    Candidate candidate;
    candidate.response = response;
    // "we can have a very good estimate of the network latencies to the
    // responding brokers by subtracting the current UTC time from the UTC
    // time contained in the discovery response" (§6).
    candidate.estimated_delay = utc_.utc_now() - response.sent_utc;
    report_.candidates.push_back(std::move(candidate));
    if (inst_.responses) inst_.responses->inc();

    // Attach the response event under the responding broker's span when
    // the response carries our trace; fall back to the root span for
    // responses from paths that lost the context (e.g. cached targets
    // answering a fallback request from an older run).
    if (spans_ != nullptr && trace_.sampled()) {
        const std::uint64_t parent = response.trace.trace_id == trace_.trace_id
                                         ? response.trace.parent_span
                                         : root_span_;
        spans_->instant(trace_.trace_id, parent, "client.response", hostname_,
                        utc_.utc_now());
    }

    if (report_.time_to_first_response < 0) {
        report_.time_to_first_response = local_clock_.now() - run_start_;
        // Responses are flowing; retransmission is no longer needed.
        scheduler_.cancel_timer(retransmit_timer_);
        retransmit_timer_ = kInvalidTimerHandle;
    }

    // Adaptive window: once responses flow, watch for them to quiesce
    // instead of waiting the whole window out (§9's fixed timeout becomes
    // an upper bound).
    if (config_.adaptive_window && quiesce_timer_ == kInvalidTimerHandle &&
        config_.quiesce_ticks > 0 && config_.quiesce_tick > 0) {
        silent_ticks_ = 0;
        responses_at_last_tick_ = report_.candidates.size();
        quiesce_timer_ =
            scheduler_.schedule(config_.quiesce_tick, [this] { on_quiesce_tick(); });
    }

    // "a client might ... specify that only the first N responses must be
    // considered" (§9).
    if (config_.max_responses > 0 && report_.candidates.size() >= config_.max_responses) {
        end_collection();
    }
}

void DiscoveryClient::on_retransmit_timer() {
    retransmit_timer_ = kInvalidTimerHandle;
    if (phase_ != Phase::kCollecting || !report_.candidates.empty()) return;
    // A full inactivity period without the BDN's ack is a failure against
    // its breaker (an unreachable BDN opens after the threshold). If that
    // opened the breaker and the run failed over, the failover already
    // re-sent — this timer's retransmit would be a duplicate.
    if (record_bdn_failure(/*allow_failover=*/true)) return;
    if (report_.retransmits >= config_.max_retransmits) return;  // window will fall back
    ++report_.retransmits;
    if (inst_.retransmits) inst_.retransmits->inc();
    ++bdn_attempt_;  // failover to the next configured BDN (§7)
    // Under security the silence may mean the BDN never got our session
    // (lost handshake datagram): the retransmit re-handshakes so the run
    // recovers no matter which direction lost the first exchange.
    force_handshake_next_ = true;
    send_request();
}

void DiscoveryClient::on_quiesce_tick() {
    quiesce_timer_ = kInvalidTimerHandle;
    if (phase_ != Phase::kCollecting) return;
    if (report_.candidates.size() == responses_at_last_tick_) {
        ++silent_ticks_;
    } else {
        silent_ticks_ = 0;
        responses_at_last_tick_ = report_.candidates.size();
    }
    const DurationUs elapsed = local_clock_.now() - run_start_;
    if (!report_.candidates.empty() && silent_ticks_ >= config_.quiesce_ticks &&
        elapsed >= config_.response_window_min) {
        ++stats_.adaptive_closes;
        report_.adaptive_close = true;
        NARADA_DEBUG("discovery", "{}: responses quiesced after {} candidates; closing window",
                     local_.str(), report_.candidates.size());
        end_collection();
        return;
    }
    quiesce_timer_ = scheduler_.schedule(config_.quiesce_tick, [this] { on_quiesce_tick(); });
}

void DiscoveryClient::end_collection() {
    if (phase_ != Phase::kCollecting) return;
    scheduler_.cancel_timer(window_timer_);
    window_timer_ = kInvalidTimerHandle;
    scheduler_.cancel_timer(retransmit_timer_);
    retransmit_timer_ = kInvalidTimerHandle;
    scheduler_.cancel_timer(quiesce_timer_);
    quiesce_timer_ = kInvalidTimerHandle;

    if (report_.candidates.empty()) {
        // The whole window elapsed without even an ack: charge the BDN.
        // No failover here — the deadline is spent; fallback paths follow.
        record_bdn_failure(/*allow_failover=*/false);
        if (!fallback_done_) {
            run_fallback();
            return;
        }
        fail();
        return;
    }

    collection_end_ = local_clock_.now();
    report_.collection_duration = collection_end_ - run_start_;
    if (collect_span_ != 0) {
        spans_->end(collect_span_, utc_.utc_now());
        collect_span_ = 0;
    }

    // Shortlist: sort by weight, keep the first size(T) (§9).
    report_.target_set =
        shortlist(report_.candidates, config_.weights, config_.target_set_size);
    report_.scoring_duration = local_clock_.now() - collection_end_;

    start_pings();
}

void DiscoveryClient::run_fallback() {
    fallback_done_ = true;
    silent_ticks_ = 0;
    responses_at_last_tick_ = 0;
    // A fresh UUID: brokers that deduplicated the original request (e.g.
    // reached through a different BDN earlier) must answer this round.
    const Uuid fresh = Uuid::random(rng_);
    current_request_id_ = fresh;
    active_request_ids_.insert(fresh);
    const Bytes encoded = encode_request();

    // Path 1: "the requesting node can issue a broker request to one or
    // more of the nodes in the [cached] target set" (§7).
    if (!cached_targets_.empty()) {
        report_.used_cached_targets = true;
        for (const Endpoint& target : cached_targets_) {
            // Direct broker requests seal per target when the broker's
            // identity is known (§9.1); fallback is best-effort, so a
            // fresh handshake per unknown session is acceptable here.
            send_sealed_or_plain(security_, transport_, local_, target, encoded);
        }
    }
    // Path 2: "the approach could work even if none of the BDNs within the
    // system are functioning ... by sending the discovery request using
    // multicast" (§7).
    multicast_request(encoded);

    window_timer_ = scheduler_.schedule(config_.response_window, [this] { end_collection(); });
}

void DiscoveryClient::start_pings() {
    phase_ = Phase::kPinging;
    ping_start_ = local_clock_.now();
    if (spans_ != nullptr && trace_.sampled()) {
        ping_span_ =
            spans_->begin(trace_.trace_id, root_span_, "client.ping", hostname_, utc_.utc_now());
    }
    pending_pongs_.assign(report_.candidates.size(), 0);

    // "To compute [the precise network delay] we send ping requests to
    // individual brokers ... The ping requests and responses will also be
    // sent using UDP" (§6).
    for (std::size_t index : report_.target_set) {
        pending_pongs_[index] = config_.pings_per_broker;
        for (std::uint32_t i = 0; i < config_.pings_per_broker; ++i) {
            const Ping ping{local_clock_.now()};
            transport_.send_datagram(local_, report_.candidates[index].response.endpoint,
                                     ping.frame(transport_.acquire_buffer()));
        }
    }
    ping_timer_ = scheduler_.schedule(config_.ping_window, [this] { finish(); });
}

void DiscoveryClient::on_pong(const Endpoint& from, wire::ByteReader& reader) {
    if (phase_ != Phase::kPinging) return;
    const DurationUs rtt = local_clock_.now() - Pong::decode(reader).echoed;
    for (std::size_t index : report_.target_set) {
        Candidate& candidate = report_.candidates[index];
        if (candidate.response.endpoint != from) continue;
        // Keep the minimum across repeated pings (§10: the PING "may be
        // repeated multiple times").
        if (candidate.ping_rtt < 0 || rtt < candidate.ping_rtt) candidate.ping_rtt = rtt;
        if (pending_pongs_[index] > 0) --pending_pongs_[index];
        break;
    }
    maybe_finish_pings();
}

void DiscoveryClient::maybe_finish_pings() {
    for (std::size_t index : report_.target_set) {
        if (pending_pongs_[index] != 0) return;
    }
    finish();  // every expected pong arrived; no need to wait the window out
}

void DiscoveryClient::finish() {
    if (phase_ != Phase::kPinging) return;
    scheduler_.cancel_timer(ping_timer_);
    ping_timer_ = kInvalidTimerHandle;
    report_.ping_duration = local_clock_.now() - ping_start_;

    // "The requesting node decides on the target node based on the lowest
    // delay associated with the ping requests" (§6). Targets whose pongs
    // were all lost are skipped — UDP loss on the ping path is the same
    // remote-broker filter as on the response path (§5.2).
    std::optional<std::size_t> best;
    for (std::size_t index : report_.target_set) {
        const Candidate& candidate = report_.candidates[index];
        if (candidate.ping_rtt < 0) continue;
        if (!best || candidate.ping_rtt < report_.candidates[*best].ping_rtt) best = index;
    }
    if (!best && !report_.target_set.empty()) {
        // No pongs at all: fall back to the best-weighted candidate.
        best = report_.target_set.front();
    }
    report_.selected = best;
    report_.success = best.has_value();

    // Refresh the cached target set for §7-style recovery next time.
    if (!report_.target_set.empty()) {
        cached_targets_.clear();
        for (std::size_t index : report_.target_set) {
            cached_targets_.push_back(report_.candidates[index].response.endpoint);
        }
    }

    report_.total_duration = local_clock_.now() - run_start_;
    if (inst_.successes && report_.success) inst_.successes->inc();
    if (inst_.selection_ms) inst_.selection_ms->observe(to_ms(report_.total_duration));
    if (inst_.first_response_ms && report_.time_to_first_response >= 0) {
        inst_.first_response_ms->observe(to_ms(report_.time_to_first_response));
    }
    close_run_spans();
    phase_ = Phase::kIdle;
    if (callback_) {
        // Move the callback out first: it may start a new discover() run.
        Callback cb = std::move(callback_);
        callback_ = nullptr;
        cb(report_);
    }
}

void DiscoveryClient::fail() {
    report_.total_duration = local_clock_.now() - run_start_;
    report_.success = false;
    if (inst_.failures) inst_.failures->inc();
    close_run_spans();
    phase_ = Phase::kIdle;
    if (callback_) {
        Callback cb = std::move(callback_);
        callback_ = nullptr;
        cb(report_);
    }
}

void DiscoveryClient::close_run_spans() {
    if (spans_ == nullptr || !trace_.sampled()) return;
    const TimeUs now_utc = utc_.utc_now();
    if (collect_span_ != 0) spans_->end(collect_span_, now_utc);
    if (ping_span_ != 0) spans_->end(ping_span_, now_utc);
    if (root_span_ != 0) spans_->end(root_span_, now_utc);
    collect_span_ = ping_span_ = 0;
}

void DiscoveryClient::cancel_timers() {
    scheduler_.cancel_timer(retransmit_timer_);
    scheduler_.cancel_timer(window_timer_);
    scheduler_.cancel_timer(ping_timer_);
    scheduler_.cancel_timer(quiesce_timer_);
    retransmit_timer_ = window_timer_ = ping_timer_ = quiesce_timer_ = kInvalidTimerHandle;
}

}  // namespace narada::discovery
