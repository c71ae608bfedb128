#include "discovery/managed_connection.hpp"

#include "common/log.hpp"
#include "obs/json.hpp"
#include "wire/codec.hpp"
#include "wire/msg_types.hpp"

namespace narada::discovery {
namespace {

BackoffOptions resolve_backoff(const ManagedConnectionOptions& options) {
    BackoffOptions b = options.rediscovery_backoff;
    if (b.initial == 0) b.initial = options.heartbeat_interval;
    return b;
}

}  // namespace

ManagedConnection::ManagedConnection(Scheduler& scheduler, transport::Transport& transport,
                                     const Endpoint& heartbeat_endpoint,
                                     const Clock& local_clock, broker::PubSubClient& pubsub,
                                     DiscoveryClient& discovery, Options options)
    : scheduler_(scheduler),
      transport_(transport),
      local_(heartbeat_endpoint),
      local_clock_(local_clock),
      pubsub_(pubsub),
      discovery_(discovery),
      options_(options),
      rng_(0x6D676364ull ^ (std::uint64_t{heartbeat_endpoint.host} << 16) ^
           heartbeat_endpoint.port),
      backoff_(resolve_backoff(options)) {
    transport_.bind(local_, this);
}

ManagedConnection::~ManagedConnection() {
    scheduler_.cancel_timer(heartbeat_timer_);
    scheduler_.cancel_timer(retry_timer_);
    transport_.unbind(local_);
}

void ManagedConnection::start() { run_discovery(); }

void ManagedConnection::run_discovery() {
    if (discovering_) return;
    if (discovery_.busy()) {
        // The discovery client may be shared (another ManagedConnection, a
        // RejoinSupervisor, or the application itself) and has a run in
        // flight; discover() would throw std::logic_error from inside our
        // failover path. Defer and retry with backoff instead.
        ++stats_.busy_deferrals;
        if (inst_.busy_deferrals) inst_.busy_deferrals->inc();
        NARADA_DEBUG("managed", "{}: discovery client busy, deferring rediscovery",
                     local_.str());
        schedule_retry();
        return;
    }
    discovering_ = true;
    discovery_.discover([this](const DiscoveryReport& report) {
        discovering_ = false;
        if (!report.success) {
            ++stats_.failed_discoveries;
            if (inst_.failed_discoveries) inst_.failed_discoveries->inc();
            NARADA_WARN("managed", "{}: discovery failed, retrying", local_.str());
            schedule_retry();
            return;
        }
        backoff_.reset();
        attach(report.selected_candidate()->response.endpoint);
    });
}

void ManagedConnection::schedule_retry() {
    if (retry_timer_ != kInvalidTimerHandle) return;
    const DurationUs delay = backoff_.next(rng_);
    retry_timer_ = scheduler_.schedule(delay, [this] {
        retry_timer_ = kInvalidTimerHandle;
        run_discovery();
    });
}

void ManagedConnection::attach(const Endpoint& broker) {
    current_broker_ = broker;
    missed_ = 0;
    pong_pending_ = false;
    // PubSubClient replays its standing subscriptions on welcome, so the
    // application's filters survive the migration transparently.
    pubsub_.connect(broker);
    if (on_attached_) on_attached_(broker);
    scheduler_.cancel_timer(heartbeat_timer_);
    heartbeat_timer_ =
        scheduler_.schedule(options_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void ManagedConnection::heartbeat_tick() {
    if (!current_broker_) return;
    if (pong_pending_) {
        // The previous heartbeat went unanswered.
        ++missed_;
        if (missed_ >= options_.max_missed) {
            declare_dead();
            return;
        }
    }
    pong_pending_ = true;
    ++stats_.heartbeats_sent;
    if (inst_.heartbeats_sent) inst_.heartbeats_sent->inc();
    const Ping ping{local_clock_.now()};
    transport_.send_datagram(local_, *current_broker_, ping.frame({}));
    heartbeat_timer_ =
        scheduler_.schedule(options_.heartbeat_interval, [this] { heartbeat_tick(); });
}

void ManagedConnection::declare_dead() {
    const Endpoint dead = *current_broker_;
    NARADA_INFO("managed", "{}: broker {} unresponsive, rediscovering", local_.str(),
                dead.str());
    current_broker_.reset();
    pong_pending_ = false;
    missed_ = 0;
    if (on_broker_lost_) on_broker_lost_(dead);
    ++stats_.failovers;
    if (inst_.failovers) inst_.failovers->inc();
    run_discovery();
}

void ManagedConnection::on_datagram(const Endpoint& from, const Bytes& data) {
    try {
        wire::ByteReader reader(data);
        if (reader.u8() != wire::kMsgPong) return;
        (void)Pong::decode(reader);
        if (!current_broker_ || from != *current_broker_) return;
        ++stats_.heartbeats_answered;
        if (inst_.heartbeats_answered) inst_.heartbeats_answered->inc();
        pong_pending_ = false;
        missed_ = 0;
    } catch (const wire::WireError& e) {
        NARADA_DEBUG("managed", "{}: malformed pong from {}: {}", local_.str(), from.str(),
                     e.what());
    }
}

void ManagedConnection::set_observability(obs::MetricsRegistry* metrics) {
    inst_ = {};
    if (metrics == nullptr) return;
    const std::string node = local_.str();
    inst_.heartbeats_sent = &metrics->counter("conn_heartbeats_sent", node);
    inst_.heartbeats_answered = &metrics->counter("conn_heartbeats_answered", node);
    inst_.failovers = &metrics->counter("conn_failovers", node);
    inst_.failed_discoveries = &metrics->counter("conn_failed_discoveries", node);
    inst_.busy_deferrals = &metrics->counter("conn_busy_deferrals", node);
}

std::string ManagedConnection::debug_snapshot() const {
    obs::JsonWriter w;
    w.begin_object()
        .field("component", "managed_connection")
        .field("endpoint", local_.str())
        .field("attached", attached());
    if (current_broker_) {
        w.field("current_broker", current_broker_->str());
    } else {
        w.key("current_broker").value_null();
    }
    w.field("missed_heartbeats", static_cast<std::uint64_t>(missed_))
        .field("discovering", discovering_)
        .field("backoff_us", static_cast<std::int64_t>(backoff_.current()));
    w.key("stats").begin_object()
        .field("heartbeats_sent", stats_.heartbeats_sent)
        .field("heartbeats_answered", stats_.heartbeats_answered)
        .field("failovers", stats_.failovers)
        .field("failed_discoveries", stats_.failed_discoveries)
        .field("busy_deferrals", stats_.busy_deferrals)
        .end_object();
    w.end_object();
    return w.take();
}

}  // namespace narada::discovery
