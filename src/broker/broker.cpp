#include "broker/broker.hpp"

#include "broker/topic.hpp"
#include "common/log.hpp"
#include "discovery/messages.hpp"
#include "obs/json.hpp"
#include "wire/msg_types.hpp"

namespace narada::broker {

Broker::Broker(Scheduler& scheduler, transport::Transport& transport, const Endpoint& local,
               const Clock& local_clock, const timesvc::UtcSource& utc,
               config::BrokerConfig config, std::string name)
    : scheduler_(scheduler),
      transport_(transport),
      local_(local),
      local_clock_(local_clock),
      utc_(utc),
      config_(std::move(config)),
      name_(name.empty() ? "broker@" + local.str() : std::move(name)),
      rng_(0x62726F6Bull ^ (std::uint64_t{local.host} << 16) ^ local.port),
      seen_events_(config_.dedup_cache_size),
      load_model_(std::make_shared<StaticLoadModel>()) {
    overlay_id_ = Uuid::random(rng_);
    transport_.bind(local_, this);
}

Broker::~Broker() {
    scheduler_.cancel_timer(peer_heartbeat_timer_);
    transport_.unbind(local_);
}

void Broker::start() {
    if (started_) return;
    started_ = true;
    for (BrokerPlugin* plugin : plugins_) plugin->on_start();
    if (config_.peer_heartbeat_interval > 0) {
        peer_heartbeat_timer_ = scheduler_.schedule(config_.peer_heartbeat_interval,
                                                    [this] { peer_heartbeat_tick(); });
    }
}

void Broker::connect_to_peer(const Endpoint& peer) {
    if (peer == local_ || peers_.contains(peer)) return;
    peers_.emplace(peer, PeerState{/*established=*/false});
    wire::ByteWriter writer;
    writer.u8(wire::kMsgLinkHello);
    transport_.send_reliable(local_, peer, writer.take());
}

void Broker::publish(Event event) {
    if (event.id.is_nil()) event.id = Uuid::random(rng_);
    if (event.ttl == 0) event.ttl = config_.propagation_ttl;
    ingest(std::move(event), Endpoint{});
}

void Broker::add_plugin(BrokerPlugin* plugin) {
    plugins_.push_back(plugin);
    plugin->on_attach(*this);
    if (started_) plugin->on_start();
}

void Broker::add_plugin_interest(const std::string& filter) { add_local_interest(filter); }

void Broker::add_local_interest(const std::string& filter) {
    if (!is_valid_filter(filter)) return;
    if (++local_interest_refcount_[filter] == 1) {
        known_interests_.emplace(overlay_id_, filter);
        announce_interest(Uuid::random(rng_), overlay_id_, filter, /*add=*/true, Endpoint{});
    }
}

void Broker::remove_local_interest(const std::string& filter) {
    const auto it = local_interest_refcount_.find(filter);
    if (it == local_interest_refcount_.end()) return;
    if (--it->second <= 0) {
        local_interest_refcount_.erase(it);
        known_interests_.erase({overlay_id_, filter});
        announce_interest(Uuid::random(rng_), overlay_id_, filter, /*add=*/false, Endpoint{});
    }
}

void Broker::announce_interest(const Uuid& announce_id, const Uuid& origin,
                               const std::string& filter, bool add, const Endpoint& except) {
    // The announcement id travels unchanged as the flood propagates; the
    // per-broker dedup cache makes the flood self-limiting even on cyclic
    // overlays. Locally originated announcements mark their id as seen so
    // echoes coming back are dropped.
    seen_announcements_.insert(announce_id);
    wire::ByteWriter writer;
    writer.u8(wire::kMsgInterest);
    writer.uuid(announce_id);
    writer.uuid(origin);
    writer.str(filter);
    writer.boolean(add);
    const Bytes encoded = writer.take();
    for (const auto& [peer, state] : peers_) {
        if (!state.established || peer == except) continue;
        transport_.send_reliable(local_, peer, encoded);
    }
}

void Broker::handle_interest(const Endpoint& from, wire::ByteReader& reader) {
    const Uuid announce_id = reader.uuid();
    const Uuid origin = reader.uuid();
    const std::string filter = reader.str();
    const bool add = reader.boolean();
    if (!seen_announcements_.insert(announce_id)) return;
    if (origin == overlay_id_) return;  // our own interest echoed back

    const SubscriberToken token = origin_token(origin);
    if (add) {
        // The link the announcement arrived on leads toward the origin.
        link_interests_[from].subscribe(filter, token);
        known_interests_.emplace(origin, filter);
    } else {
        // The origin lost interest: purge it from every link (it may have
        // been learned over multiple paths).
        for (auto& [link, table] : link_interests_) table.unsubscribe(filter, token);
        known_interests_.erase({origin, filter});
    }
    // Propagate so the whole overlay learns; the unchanged announce id
    // bounds the flood.
    announce_interest(announce_id, origin, filter, add, from);
}

void Broker::send_interest_summary(const Endpoint& peer) {
    // Everything we know — our own interests and everything learned —
    // travels to the new neighbor as ordinary announcements; its own
    // dedup + re-flooding spreads whatever is news to its side.
    for (const auto& [origin, filter] : known_interests_) {
        wire::ByteWriter writer;
        writer.u8(wire::kMsgInterest);
        writer.uuid(Uuid::random(rng_));
        writer.uuid(origin);
        writer.str(filter);
        writer.boolean(true);
        transport_.send_reliable(local_, peer, writer.take());
    }
}

std::size_t Broker::established_peer_count() const {
    std::size_t count = 0;
    for (const auto& [ep, state] : peers_) {
        if (state.established) ++count;
    }
    return count;
}

void Broker::notify_peer_observer(const Endpoint& peer, bool up) {
    if (peer_observer_) peer_observer_(peer, up, established_peer_count());
}

std::vector<Endpoint> Broker::peers() const {
    std::vector<Endpoint> out;
    out.reserve(peers_.size());
    for (const auto& [ep, state] : peers_) {
        if (state.established) out.push_back(ep);
    }
    return out;
}

std::vector<Endpoint> Broker::clients() const {
    std::vector<Endpoint> out;
    out.reserve(clients_.size());
    for (const auto& [ep, _] : clients_) out.push_back(ep);
    return out;
}

UsageMetrics Broker::metrics() const {
    UsageMetrics m;
    m.connections = static_cast<std::uint32_t>(clients_.size() + peers_.size());
    m.broker_links = static_cast<std::uint32_t>(peers_.size());
    m.cpu_load = load_model_->cpu_load();
    m.total_memory = load_model_->total_memory();
    m.free_memory = load_model_->free_memory();
    return m;
}

void Broker::set_load_model(std::shared_ptr<const LoadModel> model) {
    if (model) load_model_ = std::move(model);
}

void Broker::on_datagram(const Endpoint& from, const Bytes& data) {
    dispatch(from, data, /*reliable=*/false);
}

void Broker::on_reliable(const Endpoint& from, const Bytes& data) {
    dispatch(from, data, /*reliable=*/true);
}

void Broker::dispatch(const Endpoint& from, const Bytes& data, bool reliable) {
    try {
        wire::ByteReader reader(data);
        const std::uint8_t type = reader.u8();
        switch (type) {
            case wire::kMsgClientHello: handle_client_hello(from, reader); return;
            case wire::kMsgClientBye: handle_client_bye(from); return;
            case wire::kMsgSubscribe: handle_subscribe(from, reader, /*add=*/true); return;
            case wire::kMsgUnsubscribe: handle_subscribe(from, reader, /*add=*/false); return;
            case wire::kMsgPublish: handle_publish(from, reader); return;
            case wire::kMsgLinkHello: handle_link_hello(from); return;
            case wire::kMsgLinkAccept: handle_link_accept(from); return;
            case wire::kMsgEventFlood: handle_event_flood(from, reader); return;
            case wire::kMsgInterest: handle_interest(from, reader); return;
            case wire::kMsgPing: handle_ping(from, reader); return;
            case wire::kMsgPong: handle_pong(from, reader); return;
            default: break;
        }
        for (BrokerPlugin* plugin : plugins_) {
            // Each plugin gets a fresh reader positioned after the type
            // octet so one plugin's parsing cannot corrupt another's.
            wire::ByteReader plugin_reader(data);
            (void)plugin_reader.u8();
            if (plugin->on_message(from, type, plugin_reader, reliable)) return;
        }
        NARADA_DEBUG("broker", "{}: unhandled message type {} from {}", name_, static_cast<int>(type),
                     from.str());
    } catch (const wire::WireError& e) {
        ++stats_.malformed_dropped;
        if (inst_.malformed) inst_.malformed->inc();
        NARADA_DEBUG("broker", "{}: malformed message from {}: {}", name_, from.str(), e.what());
    }
}

void Broker::handle_client_hello(const Endpoint& from, wire::ByteReader& reader) {
    const std::string credential = reader.str();
    if (!clients_.contains(from)) {
        const SubscriberToken token = next_token_++;
        clients_.emplace(from, ClientState{token, credential});
        token_to_client_.emplace(token, from);
    }
    wire::ByteWriter writer;
    writer.u8(wire::kMsgClientWelcome);
    writer.str(name_);
    transport_.send_reliable(local_, from, writer.take());
}

void Broker::handle_client_bye(const Endpoint& from) {
    const auto it = clients_.find(from);
    if (it == clients_.end()) return;
    subscriptions_.remove_subscriber(it->second.token);
    if (const auto fit = token_filters_.find(it->second.token); fit != token_filters_.end()) {
        for (const std::string& filter : fit->second) remove_local_interest(filter);
        token_filters_.erase(fit);
    }
    token_to_client_.erase(it->second.token);
    clients_.erase(it);
}

void Broker::handle_subscribe(const Endpoint& from, wire::ByteReader& reader, bool add) {
    const auto it = clients_.find(from);
    if (it == clients_.end()) {
        NARADA_DEBUG("broker", "{}: subscribe from unknown client {}", name_, from.str());
        return;
    }
    const std::string filter = reader.str();
    if (add) {
        if (subscriptions_.subscribe(filter, it->second.token) &&
            token_filters_[it->second.token].insert(filter).second) {
            add_local_interest(filter);
        }
    } else {
        if (subscriptions_.unsubscribe(filter, it->second.token)) {
            token_filters_[it->second.token].erase(filter);
            remove_local_interest(filter);
        }
    }
}

void Broker::handle_publish(const Endpoint& from, wire::ByteReader& reader) {
    if (!clients_.contains(from)) {
        NARADA_DEBUG("broker", "{}: publish from unknown client {}", name_, from.str());
        return;
    }
    Event event = Event::decode(reader);
    if (event.id.is_nil()) event.id = Uuid::random(rng_);
    if (event.ttl == 0 || event.ttl > config_.propagation_ttl) {
        event.ttl = config_.propagation_ttl;
    }
    ingest(std::move(event), Endpoint{});
}

void Broker::handle_link_hello(const Endpoint& from) {
    PeerState& state = peers_[from];
    const bool was_established = state.established;
    state.established = true;
    wire::ByteWriter writer;
    writer.u8(wire::kMsgLinkAccept);
    transport_.send_reliable(local_, from, writer.take());
    send_interest_summary(from);
    if (!was_established) notify_peer_observer(from, /*up=*/true);
}

void Broker::handle_link_accept(const Endpoint& from) {
    const auto it = peers_.find(from);
    const bool was_established = it != peers_.end() && it->second.established;
    if (it != peers_.end()) it->second.established = true;
    send_interest_summary(from);
    if (it != peers_.end() && !was_established) notify_peer_observer(from, /*up=*/true);
}

void Broker::handle_event_flood(const Endpoint& from, wire::ByteReader& reader) {
    Event event = Event::decode(reader);
    ingest(std::move(event), from);
}

void Broker::handle_ping(const Endpoint& from, wire::ByteReader& reader) {
    // The pinger's opaque timestamp, echoed verbatim, plus our UTC estimate
    // so the pinger can also refresh one-way estimates (§6).
    const discovery::Ping ping = discovery::Ping::decode(reader);
    ++stats_.pings_answered;
    if (inst_.pings) inst_.pings->inc();
    const discovery::Pong pong{ping.sent, utc_.utc_now()};
    transport_.send_datagram(local_, from, pong.frame({}));
}

void Broker::handle_pong(const Endpoint& from, wire::ByteReader& reader) {
    (void)discovery::Pong::decode(reader);
    const auto it = peers_.find(from);
    if (it == peers_.end()) return;
    it->second.pong_pending = false;
    it->second.missed_heartbeats = 0;
}

void Broker::peer_heartbeat_tick() {
    // Collect the victims first: drop_peer mutates peers_.
    std::vector<Endpoint> dead;
    for (auto& [peer, state] : peers_) {
        if (!state.established) continue;
        if (state.pong_pending) {
            if (++state.missed_heartbeats >= config_.peer_max_missed) {
                dead.push_back(peer);
                continue;
            }
        }
        state.pong_pending = true;
        const discovery::Ping ping{local_clock_.now()};
        transport_.send_datagram(local_, peer, ping.frame({}));
    }
    for (const Endpoint& peer : dead) drop_peer(peer);
    peer_heartbeat_timer_ = scheduler_.schedule(config_.peer_heartbeat_interval,
                                                [this] { peer_heartbeat_tick(); });
}

void Broker::drop_peer(const Endpoint& peer) {
    const auto it = peers_.find(peer);
    if (it == peers_.end()) return;
    const bool was_established = it->second.established;
    peers_.erase(it);
    ++stats_.peers_dropped;
    if (inst_.peers_dropped) inst_.peers_dropped->inc();
    // Routing state learned over this link is stale; interests still held
    // by live origins will be re-learned through their periodic paths (or
    // immediately via summaries when links re-form).
    link_interests_.erase(peer);
    NARADA_INFO("broker", "{}: dropped unresponsive peer {}", name_, peer.str());
    if (was_established) notify_peer_observer(peer, /*up=*/false);
}

void Broker::ingest(Event event, const Endpoint& source) {
    if (!seen_events_.insert(event.id)) {
        ++stats_.duplicates_suppressed;
        if (inst_.duplicates) inst_.duplicates->inc();
        return;
    }
    ++stats_.events_ingested;
    if (inst_.ingested) inst_.ingested->inc();
    // Model per-event processing cost: plugin work, delivery and fan-out
    // all happen after the broker's CPU has handled the event.
    const DurationUs delay = config_.processing_delay;
    auto process = [this, event = std::move(event), source] {
        for (BrokerPlugin* plugin : plugins_) plugin->on_event(event);
        deliver_to_clients(event);
        if (event.ttl > 1) {
            Event onward = event;
            onward.ttl = event.ttl - 1;
            forward_to_peers(onward, source);
        }
    };
    if (delay > 0) {
        scheduler_.schedule(delay, [lifetime = std::weak_ptr<bool>(lifetime_),
                                    process = std::move(process)] {
            if (!lifetime.expired()) process();
        });
    } else {
        process();
    }
}

void Broker::forward_to_peers(const Event& event, const Endpoint& except) {
    wire::ByteWriter writer;
    writer.u8(wire::kMsgEventFlood);
    event.encode(writer);
    const Bytes encoded = writer.take();
    for (const auto& [peer, state] : peers_) {
        if (!state.established || peer == except) continue;
        if (config_.routing_mode == config::RoutingMode::kRouted) {
            // Forward only toward links that announced matching interest.
            const auto it = link_interests_.find(peer);
            if (it == link_interests_.end() || it->second.match(event.topic).empty()) {
                continue;
            }
        }
        ++stats_.events_forwarded;
        if (inst_.forwarded) inst_.forwarded->inc();
        transport_.send_reliable(local_, peer, encoded);
    }
}

void Broker::deliver_to_clients(const Event& event) {
    wire::ByteWriter writer;
    writer.u8(wire::kMsgEventDeliver);
    event.encode(writer);
    const Bytes encoded = writer.take();
    for (SubscriberToken token : subscriptions_.match(event.topic)) {
        const auto it = token_to_client_.find(token);
        if (it == token_to_client_.end()) continue;
        ++stats_.events_delivered;
        if (inst_.delivered) inst_.delivered->inc();
        transport_.send_reliable(local_, it->second, encoded);
    }
}

void Broker::set_observability(obs::MetricsRegistry* metrics) {
    inst_ = {};
    if (metrics == nullptr) {
        seen_events_.set_instruments(nullptr, nullptr);
        seen_announcements_.set_instruments(nullptr, nullptr);
        return;
    }
    inst_.ingested = &metrics->counter("broker_events_ingested", name_);
    inst_.forwarded = &metrics->counter("broker_events_forwarded", name_);
    inst_.delivered = &metrics->counter("broker_events_delivered", name_);
    inst_.duplicates = &metrics->counter("broker_duplicates_suppressed", name_);
    inst_.pings = &metrics->counter("broker_pings_answered", name_);
    inst_.malformed = &metrics->counter("broker_malformed_dropped", name_);
    inst_.peers_dropped = &metrics->counter("broker_peers_dropped", name_);
    seen_events_.set_instruments(&metrics->counter("broker_dedup_evictions", name_),
                                 &metrics->gauge("broker_dedup_occupancy", name_));
    seen_announcements_.set_instruments(
        &metrics->counter("broker_announce_dedup_evictions", name_),
        &metrics->gauge("broker_announce_dedup_occupancy", name_));
}

std::string Broker::debug_snapshot() const {
    obs::JsonWriter w;
    w.begin_object()
        .field("component", "broker")
        .field("name", name_)
        .field("started", started_)
        .field("established_peers", static_cast<std::uint64_t>(established_peer_count()))
        .field("clients", static_cast<std::uint64_t>(clients_.size()))
        .field("dedup_occupancy", static_cast<std::uint64_t>(seen_events_.size()))
        .field("dedup_evictions", seen_events_.evictions());
    w.key("stats").begin_object()
        .field("events_ingested", stats_.events_ingested)
        .field("events_forwarded", stats_.events_forwarded)
        .field("events_delivered", stats_.events_delivered)
        .field("duplicates_suppressed", stats_.duplicates_suppressed)
        .field("pings_answered", stats_.pings_answered)
        .field("malformed_dropped", stats_.malformed_dropped)
        .field("peers_dropped", stats_.peers_dropped)
        .end_object();
    w.end_object();
    return w.take();
}

}  // namespace narada::broker
