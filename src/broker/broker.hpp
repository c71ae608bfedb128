// The broker node — NaradaBrokering's message-oriented middleware unit.
//
// A broker accepts client connections, maintains reliable links to peer
// brokers, matches published events against its subscription table, and
// floods events across the overlay with per-event duplicate suppression.
// Broker-network-specific services (advertisement, discovery response) are
// BrokerPlugins layered on this core so the MoM stays independent of the
// discovery protocol.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include "broker/dedup_cache.hpp"
#include "broker/event.hpp"
#include "broker/load_model.hpp"
#include "broker/subscription_table.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/scheduler.hpp"
#include "common/types.hpp"
#include "config/node_config.hpp"
#include "obs/metrics.hpp"
#include "timesvc/ntp.hpp"
#include "transport/transport.hpp"

namespace narada::broker {

class Broker;

/// Extension point for services hosted on a broker (advertiser, discovery
/// responder, ...). Plugins are non-owning observers: the caller keeps
/// them alive for the broker's lifetime.
class BrokerPlugin {
public:
    virtual ~BrokerPlugin() = default;

    /// Called once when the plugin is added. `broker` outlives the plugin's
    /// registration.
    virtual void on_attach(Broker& broker) = 0;

    /// Called when Broker::start() runs (after transport bind).
    virtual void on_start() {}

    /// Offered every message whose type the broker core does not handle.
    /// Return true to consume it.
    virtual bool on_message(const Endpoint& from, std::uint8_t type, wire::ByteReader& reader,
                            bool reliable) {
        (void)from;
        (void)type;
        (void)reader;
        (void)reliable;
        return false;
    }

    /// Called for every distinct event this broker sees (local publish or
    /// overlay flood), before client delivery.
    virtual void on_event(const Event& event) { (void)event; }
};

class Broker final : public transport::MessageHandler {
public:
    struct Stats {
        std::uint64_t events_ingested = 0;      ///< distinct events seen
        std::uint64_t events_forwarded = 0;     ///< flood sends to peers
        std::uint64_t events_delivered = 0;     ///< deliveries to clients
        std::uint64_t duplicates_suppressed = 0;
        std::uint64_t pings_answered = 0;
        std::uint64_t malformed_dropped = 0;
        std::uint64_t peers_dropped = 0;        ///< links shed by liveness
    };

    Broker(Scheduler& scheduler, transport::Transport& transport, const Endpoint& local,
           const Clock& local_clock, const timesvc::UtcSource& utc,
           config::BrokerConfig config, std::string name = {});
    ~Broker() override;

    Broker(const Broker&) = delete;
    Broker& operator=(const Broker&) = delete;

    /// Bind-time setup already happened in the constructor; start() runs
    /// plugin startup work (e.g. sending advertisements).
    void start();

    /// Initiate a reliable peer link (LinkHello / LinkAccept handshake).
    void connect_to_peer(const Endpoint& peer);

    /// Publish an event originating at this broker.
    void publish(Event event);

    /// Subscribe/unsubscribe a plugin-local consumer: matching events are
    /// passed to BrokerPlugin::on_event of every plugin (plugins filter by
    /// topic themselves); this registration only affects routing interest.
    void add_plugin(BrokerPlugin* plugin);

    /// Declare that a plugin on this broker consumes events matching
    /// `filter`. Irrelevant under flood routing; under subscription
    /// routing it keeps matching events flowing to this broker.
    void add_plugin_interest(const std::string& filter);

    /// Observer of peer-link transitions (the paper's "very dynamic and
    /// fluid" overlay, §1.2): fired after a link becomes established
    /// (`up == true`) or is dropped/lost (`up == false`), with the
    /// resulting established-peer count. One observer per broker; the
    /// RejoinSupervisor uses it to notice when the broker falls below its
    /// configured peer floor. The observer may call back into the broker
    /// (e.g. connect_to_peer).
    using PeerLinkObserver =
        std::function<void(const Endpoint& peer, bool up, std::size_t established_peers)>;
    void set_peer_observer(PeerLinkObserver observer) {
        peer_observer_ = std::move(observer);
    }
    [[nodiscard]] std::size_t established_peer_count() const;

    /// This broker's identity on the overlay (interest announcements).
    [[nodiscard]] const Uuid& overlay_id() const { return overlay_id_; }

    // --- introspection -------------------------------------------------------
    [[nodiscard]] const Endpoint& endpoint() const { return local_; }
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] const config::BrokerConfig& config() const { return config_; }
    [[nodiscard]] std::vector<Endpoint> peers() const;
    [[nodiscard]] std::vector<Endpoint> clients() const;
    [[nodiscard]] UsageMetrics metrics() const;
    [[nodiscard]] const Stats& stats() const { return stats_; }

    /// Mirror the broker core's counters into a metrics registry (null =
    /// off). The instruments are labelled with the broker's name; the hot
    /// path stays atomics-only.
    void set_observability(obs::MetricsRegistry* metrics);
    /// JSON introspection dump: overlay shape and lifetime counters.
    [[nodiscard]] std::string debug_snapshot() const;

    // --- services for plugins -------------------------------------------------
    [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
    [[nodiscard]] transport::Transport& transport() { return transport_; }
    [[nodiscard]] const Clock& local_clock() const { return local_clock_; }
    [[nodiscard]] const timesvc::UtcSource& utc() const { return utc_; }
    [[nodiscard]] Rng& rng() { return rng_; }

    void set_load_model(std::shared_ptr<const LoadModel> model);
    [[nodiscard]] const LoadModel& load_model() const { return *load_model_; }

    // --- MessageHandler --------------------------------------------------------
    void on_datagram(const Endpoint& from, const Bytes& data) override;
    void on_reliable(const Endpoint& from, const Bytes& data) override;

private:
    struct ClientState {
        SubscriberToken token;
        std::string credential;
    };
    struct PeerState {
        bool established = false;
        std::uint32_t missed_heartbeats = 0;
        bool pong_pending = false;
    };

    void dispatch(const Endpoint& from, const Bytes& data, bool reliable);
    void handle_client_hello(const Endpoint& from, wire::ByteReader& reader);
    void handle_client_bye(const Endpoint& from);
    void handle_subscribe(const Endpoint& from, wire::ByteReader& reader, bool add);
    void handle_publish(const Endpoint& from, wire::ByteReader& reader);
    void handle_link_hello(const Endpoint& from);
    void handle_link_accept(const Endpoint& from);
    void handle_event_flood(const Endpoint& from, wire::ByteReader& reader);
    void handle_ping(const Endpoint& from, wire::ByteReader& reader);
    void handle_interest(const Endpoint& from, wire::ByteReader& reader);
    void handle_pong(const Endpoint& from, wire::ByteReader& reader);

    /// Periodic peer-link liveness sweep: ping every established peer and
    /// shed links whose pongs stopped coming.
    void peer_heartbeat_tick();
    /// Remove a peer link and its routing state.
    void drop_peer(const Endpoint& peer);
    /// Tell the registered observer about a link transition.
    void notify_peer_observer(const Endpoint& peer, bool up);

    // --- subscription routing (RoutingMode::kRouted) --------------------------
    /// Bump/drop the local-interest refcount; edge transitions announce.
    void add_local_interest(const std::string& filter);
    void remove_local_interest(const std::string& filter);
    /// Flood one (origin, filter, add) announcement, skipping `except`.
    /// The announce id identifies the flood instance for dedup; relays
    /// MUST pass the received id through unchanged.
    void announce_interest(const Uuid& announce_id, const Uuid& origin,
                           const std::string& filter, bool add, const Endpoint& except);
    /// Bring a fresh peer up to date with everything we know.
    void send_interest_summary(const Endpoint& peer);
    [[nodiscard]] static SubscriberToken origin_token(const Uuid& origin) {
        return origin.hi() ^ (origin.lo() * 0x9E3779B97F4A7C15ull);
    }

    /// Process a distinct event: plugins, local delivery, overlay fan-out.
    /// `source` is the peer we received it from (invalid endpoint if local).
    void ingest(Event event, const Endpoint& source);
    void forward_to_peers(const Event& event, const Endpoint& except);
    void deliver_to_clients(const Event& event);

    Scheduler& scheduler_;
    transport::Transport& transport_;
    Endpoint local_;
    const Clock& local_clock_;
    const timesvc::UtcSource& utc_;
    config::BrokerConfig config_;
    std::string name_;
    Rng rng_;

    std::map<Endpoint, PeerState> peers_;
    std::map<Endpoint, ClientState> clients_;
    std::map<SubscriberToken, Endpoint> token_to_client_;
    std::map<SubscriberToken, std::set<std::string>> token_filters_;
    SubscriberToken next_token_ = 1;
    SubscriptionTable subscriptions_;
    DedupCache seen_events_;

    // Subscription-routing state.
    Uuid overlay_id_;
    std::map<std::string, int> local_interest_refcount_;
    std::map<Endpoint, SubscriptionTable> link_interests_;  ///< per peer link
    std::set<std::pair<Uuid, std::string>> known_interests_;
    DedupCache seen_announcements_{4096};
    std::shared_ptr<const LoadModel> load_model_;
    std::vector<BrokerPlugin*> plugins_;
    PeerLinkObserver peer_observer_;
    TimerHandle peer_heartbeat_timer_ = kInvalidTimerHandle;
    /// Expires with the broker. The modelled processing step is a timer
    /// nobody cancels, so it holds a weak reference and checks it first.
    std::shared_ptr<bool> lifetime_ = std::make_shared<bool>(true);
    Stats stats_;
    bool started_ = false;

    // Observability (optional; null = off).
    struct Instruments {
        obs::Counter* ingested = nullptr;
        obs::Counter* forwarded = nullptr;
        obs::Counter* delivered = nullptr;
        obs::Counter* duplicates = nullptr;
        obs::Counter* pings = nullptr;
        obs::Counter* malformed = nullptr;
        obs::Counter* peers_dropped = nullptr;
    } inst_;
};

}  // namespace narada::broker
