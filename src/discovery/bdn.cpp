#include "discovery/bdn.hpp"

#include <algorithm>
#include <utility>

#include "broker/topic.hpp"
#include "common/log.hpp"
#include "discovery/security.hpp"
#include "obs/json.hpp"
#include "wire/msg_types.hpp"

namespace narada::discovery {
namespace {

/// A registry push: type octet, entry count, entries.
Bytes encode_registry_sync(const std::vector<RegistrySyncEntry>& entries) {
    std::size_t body = 1 + 4;
    for (const RegistrySyncEntry& e : entries) body += e.measured_size();
    wire::ByteWriter writer;
    writer.reserve(body);
    writer.u8(wire::kMsgBdnRegistrySync2);
    writer.u32(static_cast<std::uint32_t>(entries.size()));
    for (const RegistrySyncEntry& e : entries) e.encode(writer);
    return writer.take();
}

}  // namespace

Bdn::Bdn(Scheduler& scheduler, transport::Transport& transport, const Endpoint& local,
         const Clock& local_clock, config::BdnConfig config, std::string name)
    : scheduler_(scheduler),
      transport_(transport),
      local_(local),
      local_clock_(local_clock),
      config_(std::move(config)),
      name_(name.empty() ? "bdn@" + local.str() : std::move(name)),
      rng_(0x62646Eull ^ (std::uint64_t{local.host} << 16) ^ local.port),
      node_id_(mix64((std::uint64_t{local.host} << 16) | local.port)) {
    rebuild_ring(config_.peer_group);
    transport_.bind(local_, this);
}

Bdn::~Bdn() {
    scheduler_.cancel_timer(refresh_timer_);
    scheduler_.cancel_timer(drain_timer_);
    scheduler_.cancel_timer(sync_timer_);
    scheduler_.cancel_timer(anti_entropy_timer_);
    for (auto& [id, gather] : gathers_) scheduler_.cancel_timer(gather.timer);
    transport_.unbind(local_);
}

void Bdn::start() {
    if (started_) return;
    started_ = true;
    refresh_distances();
    if (config_.registry_sync_interval > 0 && !config_.sync_peers.empty()) {
        arm_sync_timer();
    }
    if (federated() && config_.anti_entropy_interval > 0) {
        arm_anti_entropy_timer();
    }
}

void Bdn::rebuild_ring(const std::vector<Endpoint>& members) {
    std::vector<Endpoint> group = members;
    // A config that lists peers but forgot this node still forms a correct
    // group: ownership decisions must agree with what peers compute.
    if (!group.empty() && std::find(group.begin(), group.end(), local_) == group.end()) {
        group.push_back(local_);
    }
    ring_ = ShardRing(std::move(group),
                      ShardRing::Options{config_.ring_vnodes, config_.replication_factor});
    // Order-independent member-list fingerprint: digests carry it so two
    // nodes mid-rebalance (different epochs) never compare shard ranges.
    std::uint64_t hash = mix64(0x72696E67ull ^ ring_.members().size());
    for (const Endpoint& m : ring_.members()) {
        hash ^= mix64((std::uint64_t{m.host} << 16) | m.port);
    }
    ring_hash_ = hash;
}

void Bdn::arm_sync_timer() {
    sync_timer_ = scheduler_.schedule(config_.registry_sync_interval, [this] {
        sync_registry();
        arm_sync_timer();
    });
}

void Bdn::attach_to_broker(const Endpoint& broker, const Endpoint& client_endpoint) {
    attachment_ = std::make_unique<broker::PubSubClient>(scheduler_, transport_,
                                                         client_endpoint, /*credential=*/"");
    attachment_->on_event([this](const broker::Event& event) {
        if (event.topic != broker::kBrokerAdvertisementTopic) return;
        try {
            wire::ByteReader reader(event.payload);
            handle_advertisement(BrokerAdvertisementView::peek(reader));
        } catch (const wire::WireError& e) {
            NARADA_DEBUG("bdn", "{}: bad advertisement event: {}", name_, e.what());
        }
    });
    attachment_->subscribe(std::string(broker::kBrokerAdvertisementTopic));
    attachment_->connect(broker);
}

void Bdn::announce_to(const Endpoint& broker) {
    const BdnAnnouncement announcement{local_};
    transport_.send_datagram(local_, broker, announcement.frame(transport_.acquire_buffer()));
}

void Bdn::register_broker(BrokerAdvertisement ad) {
    wire::ByteWriter writer;
    writer.reserve(ad.measured_size());
    ad.encode(writer);
    const Bytes raw = writer.take();
    wire::ByteReader reader(raw);
    handle_advertisement(BrokerAdvertisementView::peek(reader));
}

transport::RudpChannel& Bdn::rudp_channel(const Endpoint& peer) {
    auto it = rudp_channels_.find(peer);
    if (it == rudp_channels_.end()) {
        auto channel = std::make_unique<transport::RudpChannel>(
            scheduler_, transport_, local_clock_, local_, peer, transport::RudpOptions{},
            name_.empty() ? "bdn-sync" : name_ + "-sync");
        channel->on_deliver(
            [this, peer](Bytes payload) { handle_bulk_payload(peer, payload); });
        if (metrics_ != nullptr) {
            channel->set_observability(metrics_, name_ + "->" + peer.str());
        }
        it = rudp_channels_.emplace(peer, std::move(channel)).first;
    }
    return *it->second;
}

transport::RudpChannel& Bdn::push_lane(const Endpoint& peer) {
    transport::RudpChannel& channel = rudp_channel(peer);
    if (channel.state() == transport::RudpChannel::State::kAbandoned) {
        // The lane gave up on this peer (dead long enough to abandon); a
        // push is exactly the moment to try a fresh start. The peer may
        // have restarted empty — forget what it held so the next periodic
        // push is unconditional.
        channel.reset();
        last_push_digest_.erase(peer);
    }
    return channel;
}

const transport::RudpChannel* Bdn::sync_channel(const Endpoint& peer) const {
    const auto it = rudp_channels_.find(peer);
    return it != rudp_channels_.end() ? it->second.get() : nullptr;
}

void Bdn::sync_registry() {
    if (registry_.empty() || config_.sync_peers.empty()) return;
    // Digest over (id, origin, version) of the unexpired registry, with the
    // entry count folded in so n entries xoring to zero differ from zero
    // entries. Leases are excluded on purpose: a renewal mints a fresh
    // version (digest changes, push happens), but mere clock progress must
    // not defeat the skip.
    const auto [fold, unexpired] = registry_digest(nullptr);
    const std::uint64_t snapshot_digest = mix64(fold ^ unexpired);

    // One snapshot, encoded lazily (every peer may be up to date) and only
    // once; each peer's lane gets its own copy (the channel references the
    // payload in place until fully acked).
    Bytes snapshot;
    bool encoded = false;

    for (const Endpoint& peer : config_.sync_peers) {
        if (peer == local_) continue;
        transport::RudpChannel& channel = push_lane(peer);
        const auto digest_it = last_push_digest_.find(peer);
        if (digest_it != last_push_digest_.end() && digest_it->second == snapshot_digest) {
            ++stats_.sync_skipped_unchanged;
            if (inst_.sync_skipped) inst_.sync_skipped->inc();
            continue;
        }
        if (!encoded) {
            encoded = true;
            const TimeUs now = local_clock_.now();
            std::vector<RegistrySyncEntry> entries;
            entries.reserve(registry_.size());
            for (const auto& [id, rb] : registry_) {
                // An expired entry awaiting the sweep must not travel: the
                // receiver's merge would drop it anyway (<= 0 remaining).
                if (rb.lease_lapsed(now)) continue;
                entries.push_back(make_sync_entry(rb));
            }
            snapshot = encode_registry_sync(entries);
        }
        if (channel.send_bulk(snapshot)) {
            ++stats_.sync_pushes;
            last_push_digest_[peer] = snapshot_digest;
        } else {
            ++stats_.sync_push_failures;
        }
    }
}

RegistrySyncEntry Bdn::make_sync_entry(const RegisteredBroker& rb) const {
    RegistrySyncEntry e;
    e.ad = rb.ad;
    e.lease_remaining =
        rb.lease_expires_at > 0 ? rb.lease_expires_at - local_clock_.now() : -1;
    e.origin = rb.origin;
    e.version = rb.version;
    return e;
}

std::pair<std::uint64_t, std::uint32_t> Bdn::registry_digest(const Endpoint* peer) const {
    const TimeUs now = local_clock_.now();
    std::uint64_t fold = 0;
    std::uint32_t count = 0;
    for (const auto& [id, rb] : registry_) {
        if (rb.lease_lapsed(now)) continue;
        if (peer != nullptr && (!ring_.owns(local_, id) || !ring_.owns(*peer, id))) continue;
        fold ^= mix64(id.hi() ^ mix64(id.lo() ^ mix64(rb.origin ^ mix64(rb.version))));
        ++count;
    }
    return {fold, count};
}

bool Bdn::push_entries(const Endpoint& peer, const std::vector<RegistrySyncEntry>& entries) {
    if (push_lane(peer).send_bulk(encode_registry_sync(entries))) {
        ++stats_.sync_pushes;
        return true;
    }
    ++stats_.sync_push_failures;
    return false;
}

void Bdn::handle_bulk_payload(const Endpoint& peer, const Bytes& payload) {
    try {
        wire::ByteReader reader(payload);
        const std::uint8_t type = reader.u8();
        if (type != wire::kMsgBdnRegistrySync2) {
            NARADA_DEBUG("bdn", "{}: unexpected bulk payload type {} from {}", name_,
                         static_cast<int>(type), peer.str());
            return;
        }
        const std::uint32_t count = reader.u32();
        ++stats_.sync_received;
        for (std::uint32_t i = 0; i < count; ++i) {
            merge_entry(RegistrySyncEntry::decode(reader));
        }
        NARADA_DEBUG("bdn", "{}: registry sync from {}: {} entries", name_, peer.str(), count);
    } catch (const wire::WireError& e) {
        NARADA_DEBUG("bdn", "{}: bad registry sync from {}: {}", name_, peer.str(), e.what());
    }
}

void Bdn::merge_entry(const RegistrySyncEntry& entry) {
    if (!realm_accepted(entry.ad.realm)) {
        ++stats_.ads_filtered;
        return;
    }
    // Never resurrect an expired lease: the sender encoded what was left of
    // the grant, and nothing was left.
    if (entry.lease_remaining != -1 && entry.lease_remaining <= 0) {
        ++stats_.sync_expired_dropped;
        return;
    }
    const TimeUs now = local_clock_.now();
    // The merged lease is the sender's *remaining* time clamped to our own
    // policy — a sync may shorten what a fresh local ad would get, never
    // extend it. -1 = the sender doesn't lease; fall back to local policy
    // as if the broker had advertised here directly.
    TimeUs merged_lease = 0;
    if (entry.lease_remaining == -1) {
        merged_lease = config_.ad_lease > 0 ? now + config_.ad_lease : 0;
    } else {
        DurationUs remaining = entry.lease_remaining;
        if (config_.ad_lease > 0) remaining = std::min(remaining, config_.ad_lease);
        merged_lease = now + remaining;
    }
    // Lamport advance: local writes after this merge must outrank it.
    version_counter_ = std::max(version_counter_, entry.version);

    RegisteredBroker* known = registry_.find(entry.ad.broker_id);
    if (known == nullptr) {
        RegisteredBroker* rb = registry_.put(entry.ad);
        if (rb == nullptr) {
            ++stats_.ads_refused;
            return;
        }
        rb->registered_at = now;
        rb->lease_expires_at = merged_lease;
        rb->origin = entry.origin;
        rb->version = entry.version;
        ++stats_.sync_brokers_learned;
        // Measure the newcomer immediately, as with a direct ad.
        if (started_) send_ping(entry.ad.endpoint);
        return;
    }
    RegisteredBroker& rb = *known;
    // (version, origin) totally orders concurrent writes of one broker id;
    // only a strictly newer write replaces the ad payload. RTT and pong
    // history are local measurements and always survive the merge.
    if (std::pair(entry.version, entry.origin) > std::pair(rb.version, rb.origin)) {
        registry_.put(entry.ad);
        rb.origin = entry.origin;
        rb.version = entry.version;
    }
    // Leases only grow from a merge (up to the clamped remaining time): a
    // replica with a staler view must not shorten what the broker already
    // earned here. An entry held without a lease (0 = never expires under
    // local policy) keeps that status, and a sender that doesn't track
    // leases (-1) cannot renew one — only the broker's own re-ad can.
    if (entry.lease_remaining != -1 && merged_lease > 0 && rb.lease_expires_at > 0) {
        rb.lease_expires_at = std::max(rb.lease_expires_at, merged_lease);
    }
}

void Bdn::set_observability(obs::MetricsRegistry* metrics, obs::SpanRecorder* spans,
                            const timesvc::UtcSource* utc) {
    metrics_ = metrics;
    spans_ = spans;
    utc_ = utc;
    inst_ = {};
    for (auto& [peer, channel] : rudp_channels_) {
        channel->set_observability(metrics, name_ + "->" + peer.str());
    }
    if (metrics == nullptr) return;
    inst_.requests = &metrics->counter("bdn_requests_received", name_);
    inst_.duplicates = &metrics->counter("bdn_duplicate_requests", name_);
    inst_.acks = &metrics->counter("bdn_acks_sent", name_);
    inst_.injections = &metrics->counter("bdn_injections", name_);
    inst_.shed_quota = &metrics->counter("bdn_requests_shed_quota", name_);
    inst_.shed_overflow = &metrics->counter("bdn_requests_shed_overflow", name_);
    inst_.serviced = &metrics->counter("bdn_requests_serviced", name_);
    inst_.ads = &metrics->counter("bdn_ads_received", name_);
    inst_.pings = &metrics->counter("bdn_pings_sent", name_);
    inst_.pongs = &metrics->counter("bdn_pongs_received", name_);
    inst_.leases_expired = &metrics->counter("bdn_leases_expired", name_);
    inst_.ads_forwarded = &metrics->counter("bdn_ads_forwarded", name_);
    inst_.gathers_partial = &metrics->counter("bdn_gathers_partial", name_);
    inst_.sync_skipped = &metrics->counter("bdn_sync_skipped", name_);
    inst_.rejected_ads = &metrics->counter("crypto_rejected_ads", name_);
    if (security_ != nullptr) security_->set_observability(metrics, name_);
    inst_.queue_depth = &metrics->gauge("bdn_queue_depth", name_);
    inst_.fanout =
        &metrics->histogram("bdn_injection_fanout", name_, {1, 2, 4, 8, 16, 32, 64});
    seen_requests_.set_instruments(&metrics->counter("bdn_dedup_evictions", name_),
                                   &metrics->gauge("bdn_dedup_occupancy", name_));
}

std::string Bdn::debug_snapshot() const {
    const TimeUs now = local_clock_.now();
    obs::JsonWriter w;
    w.begin_object()
        .field("component", "bdn")
        .field("name", name_)
        .field("started", started_)
        .field("queue_depth", static_cast<std::uint64_t>(ingest_queue_.size()))
        .field("dedup_occupancy", static_cast<std::uint64_t>(seen_requests_.size()))
        .field("dedup_evictions", seen_requests_.evictions())
        .field("endpoint_map_size", static_cast<std::uint64_t>(registry_.endpoint_map_size()));
    w.key("stats").begin_object()
        .field("ads_received", stats_.ads_received)
        .field("ads_filtered", stats_.ads_filtered)
        .field("ads_refused", stats_.ads_refused)
        .field("requests_received", stats_.requests_received)
        .field("duplicate_requests", stats_.duplicate_requests)
        .field("acks_sent", stats_.acks_sent)
        .field("injections", stats_.injections)
        .field("credential_rejections", stats_.credential_rejections)
        .field("requests_shed_quota", stats_.requests_shed_quota)
        .field("requests_shed_overflow", stats_.requests_shed_overflow)
        .field("requests_serviced", stats_.requests_serviced)
        .field("queue_depth_peak", stats_.queue_depth_peak)
        .field("leases_renewed", stats_.leases_renewed)
        .field("leases_expired", stats_.leases_expired)
        .field("registrations_expired", stats_.registrations_expired)
        .field("sync_pushes", stats_.sync_pushes)
        .field("sync_push_failures", stats_.sync_push_failures)
        .field("sync_received", stats_.sync_received)
        .field("sync_brokers_learned", stats_.sync_brokers_learned)
        .field("sync_skipped_unchanged", stats_.sync_skipped_unchanged)
        .field("sync_expired_dropped", stats_.sync_expired_dropped)
        .field("ads_forwarded", stats_.ads_forwarded)
        .field("forwards_received", stats_.forwards_received)
        .field("forwards_dropped", stats_.forwards_dropped)
        .field("gathers", stats_.gathers)
        .field("gathers_partial", stats_.gathers_partial)
        .field("anti_entropy_rounds", stats_.anti_entropy_rounds)
        .field("digests_matched", stats_.digests_matched)
        .field("digest_mismatch_pushes", stats_.digest_mismatch_pushes)
        .field("rebalance_handoffs", stats_.rebalance_handoffs)
        .field("secured_received", stats_.secured_received)
        .field("secure_open_failures", stats_.secure_open_failures)
        .field("ads_rejected_unauthenticated", stats_.ads_rejected_unauthenticated)
        .end_object();
    if (federated()) {
        w.key("ring").begin_object()
            .field("members", static_cast<std::uint64_t>(ring_.size()))
            .field("replication", static_cast<std::uint64_t>(ring_.replication()))
            .field("pending_gathers", static_cast<std::uint64_t>(gathers_.size()))
            .end_object();
    }
    if (!rudp_channels_.empty()) {
        w.key("sync_channels").begin_array();
        for (const auto& [peer, channel] : rudp_channels_) {
            w.begin_object()
                .field("peer", peer.str())
                .field("state", transport::to_string(channel->state()))
                .field("in_flight", static_cast<std::uint64_t>(channel->in_flight()))
                .field("srtt_ms", to_ms(channel->srtt()), 3)
                .end_object();
        }
        w.end_array();
    }
    w.key("registry").begin_array();
    for (const auto& [id, rb] : registry_) {
        w.begin_object()
            .field("broker", rb.ad.broker_name)
            .field("rtt_ms", rb.rtt < 0 ? -1.0 : to_ms(rb.rtt), 3)
            .field("age_ms", to_ms(now - rb.registered_at), 3)
            .field("last_pong_age_ms",
                   rb.last_pong > 0 ? to_ms(now - rb.last_pong) : -1.0, 3)
            .field("lease_remaining_ms",
                   rb.lease_expires_at > 0 ? to_ms(rb.lease_expires_at - now) : -1.0, 3)
            .end_object();
    }
    w.end_array().end_object();
    return w.take();
}

std::vector<Bdn::RegisteredBroker> Bdn::registry() const {
    std::vector<RegisteredBroker> out;
    out.reserve(registry_.size());
    for (const auto& [id, rb] : registry_) out.push_back(rb);
    return out;
}

std::size_t Bdn::stale_count() const {
    const TimeUs now = local_clock_.now();
    std::size_t stale = 0;
    for (const auto& [id, rb] : registry_) {
        if (rb.lease_lapsed(now)) ++stale;
    }
    return stale;
}

void Bdn::on_datagram(const Endpoint& from, const Bytes& data) {
    try {
        wire::ByteReader reader(data);
        const std::uint8_t type = reader.u8();
        switch (type) {
            case wire::kMsgBrokerAdvertisement:
                // authenticate_ads: a plain advertisement is rejected, not
                // registered — only envelope-verified ads count (§9.1).
                if (security_ != nullptr && security_->config().authenticate_ads) {
                    ++stats_.ads_rejected_unauthenticated;
                    if (inst_.rejected_ads) inst_.rejected_ads->inc();
                    return;
                }
                handle_advertisement(BrokerAdvertisementView::peek(reader));
                return;
            case wire::kMsgDiscoveryRequest:
                handle_request(from, DiscoveryRequestView::peek(reader));
                return;
            case wire::kMsgSecureEnvelope: {
                if (security_ == nullptr) {
                    NARADA_DEBUG("bdn", "{}: secure envelope from {} but security is off",
                                 name_, from.str());
                    return;
                }
                const SecureOpenResult opened = security_->open_datagram(reader);
                if (!opened.ok()) {
                    ++stats_.secure_open_failures;
                    NARADA_DEBUG("bdn", "{}: rejected envelope from {}: {}", name_,
                                 from.str(), crypto::to_string(opened.error));
                    return;
                }
                ++stats_.secured_received;
                handle_secured(from, opened);
                return;
            }
            case wire::kMsgPong:
                handle_pong(from, reader);
                return;
            case wire::kMsgAdForward: {
                // A ring peer relayed an advertisement it doesn't own. A
                // BDN without a ring has no peers, so a relay there comes
                // from nobody it trusts: it would skip authenticate_ads.
                if (!federated()) {
                    ++stats_.forwards_dropped;
                    return;
                }
                // Never re-forwarded (the sender already resolved
                // ownership), so relays cannot loop even across ring epochs.
                const BrokerAdvertisementView view = BrokerAdvertisementView::peek(reader);
                if (!realm_accepted(view.realm)) {
                    ++stats_.ads_filtered;
                    return;
                }
                if (!ring_.owns(local_, view.broker_id)) {
                    ++stats_.forwards_dropped;  // sender held a stale ring
                    return;
                }
                ++stats_.forwards_received;
                register_advertisement(view.materialize());
                return;
            }
            case wire::kMsgShardQuery:
                handle_shard_query(from, ShardQuery::decode(reader));
                return;
            case wire::kMsgShardReply:
                handle_shard_reply(from, ShardReply::decode(reader));
                return;
            case wire::kMsgRegistryDigest:
                handle_registry_digest(from, RegistryDigest::decode(reader));
                return;
            case wire::kMsgRudpData:
            case wire::kMsgRudpAck:
                // Bulk-lane frames (registry sync). Unknown senders only get
                // a channel while the map has room, so spoofed frames cannot
                // grow BDN memory without bound.
                if (!rudp_channels_.contains(from) &&
                    rudp_channels_.size() >= kMaxSyncChannels) {
                    NARADA_DEBUG("bdn", "{}: dropping RUDP frame from {} (channel cap)",
                                 name_, from.str());
                    return;
                }
                rudp_channel(from).handle_frame(type, reader);
                return;
            default:
                NARADA_DEBUG("bdn", "{}: unhandled message type {}", name_, static_cast<int>(type));
        }
    } catch (const wire::WireError& e) {
        NARADA_DEBUG("bdn", "{}: malformed message from {}: {}", name_, from.str(), e.what());
    }
}

void Bdn::handle_secured(const Endpoint& from, const SecureOpenResult& opened) {
    // The decrypted payload is a complete plain datagram (type octet +
    // body). Only perimeter types are admitted from inside an envelope:
    // intra-plane traffic (forwards, shard queries, digests, RUDP) never
    // travels sealed, and a nested envelope is rejected outright.
    try {
        wire::ByteReader reader(opened.payload);
        const std::uint8_t type = reader.u8();
        switch (type) {
            case wire::kMsgBrokerAdvertisement: {
                const BrokerAdvertisementView view = BrokerAdvertisementView::peek(reader);
                // Authenticated ads bind the envelope signer to the
                // advertised name: a verified peer still cannot register
                // an advertisement for somebody else's broker.
                if (security_->config().authenticate_ads &&
                    view.broker_name != opened.signer) {
                    ++stats_.ads_rejected_unauthenticated;
                    if (inst_.rejected_ads) inst_.rejected_ads->inc();
                    NARADA_DEBUG("bdn", "{}: ad for '{}' signed by '{}' rejected", name_,
                                 view.broker_name, opened.signer);
                    return;
                }
                handle_advertisement(view);
                return;
            }
            case wire::kMsgDiscoveryRequest:
                handle_request(from, DiscoveryRequestView::peek(reader));
                return;
            default:
                NARADA_DEBUG("bdn", "{}: type {} not accepted inside an envelope", name_,
                             static_cast<int>(type));
        }
    } catch (const wire::WireError& e) {
        NARADA_DEBUG("bdn", "{}: malformed secured payload from {}: {}", name_, from.str(),
                     e.what());
    }
}

void Bdn::set_security(SecurityContext* security) {
    security_ = security;
    if (security_ != nullptr && metrics_ != nullptr) {
        security_->set_observability(metrics_, name_);
    }
}

bool Bdn::realm_accepted(std::string_view realm) const {
    // "this BDN may choose to store the advertisement or ignore it if the
    // BDN is interested in specific advertisements" (§2.3).
    return config_.accepted_realms.empty() ||
           std::find(config_.accepted_realms.begin(), config_.accepted_realms.end(), realm) !=
               config_.accepted_realms.end();
}

void Bdn::handle_advertisement(const BrokerAdvertisementView& view) {
    ++stats_.ads_received;
    if (inst_.ads) inst_.ads->inc();
    // Realm filter on the borrowed view: a filtered advertisement is
    // rejected without materializing its strings.
    if (!realm_accepted(view.realm)) {
        ++stats_.ads_filtered;
        return;
    }
    if (federated() && !ring_.owns(local_, view.broker_id)) {
        // Not ours under the ring: relay the borrowed message region
        // verbatim to the owning shards, no materialization.
        forward_ad(view.broker_id, view.raw);
        return;
    }
    register_advertisement(view.materialize());
}

void Bdn::forward_ad(const Uuid& broker_id, std::span<const std::uint8_t> raw) {
    ++stats_.ads_forwarded;
    if (inst_.ads_forwarded) inst_.ads_forwarded->inc();
    wire::ByteWriter writer(transport_.acquire_buffer());
    writer.reserve(1 + raw.size());
    writer.u8(wire::kMsgAdForward);
    writer.raw(raw.data(), raw.size());
    const Bytes framed = writer.take();
    for (const Endpoint& owner : ring_.owners(broker_id)) {
        if (owner == local_) continue;
        transport_.send_datagram(local_, owner, framed);
    }
}

void Bdn::register_advertisement(const BrokerAdvertisement& ad) {
    const bool known = registry_.find(ad.broker_id) != nullptr;
    // A renewal keeps its RTT and its place in the distance table.
    RegisteredBroker* stored = registry_.put(ad);
    if (stored == nullptr) {
        ++stats_.ads_refused;
        return;
    }
    RegisteredBroker& rb = *stored;
    rb.registered_at = local_clock_.now();
    // Every accepted fresh advertisement mints a new version at this node:
    // renewals change the registry digest (so peers hear about them), and
    // (version, origin) resolves concurrent writes during merges.
    rb.origin = node_id_;
    rb.version = mint_version();
    // Renewable lease: the advertisement itself is the renewal message.
    // A broker that stops re-advertising (crashed, partitioned away) ages
    // out; a rejoining broker re-asserts itself with a fresh ad.
    if (config_.ad_lease > 0) {
        rb.lease_expires_at = local_clock_.now() + config_.ad_lease;
        if (known) ++stats_.leases_renewed;
    }
    // Measure the newcomer immediately so the injection strategy can use it.
    if (!known && started_) send_ping(ad.endpoint);
}

void Bdn::handle_request(const Endpoint& from, const DiscoveryRequestView& view) {
    ++stats_.requests_received;
    if (inst_.requests) inst_.requests->inc();

    // A sampled request opens the BDN's span at receipt — the moment the
    // client's span hands over — and carries it as its trace parent from
    // here on, so the queue wait and the injection nest under it.
    obs::TraceContext trace = view.trace;
    std::uint64_t span = 0;
    if (tracing() && trace.sampled()) {
        span = spans_->begin(trace.trace_id, trace.parent_span, "bdn.request", name_, span_now());
        if (span != 0) trace.parent_span = span;
    }
    const auto end_span = [this, span] {
        if (span != 0) spans_->end(span, span_now());
    };

    // Private BDNs "must also require the presentation of appropriate
    // credentials before [deciding] whether [to] disseminate the broker
    // discovery request" (§2.4).
    if (!config_.required_credential.empty() &&
        view.credential != config_.required_credential) {
        ++stats_.credential_rejections;
        end_span();
        return;
    }

    // "Multiple requests forwarded to the same BDN would be idempotent"
    // (§3): only the first copy is disseminated. Duplicates cost nothing
    // and are still acked, so a requester whose ack was lost learns we are
    // alive.
    if (seen_requests_.contains(view.request_id)) {
        ++stats_.duplicate_requests;
        if (inst_.duplicates) inst_.duplicates->inc();
        send_ack(view.request_id, view.reply_to);
        end_span();
        return;
    }
    const bool queued = config_.ingest_queue_limit > 0;
    if (queued && shed_request(from, view.request_id)) {
        end_span();
        return;
    }

    send_ack(view.request_id, view.reply_to);
    seen_requests_.insert(view.request_id);
    // Framed once: the queue, the gather or the spaced sends own the bytes
    // from here on (they outlive the receive buffer). An unsampled request
    // keeps its own trace parent, so its bytes go out verbatim.
    AdmittedRequest request{view.request_id, trace, frame(view.raw, trace.parent_span), span};
    if (!queued) {
        // Legacy inline path: unbounded, serviced as fast as they arrive.
        dispatch(std::move(request));
        return;
    }
    ingest_queue_.push_back(std::move(request));
    stats_.queue_depth_peak = std::max<std::uint64_t>(stats_.queue_depth_peak,
                                                      ingest_queue_.size());
    if (inst_.queue_depth) inst_.queue_depth->set(static_cast<double>(ingest_queue_.size()));
    if (drain_timer_ == kInvalidTimerHandle) {
        // First element: service it after one service interval, modeling
        // the BDN's per-request processing cost.
        drain_timer_ =
            scheduler_.schedule(config_.request_service_cost, [this] { drain_queue(); });
    }
}

bool Bdn::shed_request(const Endpoint& from, const Uuid& request_id) {
    // Shed order per policy: over-quota sources, then queue overflow
    // (duplicates were filtered before). Advertisement renewals never pass
    // through here — handle_advertisement stays inline — so leases cannot
    // expire because of a request storm.
    if (config_.per_source_rate > 0.0) {
        if (source_buckets_.size() >= kMaxTrackedSources &&
            !source_buckets_.contains(from.host)) {
            // Bounded memory under spoofed floods: forget everyone and
            // start over rather than growing without limit.
            source_buckets_.clear();
        }
        auto [it, inserted] = source_buckets_.try_emplace(
            from.host, config_.per_source_rate, config_.per_source_burst);
        if (!it->second.try_consume(local_clock_.now())) {
            ++stats_.requests_shed_quota;
            if (inst_.shed_quota) inst_.shed_quota->inc();
            NARADA_DEBUG("bdn", "{}: shed request {} from host {} (over quota)", name_,
                         request_id.str(), from.host);
            return true;
        }
    }
    if (ingest_queue_.size() >= config_.ingest_queue_limit) {
        ++stats_.requests_shed_overflow;
        if (inst_.shed_overflow) inst_.shed_overflow->inc();
        NARADA_DEBUG("bdn", "{}: shed request {} from host {} (queue full at {})", name_,
                     request_id.str(), from.host, ingest_queue_.size());
        return true;
    }
    return false;
}

std::shared_ptr<const Bytes> Bdn::frame(std::span<const std::uint8_t> raw,
                                        std::uint64_t parent_span) {
    wire::ByteWriter writer(transport_.acquire_buffer());
    writer.reserve(1 + raw.size());
    writer.u8(wire::kMsgDiscoveryRequest);
    copy_with_trace_parent(writer, raw, parent_span);
    return std::make_shared<const Bytes>(writer.take());
}

void Bdn::dispatch(AdmittedRequest request) {
    if (federated()) {
        start_gather(request.request_id, std::move(request.framed));
    } else {
        const std::vector<Endpoint> targets = injection_targets();
        // A sampled request gets a `bdn.inject` span covering the whole
        // spaced fan-out; the injected copies carry it as their trace
        // parent so broker-side spans nest under the injection.
        std::uint64_t inject_span = 0;
        if (tracing() && request.trace.sampled() && !targets.empty()) {
            inject_span = spans_->begin(request.trace.trace_id, request.trace.parent_span,
                                        "bdn.inject", name_, span_now());
            if (inject_span != 0) {
                request.framed = frame(
                    std::span<const std::uint8_t>(*request.framed).subspan(1), inject_span);
            }
        }
        inject(std::move(request.framed), targets);
        if (inject_span != 0 && config_.injection_spacing == 0) {
            spans_->end(inject_span, span_now());  // every send went out inline
        } else if (inject_span != 0) {
            const DurationUs last_send = std::max<DurationUs>(
                0, static_cast<DurationUs>(targets.size() - 1) * config_.injection_spacing);
            scheduler_.schedule(last_send, [spans = spans_, utc = utc_, inject_span] {
                spans->end(inject_span, utc->utc_now());
            });
        }
    }
    // The request span covers receipt, any queue wait and injection start.
    if (request.span != 0 && spans_ != nullptr) spans_->end(request.span, span_now());
}

void Bdn::drain_queue() {
    drain_timer_ = kInvalidTimerHandle;
    if (ingest_queue_.empty()) return;
    AdmittedRequest request = std::move(ingest_queue_.front());
    ingest_queue_.pop_front();
    if (inst_.queue_depth) inst_.queue_depth->set(static_cast<double>(ingest_queue_.size()));
    ++stats_.requests_serviced;
    if (inst_.serviced) inst_.serviced->inc();
    dispatch(std::move(request));
    if (!ingest_queue_.empty()) {
        drain_timer_ =
            scheduler_.schedule(config_.request_service_cost, [this] { drain_queue(); });
    }
}

void Bdn::send_ack(const Uuid& request_id, const Endpoint& reply_to) {
    // "A BDN is expected to acknowledge the receipt of a discovery request
    // in a timely manner" (§3). Acks are re-sent even for duplicates so a
    // requester whose ack was lost learns the BDN is alive.
    wire::ByteWriter ack(transport_.acquire_buffer());
    ack.reserve(1 + 16);
    ack.u8(wire::kMsgDiscoveryAck);
    ack.uuid(request_id);
    transport_.send_datagram(local_, reply_to, ack.take());
    ++stats_.acks_sent;
    if (inst_.acks) inst_.acks->inc();
}

void Bdn::send_ping(const Endpoint& broker) {
    ++stats_.pings_sent;
    if (inst_.pings) inst_.pings->inc();
    const Ping ping{local_clock_.now()};
    transport_.send_datagram(local_, broker, ping.frame(transport_.acquire_buffer()));
}

void Bdn::handle_pong(const Endpoint& from, wire::ByteReader& reader) {
    const Pong pong = Pong::decode(reader);
    // Both counters count every well-formed pong, mapped source or not.
    ++stats_.pongs_received;
    if (inst_.pongs) inst_.pongs->inc();
    const TimeUs now = local_clock_.now();
    registry_.measure(from, now - pong.echoed, now);
}

std::vector<Endpoint> Bdn::injection_targets() {
    // Unswept expired entries never become injection points.
    return registry_.injection_targets(config_.injection, local_clock_.now(), rng_);
}

void Bdn::start_gather(const Uuid& request_id, std::shared_ptr<const Bytes> framed) {
    // Degradation first: a full gather table (request flood) or a colliding
    // id falls back to local-only injection — worse selection quality, but
    // the request still propagates.
    if (gathers_.size() >= kMaxGathers || gathers_.contains(request_id)) {
        inject(std::move(framed), injection_targets());
        return;
    }
    ++stats_.gathers;
    GatherState& gather = gathers_[request_id];
    gather.framed = std::move(framed);
    // Seeded in id order; shard replies append behind it, and
    // select_injection_targets orders the whole list.
    gather.candidates = registry_.candidates(local_clock_.now());
    for (const Endpoint& member : ring_.members()) {
        if (member != local_) gather.pending.insert(member);
    }
    if (gather.pending.empty()) {
        finalize_gather(request_id, /*partial=*/false);
        return;
    }
    const ShardQuery query{request_id, local_, config_.shard_reply_limit};
    wire::ByteWriter writer(1 + query.measured_size());
    writer.u8(wire::kMsgShardQuery);
    query.encode(writer);
    const Bytes& framed_query = writer.bytes();
    for (const Endpoint& member : gather.pending) {
        ++stats_.shard_queries_sent;
        transport_.send_datagram(local_, member, framed_query);
    }
    // Per-shard deadline: a dead or partitioned shard delays the request by
    // at most this long, then the gather finalizes with what arrived.
    gather.timer = scheduler_.schedule(config_.shard_deadline, [this, request_id] {
        ++stats_.gathers_partial;
        if (inst_.gathers_partial) inst_.gathers_partial->inc();
        finalize_gather(request_id, /*partial=*/true);
    });
}

void Bdn::finalize_gather(const Uuid& request_id, bool partial) {
    const auto it = gathers_.find(request_id);
    if (it == gathers_.end()) return;
    GatherState gather = std::move(it->second);
    gathers_.erase(it);
    if (!partial) scheduler_.cancel_timer(gather.timer);
    inject(std::move(gather.framed),
           select_injection_targets(std::move(gather.candidates), config_.injection, rng_));
}

void Bdn::handle_shard_query(const Endpoint& from, const ShardQuery& query) {
    ++stats_.shard_queries_received;
    ShardReply reply;
    reply.query_id = query.query_id;
    // The best-RTT slice, off the front of the order. 64 = the codec's
    // list-length bound; a larger ask still fits one reply.
    const std::size_t limit = std::min<std::size_t>(query.limit, 64);
    if (limit > 0) {
        registry_.visit_ranked(local_clock_.now(), [&](const RegisteredBroker& rb) {
            // Only entries this shard owns: rebalance residue stays local so
            // a coordinator never hears about one broker from a shard that
            // merely used to own it (the current owners answer for it).
            if (federated() && !ring_.owns(local_, rb.ad.broker_id)) return true;
            reply.entries.push_back({rb.ad.broker_id, rb.ad.endpoint, rb.rtt});
            return reply.entries.size() < limit;
        });
    }
    wire::ByteWriter writer(transport_.acquire_buffer());
    writer.reserve(1 + reply.measured_size());
    writer.u8(wire::kMsgShardReply);
    reply.encode(writer);
    transport_.send_datagram(local_, query.reply_to, writer.take());
    (void)from;
}

void Bdn::handle_shard_reply(const Endpoint& from, const ShardReply& reply) {
    const auto it = gathers_.find(reply.query_id);
    if (it == gathers_.end()) return;  // deadline already fired, or spoofed
    GatherState& gather = it->second;
    if (gather.pending.erase(from) == 0) return;  // unexpected or duplicate
    ++stats_.shard_replies_received;
    for (const ShardReply::Entry& e : reply.entries) {
        const bool known = std::any_of(
            gather.candidates.begin(), gather.candidates.end(),
            [&e](const InjectionCandidate& c) { return c.broker_id == e.broker_id; });
        if (!known) gather.candidates.push_back({e.broker_id, e.endpoint, e.rtt});
    }
    if (gather.pending.empty()) finalize_gather(reply.query_id, /*partial=*/false);
}

void Bdn::inject(std::shared_ptr<const Bytes> framed, const std::vector<Endpoint>& targets) {
    if (inst_.fanout) inst_.fanout->observe(static_cast<double>(targets.size()));
    // Injections are issued sequentially: each send costs the BDN its
    // per-injection processing time, so fanning out to N brokers takes
    // O(N * spacing) — the effect Figure 2 measures. At zero spacing they
    // go out inline, with no timer. A spaced send captures what it sends
    // with rather than the BDN, so destroying the BDN mid-fan-out leaves no
    // timer pointing at freed memory.
    DurationUs at = 0;
    for (const Endpoint& target : targets) {
        ++stats_.injections;
        if (inst_.injections) inst_.injections->inc();
        if (config_.injection_spacing == 0) {
            transport_.send_reliable(local_, target, *framed);
            continue;
        }
        scheduler_.schedule(at, [&transport = transport_, local = local_, target, framed] {
            transport.send_reliable(local, target, *framed);
        });
        at += config_.injection_spacing;
    }
}

void Bdn::set_peer_group(std::vector<Endpoint> members) {
    config_.peer_group = members;
    rebuild_ring(members);
    if (!federated()) return;
    // Rebalance: hand every live local entry to its owners under the new
    // ring. Entries this node no longer owns are NOT deleted — they keep
    // serving requests already in flight and age out when their leases
    // lapse, so a rebalance can only add coverage, never subtract it.
    const TimeUs now = local_clock_.now();
    std::map<Endpoint, std::vector<RegistrySyncEntry>> batches;
    for (const auto& [id, rb] : registry_) {
        if (rb.lease_lapsed(now)) continue;
        for (const Endpoint& owner : ring_.owners(id)) {
            if (owner != local_) batches[owner].push_back(make_sync_entry(rb));
        }
    }
    for (const auto& [peer, entries] : batches) {
        stats_.rebalance_handoffs += entries.size();
        push_entries(peer, entries);
    }
}

void Bdn::arm_anti_entropy_timer() {
    anti_entropy_timer_ = scheduler_.schedule(config_.anti_entropy_interval, [this] {
        run_anti_entropy();
        arm_anti_entropy_timer();
    });
}

void Bdn::run_anti_entropy() {
    if (!federated()) return;
    ++stats_.anti_entropy_rounds;
    // One digest per peer over the range both nodes own under the ring; a
    // fixed-size datagram regardless of registry size. Repairs only flow on
    // mismatch, so a converged group gossips O(peers) bytes per round.
    for (const Endpoint& peer : ring_.members()) {
        if (peer == local_) continue;
        const auto [fold, count] = registry_digest(&peer);
        const RegistryDigest msg{ring_hash_, fold, count};
        ++stats_.digests_sent;
        wire::ByteWriter writer(transport_.acquire_buffer());
        writer.reserve(1 + RegistryDigest::wire_size());
        writer.u8(wire::kMsgRegistryDigest);
        msg.encode(writer);
        transport_.send_datagram(local_, peer, writer.take());
    }
}

void Bdn::handle_registry_digest(const Endpoint& from, const RegistryDigest& digest) {
    if (!federated()) return;
    if (digest.ring_hash != ring_hash_) {
        // Another ring epoch (the sender hasn't seen the membership change
        // yet, or we haven't): comparing ranges would always mismatch and
        // push-storm, so wait for the epochs to agree.
        ++stats_.digest_ring_mismatches;
        return;
    }
    const auto [fold, count] = registry_digest(&from);
    if (fold == digest.digest && count == digest.count) {
        ++stats_.digests_matched;
        return;
    }
    ++stats_.digest_mismatch_pushes;
    // Repair: push our unexpired half of the shared range; the peer's merge
    // clamps leases and resolves versions, and its own next digest round
    // pushes back whatever we were missing. Convergent in two rounds.
    const TimeUs now = local_clock_.now();
    std::vector<RegistrySyncEntry> entries;
    for (const auto& [id, rb] : registry_) {
        if (rb.lease_lapsed(now)) continue;
        if (!ring_.owns(local_, id) || !ring_.owns(from, id)) continue;
        entries.push_back(make_sync_entry(rb));
    }
    if (!entries.empty()) push_entries(from, entries);
}

void Bdn::refresh_distances() {
    // Soft-state registry: shed brokers that stopped answering pings, and
    // evict registrations whose advertisement lease lapsed unrenewed. The
    // lease sweep is NOT gated on this node's own ad_lease policy: merged
    // entries carry the lease the sender granted, and must lapse here even
    // if this node doesn't lease its direct registrations.
    const TimeUs now = local_clock_.now();
    registry_.erase_if([&](const RegisteredBroker& rb) {
        if (config_.registration_expiry > 0 &&
            now - std::max(rb.last_pong, rb.registered_at) > config_.registration_expiry) {
            ++stats_.registrations_expired;
            return true;
        }
        if (!rb.lease_lapsed(now)) return false;
        ++stats_.leases_expired;
        if (inst_.leases_expired) inst_.leases_expired->inc();
        NARADA_DEBUG("bdn", "{}: advertisement lease of {} lapsed", name_, rb.ad.broker_name);
        return true;
    });
    for (const auto& [id, rb] : registry_) send_ping(rb.ad.endpoint);
    refresh_timer_ =
        scheduler_.schedule(config_.ping_refresh_interval, [this] { refresh_distances(); });
}

}  // namespace narada::discovery
