// Differential tests for the BDN registry's RTT order. Whatever is read off
// the order — the injection targets of every strategy and a shard reply's
// slice — must equal what the per-request copy-and-sort it replaced makes
// of the id-ordered live entries: select_injection_targets with the same
// Rng seed, and the owned entries' stable sort by RTT cut to the limit.
// The registry is checked against a plain-map model of its contract, and a
// BDN is checked through its own write paths (ads, pongs, sync merges,
// sweeps) by the targets it actually injects at.
#include "discovery/bdn_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>

#include "discovery/bdn.hpp"
#include "sim/kernel.hpp"
#include "sim/network.hpp"
#include "wire/msg_types.hpp"

namespace narada::discovery {
namespace {

using Strategy = config::InjectionStrategy;
constexpr Strategy kStrategies[] = {Strategy::kClosestAndFarthest, Strategy::kClosestOnly,
                                    Strategy::kRandom, Strategy::kAll};

using Owned = std::function<bool(const Uuid&)>;

/// A shard reply's slice as handle_shard_query built it before the order:
/// owned live entries, stable-sorted by RTT (unmeasured last), cut to
/// `limit`.
std::vector<InjectionCandidate> reference_slice(std::vector<InjectionCandidate> live,
                                                const Owned& owned, std::size_t limit) {
    std::erase_if(live, [&](const InjectionCandidate& c) { return !owned(c.broker_id); });
    const auto rank = [](DurationUs rtt) {
        return rtt < 0 ? std::numeric_limits<DurationUs>::max() : rtt;
    };
    std::stable_sort(live.begin(), live.end(),
                     [&](const InjectionCandidate& a, const InjectionCandidate& b) {
                         return rank(a.rtt) < rank(b.rtt);
                     });
    if (live.size() > limit) live.resize(limit);
    return live;
}

/// The same slice read off the front of the order, as handle_shard_query
/// now reads it.
std::vector<InjectionCandidate> ranked_slice(const BdnRegistry& registry, TimeUs now,
                                             const Owned& owned, std::size_t limit) {
    std::vector<InjectionCandidate> out;
    if (limit == 0) return out;
    registry.visit_ranked(now, [&](const RegisteredBroker& rb) {
        if (!owned(rb.ad.broker_id)) return true;
        out.push_back({rb.ad.broker_id, rb.ad.endpoint, rb.rtt});
        return out.size() < limit;
    });
    return out;
}

/// Every read off `registry`'s order against the reference over `live`,
/// the id-ordered live entries.
void expect_reads_match(const BdnRegistry& registry, const std::vector<InjectionCandidate>& live,
                        TimeUs now, std::uint64_t draw_seed) {
    for (const Strategy strategy : kStrategies) {
        Rng ours(draw_seed);
        Rng reference(draw_seed);
        EXPECT_EQ(registry.injection_targets(strategy, now, ours),
                  select_injection_targets(live, strategy, reference))
            << config::to_string(strategy);
        EXPECT_EQ(ours.next(), reference.next()) << config::to_string(strategy) << " draws";
    }
    const Owned owned = [](const Uuid& id) { return id.lo() % 3 != 0; };
    const Owned all = [](const Uuid&) { return true; };
    for (const std::size_t limit : {0, 1, 3, 64}) {
        EXPECT_EQ(ranked_slice(registry, now, owned, limit), reference_slice(live, owned, limit));
        EXPECT_EQ(ranked_slice(registry, now, all, limit), reference_slice(live, all, limit));
    }
}

/// The registry's contract in plain maps: what each write leaves behind.
struct Model {
    struct Entry {
        Endpoint endpoint;
        DurationUs rtt = -1;
        TimeUs lease = 0;
    };

    bool put(const Uuid& id, const Endpoint& endpoint) {
        auto it = entries.find(id);
        if (it == entries.end()) {
            if (entries.size() >= capacity) return false;
            it = entries.emplace(id, Entry{endpoint}).first;
        } else if (it->second.endpoint != endpoint) {
            unmap(it->second.endpoint, id);
            it->second.endpoint = endpoint;
        }
        by_endpoint[endpoint] = id;
        return true;
    }
    void measure(const Endpoint& endpoint, DurationUs rtt) {
        const auto it = by_endpoint.find(endpoint);
        if (it != by_endpoint.end()) entries.at(it->second).rtt = rtt;
    }
    void sweep(TimeUs now) {
        for (auto it = entries.begin(); it != entries.end();) {
            if (!lapsed(it->second, now)) {
                ++it;
                continue;
            }
            unmap(it->second.endpoint, it->first);
            it = entries.erase(it);
        }
    }
    [[nodiscard]] std::vector<InjectionCandidate> live(TimeUs now) const {
        std::vector<InjectionCandidate> out;
        for (const auto& [id, e] : entries) {
            if (!lapsed(e, now)) out.push_back({id, e.endpoint, e.rtt});
        }
        return out;
    }

    std::size_t capacity = 0;
    std::map<Uuid, Entry> entries;
    std::map<Endpoint, Uuid> by_endpoint;

private:
    static bool lapsed(const Entry& e, TimeUs now) { return e.lease > 0 && now >= e.lease; }
    void unmap(const Endpoint& endpoint, const Uuid& id) {
        const auto it = by_endpoint.find(endpoint);
        if (it != by_endpoint.end() && it->second == id) by_endpoint.erase(it);
    }
};

TEST(BdnRegistryDifferential, OrderMatchesStableSortReference) {
    // Small pools make ids share and swap endpoints, RTTs tie, and the
    // capacity refuse newcomers; leases lapse long before a sweep.
    constexpr std::size_t kCapacity = 24;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        std::vector<Uuid> ids;
        for (int i = 0; i < 32; ++i) ids.push_back(Uuid::random(rng));
        std::vector<Endpoint> endpoints;
        for (std::uint16_t i = 0; i < 16; ++i) endpoints.push_back({1u + i % 3u, i});
        BdnRegistry registry(kCapacity);
        Model model;
        model.capacity = kCapacity;
        TimeUs now = kSecond;
        for (int step = 0; step < 150; ++step) {
            const Uuid& id = ids[rng.bounded(ids.size())];
            const Endpoint& endpoint = endpoints[rng.bounded(endpoints.size())];
            switch (rng.bounded(6)) {
                case 0:
                case 1: {  // an advertisement: a new id, a renewal or a move
                    BrokerAdvertisement ad;
                    ad.broker_id = id;
                    ad.endpoint = endpoint;
                    RegisteredBroker* rb = registry.put(ad);
                    ASSERT_EQ(rb != nullptr, model.put(id, endpoint));
                    if (rb != nullptr && rng.chance(0.5)) {
                        const TimeUs lease =
                            rng.chance(0.3) ? 0 : now + rng.uniform_int(-200'000, 2'000'000);
                        rb->lease_expires_at = lease;
                        model.entries.at(id).lease = lease;
                    }
                    break;
                }
                case 2:
                case 3: {  // a pong: few distinct RTTs, and future echoes
                    const DurationUs rtt = rng.chance(0.15) ? -rng.uniform_int(1, 5000)
                                                            : 1000 * rng.uniform_int(1, 6);
                    registry.measure(endpoint, rtt, now);
                    model.measure(endpoint, rtt);
                    break;
                }
                case 4:  // time passes: leases lapse, unswept
                    now += rng.uniform_int(0, 500'000);
                    break;
                case 5:
                    if (rng.chance(0.5)) {  // the refresh sweep
                        registry.erase_if(
                            [now](const RegisteredBroker& rb) { return rb.lease_lapsed(now); });
                        model.sweep(now);
                    } else if (RegisteredBroker* rb = registry.find(id)) {
                        // a sync merge that only extends a lease
                        if (rb->lease_expires_at > 0) {
                            rb->lease_expires_at += rng.uniform_int(0, 1'000'000);
                            model.entries.at(id).lease = rb->lease_expires_at;
                        }
                    }
                    break;
            }
            ASSERT_EQ(registry.size(), model.entries.size());
            ASSERT_EQ(registry.endpoint_map_size(), model.by_endpoint.size());
            for (const auto& [mid, e] : model.entries) {
                const RegisteredBroker* rb = registry.find(mid);
                ASSERT_NE(rb, nullptr);
                EXPECT_EQ(rb->ad.endpoint, e.endpoint);
                EXPECT_EQ(rb->rtt, e.rtt);
            }
            ASSERT_EQ(registry.candidates(now), model.live(now));
            expect_reads_match(registry, model.live(now), now, seed * 1000 + step);
            if (HasFailure()) return;  // one seed's report, not thousands
        }
    }
}

/// Forwards to the simulator and records every reliable send: a BDN's
/// injections, which leave inline at zero spacing.
class InjectionTap final : public transport::Transport {
public:
    explicit InjectionTap(transport::Transport& inner) : inner_(inner) {}

    void bind(const Endpoint& local, transport::MessageHandler* handler) override {
        inner_.bind(local, handler);
    }
    void unbind(const Endpoint& local) override { inner_.unbind(local); }
    void send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) override {
        inner_.send_datagram(from, to, std::move(data));
    }
    void send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) override {
        sent.push_back(to);
        inner_.send_reliable(from, to, std::move(data));
    }
    void join_multicast(transport::MulticastGroup group, const Endpoint& local) override {
        inner_.join_multicast(group, local);
    }
    void leave_multicast(transport::MulticastGroup group, const Endpoint& local) override {
        inner_.leave_multicast(group, local);
    }
    void send_multicast(transport::MulticastGroup group, const Endpoint& from,
                        Bytes data) override {
        inner_.send_multicast(group, from, std::move(data));
    }

    std::vector<Endpoint> sent;

private:
    transport::Transport& inner_;
};

Bytes framed(std::uint8_t type, const auto& message) {
    wire::ByteWriter writer;
    writer.u8(type);
    message.encode(writer);
    return writer.take();
}

TEST(BdnRegistryDifferential, BdnInjectsWhatTheStableSortSelects) {
    // Three BDNs, one per deterministic strategy, take the same direct ads
    // and pongs and the same sync merges from a peer; leases lapse,
    // registrations expire and sweeps run between steps. After every step
    // each injects one request, inline, at the reference's targets over
    // its own id-ordered live registry.
    constexpr Strategy kChecked[] = {Strategy::kClosestAndFarthest, Strategy::kClosestOnly,
                                     Strategy::kAll};
    // Coverage over all seeds: merged entries, swept entries, and requests
    // served while a lapsed entry still waited for the sweep.
    std::uint64_t merged = 0;
    std::uint64_t swept = 0;
    std::uint64_t served_past_lapsed = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE(seed);
        sim::Kernel kernel;
        sim::SimNetwork net(kernel, seed);
        const HostId bdn_host = net.add_host({"bdn", "S", "r", 0});
        const HostId peer_host = net.add_host({"peer", "S", "r", 0});
        const HostId broker_host = net.add_host({"brokers", "S", "r", 0});
        const Endpoint client{net.add_host({"client", "S", "r", 0}), 7200};
        net.set_default_link({from_ms(1), 0, 1});
        const Clock& clock = net.host_clock(bdn_host);

        config::BdnConfig cfg;
        cfg.injection_spacing = 0;
        cfg.ad_lease = from_ms(2000);
        cfg.registration_expiry = from_ms(1500);
        cfg.ping_refresh_interval = from_ms(400);
        std::vector<std::unique_ptr<InjectionTap>> taps;
        std::vector<std::unique_ptr<Bdn>> bdns;
        config::BdnConfig peer_cfg;
        peer_cfg.ad_lease = from_ms(1200);
        peer_cfg.registry_sync_interval = from_ms(300);
        for (const Strategy strategy : kChecked) {
            cfg.injection = strategy;
            taps.push_back(std::make_unique<InjectionTap>(net));
            bdns.push_back(std::make_unique<Bdn>(
                kernel, *taps.back(),
                Endpoint{bdn_host, static_cast<std::uint16_t>(7100 + bdns.size())}, clock, cfg));
            peer_cfg.sync_peers.push_back(bdns.back()->endpoint());
        }
        Bdn peer(kernel, net, Endpoint{peer_host, 7100}, net.host_clock(peer_host), peer_cfg);
        for (auto& bdn : bdns) bdn->start();
        peer.start();

        Rng rng(seed);
        std::vector<Uuid> ids;
        for (int i = 0; i < 20; ++i) ids.push_back(Uuid::random(rng));
        for (int step = 0; step < 40; ++step) {
            BrokerAdvertisement ad;
            ad.broker_id = ids[rng.bounded(ids.size())];
            ad.broker_name = "b";
            ad.endpoint = Endpoint{broker_host, static_cast<std::uint16_t>(rng.bounded(10))};
            ad.realm = "r";
            switch (rng.bounded(4)) {
                case 0: {  // a direct ad: a new id, a renewal or a move
                    const Bytes bytes = framed(wire::kMsgBrokerAdvertisement, ad);
                    for (auto& bdn : bdns) bdn->on_datagram(ad.endpoint, bytes);
                    break;
                }
                case 1:  // an ad at the peer, merged here by its next sync
                    peer.register_broker(ad);
                    break;
                case 2: {  // a pong: ties, and future echoes (unmeasured)
                    const DurationUs rtt = rng.chance(0.15) ? -rng.uniform_int(1, 5000)
                                                            : 1000 * rng.uniform_int(1, 4);
                    const Bytes bytes = Pong{clock.now() - rtt, 0}.frame({});
                    for (auto& bdn : bdns) bdn->on_datagram(ad.endpoint, bytes);
                    break;
                }
                case 3:  // time passes: syncs merge, leases lapse, sweeps run
                    kernel.run_until(kernel.now() + rng.uniform_int(0, 700'000));
                    break;
            }
            DiscoveryRequest request;
            request.request_id = Uuid::random(rng);
            request.reply_to = client;
            const Bytes bytes = framed(wire::kMsgDiscoveryRequest, request);
            for (std::size_t i = 0; i < bdns.size(); ++i) {
                std::vector<InjectionCandidate> live;
                const std::vector<RegisteredBroker> registry = bdns[i]->registry();
                for (const RegisteredBroker& rb : registry) {
                    if (!rb.lease_lapsed(clock.now())) {
                        live.push_back({rb.ad.broker_id, rb.ad.endpoint, rb.rtt});
                    }
                }
                if (live.size() < registry.size()) ++served_past_lapsed;
                Rng unused;
                taps[i]->sent.clear();
                bdns[i]->on_datagram(client, bytes);
                EXPECT_EQ(taps[i]->sent, select_injection_targets(live, kChecked[i], unused))
                    << config::to_string(kChecked[i]) << " at step " << step;
            }
            if (::testing::Test::HasFailure()) return;
        }
        const Bdn::Stats& stats = bdns[0]->stats();
        merged += stats.sync_brokers_learned;
        swept += stats.leases_expired + stats.registrations_expired;
    }
    EXPECT_GT(merged, 0u);
    EXPECT_GT(swept, 0u);
    EXPECT_GT(served_past_lapsed, 0u);
}

}  // namespace
}  // namespace narada::discovery
