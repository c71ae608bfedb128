// The BDN's broker registry (paper §2) and its distance table (§4).
//
// One owner keeps three structures in lockstep: the entries by broker id,
// the endpoint map that routes a pong to its entry, and the distance
// table's order — (RTT rank, broker id), with unmeasured entries ranked
// after every measured one. That order is exactly what a stable sort by
// RTT makes of the entries in id order, so the §4 injection points, "the
// brokers that are closest and farthest from the BDN", are the first and
// last live entries of the order: a request reads them off its ends
// instead of copying and sorting the registry.
#pragma once

#include <cstddef>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "config/node_config.hpp"
#include "discovery/messages.hpp"
#include "discovery/scoring.hpp"

namespace narada::discovery {

struct RegisteredBroker {
    BrokerAdvertisement ad;
    TimeUs registered_at = 0;
    /// Measured round-trip to the broker; -1 until the first pong.
    DurationUs rtt = -1;
    TimeUs last_pong = 0;
    /// When the advertisement lease lapses (0 = no lease). Renewed only
    /// by a fresh advertisement, never by pongs.
    TimeUs lease_expires_at = 0;
    /// Version stamp for convergent replica merges: minted by `origin`
    /// (a BDN node id) whenever it accepts a fresh advertisement.
    /// (version, origin) totally orders concurrent writes of one id.
    std::uint64_t origin = 0;
    std::uint64_t version = 0;

    /// The advertisement lease has lapsed at `now` (never without one).
    [[nodiscard]] bool lease_lapsed(TimeUs now) const {
        return lease_expires_at > 0 && now >= lease_expires_at;
    }
};

class BdnRegistry {
public:
    using Entries = std::map<Uuid, RegisteredBroker>;

    /// A registry that holds at most `capacity` broker ids.
    explicit BdnRegistry(std::size_t capacity) : capacity_(capacity) {}

    // The order points into the entries.
    BdnRegistry(const BdnRegistry&) = delete;
    BdnRegistry& operator=(const BdnRegistry&) = delete;

    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] bool empty() const { return entries_.empty(); }
    [[nodiscard]] std::size_t endpoint_map_size() const { return by_endpoint_.size(); }
    /// Entries in broker-id order.
    [[nodiscard]] Entries::const_iterator begin() const { return entries_.begin(); }
    [[nodiscard]] Entries::const_iterator end() const { return entries_.end(); }

    /// The entry for `id`, or null. Callers may write its lease, version
    /// and timestamps; `ad` and `rtt` key the endpoint map and the order,
    /// so they change only through put() and measure().
    [[nodiscard]] RegisteredBroker* find(const Uuid& id);
    [[nodiscard]] const RegisteredBroker* find(const Uuid& id) const;

    /// Store `ad` under its broker id and map its endpoint to that id: the
    /// last id to advertise an endpoint owns its mapping, and an endpoint
    /// the id left is unmapped if it still names the id. A known id keeps
    /// its RTT and its place in the order. A new id enters unmeasured —
    /// unless the registry is full, when nothing changes and the result is
    /// null.
    RegisteredBroker* put(const BrokerAdvertisement& ad);

    /// A pong from `endpoint` measured `rtt` at `now`: the entry the
    /// endpoint maps to takes both and moves to its new rank. Nothing
    /// happens for an unmapped endpoint.
    void measure(const Endpoint& endpoint, DurationUs rtt, TimeUs now);

    /// Remove every entry `evict(entry)` selects, visited in id order,
    /// with its rank and its endpoint mapping (while that still names it).
    template <typename Evict>
    void erase_if(Evict&& evict);

    /// The §4 `strategy`'s injection points among the entries whose lease
    /// has not lapsed at `now`: the first and last live entries of the
    /// order (one when only one is live), the first alone, one drawn by a
    /// single `rng.bounded(live count)`, or all of them in order. Equal to
    /// select_injection_targets(candidates(now), strategy, rng), draw
    /// included; lapsed entries are skipped, never removed.
    [[nodiscard]] std::vector<Endpoint> injection_targets(config::InjectionStrategy strategy,
                                                          TimeUs now, Rng& rng) const;

    /// Call `visit(entry)` on each entry whose lease has not lapsed at
    /// `now`, in (RTT rank, broker id) order, until it returns false.
    template <typename Visit>
    void visit_ranked(TimeUs now, Visit&& visit) const;

    /// The entries live at `now` as injection candidates, in id order.
    [[nodiscard]] std::vector<InjectionCandidate> candidates(TimeUs now) const;

private:
    /// (RTT rank, broker id): an unmeasured (negative) RTT ranks last.
    using Rank = std::pair<DurationUs, Uuid>;
    [[nodiscard]] static Rank rank_of(const RegisteredBroker& rb) {
        return {rb.rtt < 0 ? std::numeric_limits<DurationUs>::max() : rb.rtt,
                rb.ad.broker_id};
    }
    void unmap(const Endpoint& endpoint, const Uuid& id);

    std::size_t capacity_;
    Entries entries_;
    std::map<Endpoint, Uuid> by_endpoint_;  ///< pong source -> entry
    /// The distance table's order; map nodes are stable, so the values
    /// stay valid until their entry is erased.
    std::map<Rank, const RegisteredBroker*> ranked_;
};

template <typename Evict>
void BdnRegistry::erase_if(Evict&& evict) {
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (!evict(std::as_const(it->second))) {
            ++it;
            continue;
        }
        unmap(it->second.ad.endpoint, it->first);
        ranked_.erase(rank_of(it->second));
        it = entries_.erase(it);
    }
}

template <typename Visit>
void BdnRegistry::visit_ranked(TimeUs now, Visit&& visit) const {
    for (const auto& [rank, entry] : ranked_) {
        if (entry->lease_lapsed(now)) continue;
        if (!visit(*entry)) return;
    }
}

}  // namespace narada::discovery
