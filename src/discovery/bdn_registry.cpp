#include "discovery/bdn_registry.hpp"

#include <algorithm>

namespace narada::discovery {

RegisteredBroker* BdnRegistry::find(const Uuid& id) {
    const auto it = entries_.find(id);
    return it != entries_.end() ? &it->second : nullptr;
}

const RegisteredBroker* BdnRegistry::find(const Uuid& id) const {
    const auto it = entries_.find(id);
    return it != entries_.end() ? &it->second : nullptr;
}

RegisteredBroker* BdnRegistry::put(const BrokerAdvertisement& ad) {
    auto it = entries_.find(ad.broker_id);
    if (it == entries_.end()) {
        if (entries_.size() >= capacity_) return nullptr;
        it = entries_.try_emplace(ad.broker_id).first;
        it->second.ad = ad;
        ranked_.emplace(rank_of(it->second), &it->second);
    } else {
        if (it->second.ad.endpoint != ad.endpoint) unmap(it->second.ad.endpoint, ad.broker_id);
        it->second.ad = ad;
    }
    by_endpoint_[ad.endpoint] = ad.broker_id;
    return &it->second;
}

void BdnRegistry::measure(const Endpoint& endpoint, DurationUs rtt, TimeUs now) {
    const auto mapped = by_endpoint_.find(endpoint);
    if (mapped == by_endpoint_.end()) return;
    const auto it = entries_.find(mapped->second);
    if (it == entries_.end()) return;
    RegisteredBroker& rb = it->second;
    // Re-key the entry's node in place: a pong moves it without allocating.
    auto node = ranked_.extract(rank_of(rb));
    rb.rtt = rtt;
    rb.last_pong = now;
    node.key() = rank_of(rb);
    ranked_.insert(std::move(node));
}

void BdnRegistry::unmap(const Endpoint& endpoint, const Uuid& id) {
    const auto it = by_endpoint_.find(endpoint);
    if (it != by_endpoint_.end() && it->second == id) by_endpoint_.erase(it);
}

std::vector<Endpoint> BdnRegistry::injection_targets(config::InjectionStrategy strategy,
                                                     TimeUs now, Rng& rng) const {
    const auto live = [now](const auto& slot) { return !slot.second->lease_lapsed(now); };
    std::vector<Endpoint> targets;
    switch (strategy) {
        case config::InjectionStrategy::kClosestAndFarthest:
        case config::InjectionStrategy::kClosestOnly: {
            const auto closest = std::find_if(ranked_.begin(), ranked_.end(), live);
            if (closest == ranked_.end()) break;
            targets.push_back(closest->second->ad.endpoint);
            if (strategy == config::InjectionStrategy::kClosestOnly) break;
            // "the broker discovery request would be issued simultaneously
            // to the brokers that are closest and farthest from the BDN"
            // (§4). The closest is live, so this search stops at it at the
            // latest.
            const auto farthest = std::find_if(ranked_.rbegin(), ranked_.rend(), live);
            if (farthest->second != closest->second) {
                targets.push_back(farthest->second->ad.endpoint);
            }
            break;
        }
        case config::InjectionStrategy::kRandom: {
            const auto count = std::count_if(ranked_.begin(), ranked_.end(), live);
            if (count == 0) break;
            std::uint64_t pick = rng.bounded(static_cast<std::uint64_t>(count));
            for (const auto& slot : ranked_) {
                if (live(slot) && pick-- == 0) {
                    targets.push_back(slot.second->ad.endpoint);
                    break;
                }
            }
            break;
        }
        case config::InjectionStrategy::kAll:
            // The unconnected topology's O(N) distribution (§9, Figure 2).
            for (const auto& slot : ranked_) {
                if (live(slot)) targets.push_back(slot.second->ad.endpoint);
            }
            break;
    }
    return targets;
}

std::vector<InjectionCandidate> BdnRegistry::candidates(TimeUs now) const {
    std::vector<InjectionCandidate> out;
    out.reserve(entries_.size());
    for (const auto& [id, rb] : entries_) {
        if (rb.lease_lapsed(now)) continue;
        out.push_back({id, rb.ad.endpoint, rb.rtt});
    }
    return out;
}

}  // namespace narada::discovery
