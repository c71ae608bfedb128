// Broker scoring and target-set shortlisting.
//
// Implements the paper's §9 weighting pseudo-code verbatim:
//
//     weight += (freemem / totalmem) * WEIGHTAGE_FREE_TO_TOTAL_MEMORY;
//     weight += (totalmem / (1024 * 1024)) * WEIGHTAGE_TOTAL_MEMORY;
//     weight -= numlinks * WEIGHTAGE_NUM_LINKS;
//
// extended with the CPU-load and delay terms the paper lists as "OTHER
// factors [that] may be similarly added". Shortlisting then sorts by
// weight and takes the first size(T) responses (§9: size(T) <= size(N)).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "config/node_config.hpp"
#include "discovery/messages.hpp"

namespace narada::discovery {

/// A response annotated with the client's local measurements.
struct Candidate {
    DiscoveryResponse response;
    /// One-way delay estimated from NTP timestamps (§6); may include the
    /// 1-20 ms clock error.
    DurationUs estimated_delay = 0;
    /// Composite weight (higher is better).
    double score = 0.0;
    /// Measured ping round-trip, if this candidate made the target set and
    /// answered; -1 otherwise.
    DurationUs ping_rtt = -1;
};

/// The §9 weight for a single response.
double score_response(const DiscoveryResponse& response, DurationUs estimated_delay,
                      const config::MetricWeights& weights);

/// Score all candidates in place and return indices of the target set:
/// the `target_set_size` best-scored candidates, best first.
std::vector<std::size_t> shortlist(std::vector<Candidate>& candidates,
                                   const config::MetricWeights& weights,
                                   std::size_t target_set_size);

/// A broker as an injection-point candidate: the BDN-side view (id,
/// endpoint, measured RTT). In a federated peer group these come from the
/// local registry *and* from peer shards' gather replies, so the strategy
/// logic lives here rather than inside the Bdn.
struct InjectionCandidate {
    Uuid broker_id;
    Endpoint endpoint;
    DurationUs rtt = -1;  ///< -1 = unmeasured (sorts after every measured RTT)

    friend bool operator==(const InjectionCandidate&, const InjectionCandidate&) = default;
};

/// Apply a §4 injection strategy to `candidates`: stable-sort by RTT
/// (unmeasured last, preserving arrival order) and pick the strategy's
/// endpoints — closest+farthest, closest, one at random, or all. The
/// scatter/gather coordinator applies it to its merged candidate list. A
/// BDN's own registry keeps this order standing and reads the same targets
/// off it (BdnRegistry::injection_targets); the differential test holds the
/// two equal, draw for draw.
std::vector<Endpoint> select_injection_targets(std::vector<InjectionCandidate> candidates,
                                               config::InjectionStrategy strategy, Rng& rng);

}  // namespace narada::discovery
