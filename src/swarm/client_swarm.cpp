#include "swarm/client_swarm.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "obs/memory.hpp"
#include "wire/codec.hpp"
#include "wire/msg_types.hpp"

namespace narada::swarm {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

std::uint64_t splitmix_step(std::uint64_t z) {
    z += kGolden;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/// The request every client of the swarm sends, but for the id and reply
/// endpoint each send stamps in.
discovery::DiscoveryRequest swarm_request(const SwarmOptions& options) {
    discovery::DiscoveryRequest req;
    req.requester_hostname = options.hostname;
    req.protocols = {"udp"};
    req.realm = options.realm;
    return req;
}

}  // namespace

ClientSwarm::ClientSwarm(sim::Kernel& kernel, sim::SimNetwork& network, SwarmOptions options)
    : kernel_(kernel),
      network_(network),
      options_(std::move(options)),
      wheel_(options_.capacity, kernel.now()),
      request_(swarm_request(options_)) {
    if (options_.capacity == 0) throw std::invalid_argument("ClientSwarm: zero capacity");
    if (options_.bdns.empty()) throw std::invalid_argument("ClientSwarm: no BDN endpoints");
    if (options_.profiles.empty()) throw std::invalid_argument("ClientSwarm: no profiles");
    const std::uint32_t n = options_.capacity;
    state_.assign(n, kDetached);
    profile_.assign(n, 0);
    flags_.assign(n, 0);
    attempts_.assign(n, 0);
    backoff_.assign(n, 0);
    last_bdn_.assign(n, 0);
    broker_.assign(n, kNoBroker);
    seq_.assign(n, 0);
    addr_.assign(n, kNoAddr);
    run_start_.assign(n, 0);
    rng_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        rng_[i] = options_.seed ^ (kGolden * (std::uint64_t{i} + 1));
    }
    bdn_health_.resize(options_.bdns.size());
}

ClientSwarm::~ClientSwarm() {
    if (armed_timer_ != sim::kInvalidTimer) kernel_.cancel(armed_timer_);
    for (const HostSlot& h : hosts_) network_.unbind_range(h.host);
}

void ClientSwarm::attach(const std::vector<HostId>& hosts, std::uint16_t port_lo,
                         std::uint16_t port_hi) {
    if (hosts.empty()) throw std::invalid_argument("ClientSwarm::attach: no hosts");
    if (port_lo > port_hi) throw std::invalid_argument("ClientSwarm::attach: bad port range");
    const std::uint64_t span = std::uint64_t{port_hi} - port_lo + 1;
    if (span * hosts.size() < options_.capacity) {
        throw std::invalid_argument("ClientSwarm::attach: port space below capacity");
    }
    port_lo_ = port_lo;
    port_hi_ = port_hi;
    hosts_.reserve(hosts.size());
    for (const HostId h : hosts) {
        host_slot_of_[h] = static_cast<std::uint16_t>(hosts_.size());
        HostSlot slot;
        slot.host = h;
        slot.port_owner.assign(span, kNoOwner);
        hosts_.push_back(std::move(slot));
        network_.bind_range(h, port_lo, port_hi, this);
    }
}

Uuid ClientSwarm::mint_uuid(std::uint32_t i) const {
    std::uint64_t s = options_.seed ^ (kGolden * (std::uint64_t{i} + 1)) ^
                      (0xD1B54A32D192ED03ull * std::uint64_t{seq_[i]});
    const std::uint64_t hi = splitmix_step(s);
    const std::uint64_t lo = splitmix_step(hi ^ s);
    return Uuid::from_halves(hi, lo);
}

std::uint64_t ClientSwarm::draw(std::uint32_t i) {
    rng_[i] += kGolden;
    std::uint64_t z = rng_[i];
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Endpoint ClientSwarm::endpoint_of(std::uint32_t i) const {
    const std::uint32_t addr = addr_[i];
    return Endpoint{hosts_[addr >> 16].host, static_cast<std::uint16_t>(addr & 0xFFFFu)};
}

std::uint16_t ClientSwarm::broker_index(const Endpoint& ep) {
    const auto it = broker_slot_of_.find(ep);
    if (it != broker_slot_of_.end()) return it->second;
    if (brokers_.size() >= kNoBroker) return kNoBroker;  // table full: unattributed
    const auto idx = static_cast<std::uint16_t>(brokers_.size());
    brokers_.push_back(ep);
    broker_slot_of_[ep] = idx;
    return idx;
}

std::size_t ClientSwarm::pick_bdn(std::uint32_t i) {
    const std::size_t n = options_.bdns.size();
    const std::size_t base = (std::size_t{i} + seq_[i] + attempts_[i]) % n;
    const TimeUs now = kernel_.now();
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t b = (base + k) % n;
        if (bdn_health_[b].open_until <= now) return b;
    }
    return base;  // every breaker open: probe anyway
}

void ClientSwarm::note_ackless(std::size_t bdn) {
    BdnHealth& h = bdn_health_[bdn];
    const TimeUs now = kernel_.now();
    if (h.open_until > now) return;  // already open
    if (++h.ackless >= options_.breaker_threshold) {
        h.ackless = 0;
        h.open_until = now + options_.breaker_cooldown;
        ++counters_.breaker_trips;
    }
}

void ClientSwarm::assign_port(std::uint32_t i) {
    const auto hs = static_cast<std::uint32_t>(i % hosts_.size());
    HostSlot& h = hosts_[hs];
    const auto span = static_cast<std::uint32_t>(h.port_owner.size());
    for (std::uint32_t k = 0; k < span; ++k) {
        const std::uint32_t p = h.alloc_cursor;
        h.alloc_cursor = (h.alloc_cursor + 1) % span;
        if (h.port_owner[p] != kNoOwner) continue;
        h.port_owner[p] = i;
        addr_[i] = (hs << 16) | static_cast<std::uint32_t>(port_lo_ + p);
        return;
    }
    throw std::runtime_error("ClientSwarm: port space exhausted on swarm host");
}

void ClientSwarm::release_port(std::uint32_t i) {
    if (addr_[i] == kNoAddr) return;
    HostSlot& h = hosts_[addr_[i] >> 16];
    h.port_owner[(addr_[i] & 0xFFFFu) - port_lo_] = kNoOwner;
    addr_[i] = kNoAddr;
}

void ClientSwarm::begin_run(std::uint32_t i) {
    ++seq_[i];
    attempts_[i] = 0;
    flags_[i] &= static_cast<std::uint8_t>(~kFlagAcked);
    run_start_[i] = kernel_.now();
    state_[i] = kWaiting;
    send_attempt(i);
}

void ClientSwarm::send_attempt(std::uint32_t i) {
    const ClientProfile& prof = options_.profiles[profile_[i]];
    ++attempts_[i];
    ++counters_.requests_sent;
    if (attempts_[i] > 1) ++counters_.retransmits;
    flags_[i] &= static_cast<std::uint8_t>(~kFlagAcked);
    const std::size_t bdn = pick_bdn(i);
    last_bdn_[i] = static_cast<std::uint8_t>(bdn);

    const Uuid id = mint_uuid(i);
    const Endpoint me = endpoint_of(i);
    network_.send_datagram(me, options_.bdns[bdn],
                           request_.stamp(network_.acquire_buffer(), id, me));

    const TimeUs deadline = kernel_.now() + prof.response_deadline;
    wheel_.schedule(i, deadline);
    ensure_armed_by(wheel_.ceil_to_tick(deadline));
}

void ClientSwarm::handle_deadline(std::uint32_t i) {
    const ClientProfile& prof = options_.profiles[profile_[i]];
    switch (state_[i]) {
        case kWaiting: {
            if ((flags_[i] & kFlagAcked) == 0) {
                ++counters_.shed_suspected;
                note_ackless(last_bdn_[i]);
            }
            if (attempts_[i] < prof.max_attempts) {
                send_attempt(i);
                break;
            }
            // Run exhausted: back off exponentially with jitter.
            ++counters_.failed_runs;
            state_[i] = kBackoff;
            if (backoff_[i] < 0xFF) ++backoff_[i];
            const int shift = std::min<int>(backoff_[i] - 1, 20);
            DurationUs delay = std::min(prof.backoff_initial << shift, prof.backoff_max);
            if (prof.backoff_jitter > 0.0) {
                const double frac =
                    static_cast<double>(draw(i) >> 11) * 0x1.0p-53;  // [0, 1)
                const double scale = 1.0 + prof.backoff_jitter * (2.0 * frac - 1.0);
                delay = std::max<DurationUs>(static_cast<DurationUs>(delay * scale), kMillisecond);
            }
            const TimeUs at = kernel_.now() + delay;
            wheel_.schedule(i, at);
            ensure_armed_by(wheel_.ceil_to_tick(at));
            break;
        }
        case kBackoff:
            begin_run(i);
            break;
        case kConnected:
            // Periodic rediscovery profile: leave the current broker and
            // run discovery again.
            ++counters_.rediscoveries;
            --connected_;
            begin_run(i);
            break;
        case kDetached:
        default:
            break;
    }
}

std::uint32_t ClientSwarm::start_clients(std::uint32_t count, std::uint32_t profile) {
    if (hosts_.empty()) throw std::logic_error("ClientSwarm: attach() before start_clients()");
    if (profile >= options_.profiles.size()) {
        throw std::invalid_argument("ClientSwarm: bad profile index");
    }
    const std::uint32_t n = capacity();
    std::uint32_t started = 0;
    for (std::uint32_t scanned = 0; scanned < n && started < count; ++scanned) {
        const std::uint32_t i = start_cursor_;
        start_cursor_ = (start_cursor_ + 1) % n;
        if (state_[i] != kDetached) continue;
        if (addr_[i] == kNoAddr) assign_port(i);
        profile_[i] = static_cast<std::uint8_t>(profile);
        backoff_[i] = 0;
        broker_[i] = kNoBroker;
        ++active_;
        ++counters_.started;
        ++started;
        begin_run(i);
    }
    return started;
}

std::uint32_t ClientSwarm::stop_clients(std::uint32_t count) {
    const std::uint32_t n = capacity();
    std::uint32_t stopped = 0;
    for (std::uint32_t scanned = 0; scanned < n && stopped < count; ++scanned) {
        const std::uint32_t i = stop_cursor_;
        stop_cursor_ = (stop_cursor_ + 1) % n;
        if (state_[i] == kDetached) continue;
        if (state_[i] == kConnected) --connected_;
        state_[i] = kDetached;
        broker_[i] = kNoBroker;
        wheel_.cancel(i);  // port stays assigned for a cheap restart
        --active_;
        ++counters_.departed;
        ++stopped;
    }
    return stopped;
}

std::uint32_t ClientSwarm::rebind_clients(std::uint32_t count) {
    const std::uint32_t n = capacity();
    std::uint32_t rebound = 0;
    for (std::uint32_t scanned = 0; scanned < n && rebound < count; ++scanned) {
        const std::uint32_t i = rebind_cursor_;
        rebind_cursor_ = (rebind_cursor_ + 1) % n;
        if (state_[i] == kDetached) continue;
        release_port(i);
        assign_port(i);  // same host, fresh port: NAT rebinding
        ++counters_.rebinds;
        ++rebound;
        if (state_[i] == kConnected) {
            // The broker knows the old address only; rediscover from the
            // new one.
            ++counters_.rediscoveries;
            --connected_;
            begin_run(i);
        } else if (state_[i] == kWaiting) {
            // In-flight responses target the dead port; restart the run.
            begin_run(i);
        }
        // kBackoff: the pending expiry restarts discovery from the new
        // address on its own.
    }
    return rebound;
}

void ClientSwarm::ensure_armed_by(TimeUs t) {
    if (in_tick_) return;  // on_tick re-arms once, after the batch
    if (armed_timer_ != sim::kInvalidTimer) {
        if (armed_at_ <= t) return;
        kernel_.cancel(armed_timer_);
    }
    armed_timer_ = kernel_.schedule_raw_at(t, &ClientSwarm::tick_trampoline, this, 0);
    armed_at_ = t;
}

void ClientSwarm::arm_kernel() {
    const TimeUs hint = wheel_.next_deadline_hint();
    if (hint == TimerWheel::kUnarmed) {
        if (armed_timer_ != sim::kInvalidTimer) {
            kernel_.cancel(armed_timer_);
            armed_timer_ = sim::kInvalidTimer;
        }
        return;
    }
    if (armed_timer_ != sim::kInvalidTimer) {
        if (armed_at_ <= hint) return;
        kernel_.cancel(armed_timer_);
    }
    armed_timer_ = kernel_.schedule_raw_at(hint, &ClientSwarm::tick_trampoline, this, 0);
    armed_at_ = hint;
}

void ClientSwarm::tick_trampoline(void* ctx, std::uint64_t /*arg*/) {
    static_cast<ClientSwarm*>(ctx)->on_tick();
}

void ClientSwarm::on_tick() {
    armed_timer_ = sim::kInvalidTimer;
    in_tick_ = true;
    due_scratch_.clear();
    wheel_.advance(kernel_.now(), due_scratch_);
    for (const std::uint32_t i : due_scratch_) handle_deadline(i);
    in_tick_ = false;
    arm_kernel();
}

void ClientSwarm::on_range_datagram(const Endpoint& to, const Endpoint& from,
                                    const Bytes& data) {
    const auto hs = host_slot_of_.find(to.host);
    if (hs == host_slot_of_.end() || to.port < port_lo_ || to.port > port_hi_ || data.empty()) {
        ++counters_.misdelivered;
        return;
    }
    const std::uint32_t owner = hosts_[hs->second].port_owner[to.port - port_lo_];
    if (owner == kNoOwner) {
        ++counters_.misdelivered;
        return;
    }
    const std::uint32_t i = owner;
    try {
        if (data[0] == wire::kMsgDiscoveryAck) {
            wire::ByteReader reader(data.data() + 1, data.size() - 1);
            const Uuid id = reader.uuid();
            if (state_[i] == kWaiting && id == mint_uuid(i)) {
                flags_[i] |= kFlagAcked;
                ++counters_.acks;
                // An ack proves the BDN is alive: reset its breaker window.
                for (std::size_t b = 0; b < options_.bdns.size(); ++b) {
                    if (options_.bdns[b] == from) {
                        bdn_health_[b].ackless = 0;
                        bdn_health_[b].open_until = 0;
                        break;
                    }
                }
            } else {
                ++counters_.stale_responses;
            }
        } else if (data[0] == wire::kMsgDiscoveryResponse) {
            wire::ByteReader reader(data.data() + 1, data.size() - 1);
            const auto view = discovery::DiscoveryResponseView::peek(reader);
            if (state_[i] != kWaiting || view.request_id != mint_uuid(i)) {
                ++counters_.stale_responses;  // late, duplicate, or detached
                return;
            }
            state_[i] = kConnected;
            ++connected_;
            broker_[i] = broker_index(view.endpoint);
            backoff_[i] = 0;
            ++counters_.connects;
            const double ms = to_ms(kernel_.now() - run_start_[i]);
            latency_.add(ms);
            if (latency_hist_ != nullptr) latency_hist_->observe(ms);
            const ClientProfile& prof = options_.profiles[profile_[i]];
            if (prof.rediscovery_interval > 0) {
                // De-synchronize the cohort: up to +1/8 interval of jitter.
                const DurationUs jitter =
                    static_cast<DurationUs>(draw(i) % (prof.rediscovery_interval / 8 + 1));
                const TimeUs at = kernel_.now() + prof.rediscovery_interval + jitter;
                wheel_.schedule(i, at);
                ensure_armed_by(wheel_.ceil_to_tick(at));
            } else {
                wheel_.cancel(i);
            }
        } else {
            ++counters_.misdelivered;  // not a client-facing message type
        }
    } catch (const wire::WireError&) {
        ++counters_.misdelivered;  // truncated / malformed
    }
}

std::size_t ClientSwarm::state_bytes() const {
    auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
    std::size_t bytes = vec(state_) + vec(profile_) + vec(flags_) + vec(attempts_) +
                        vec(backoff_) + vec(last_bdn_) + vec(broker_) + vec(seq_) + vec(addr_) +
                        vec(run_start_) + vec(rng_) + vec(due_scratch_) + vec(brokers_) +
                        vec(bdn_health_) + request_.framed().capacity();
    bytes += wheel_.memory_bytes();
    for (const HostSlot& h : hosts_) bytes += h.port_owner.capacity() * sizeof(std::uint32_t);
    bytes += hosts_.capacity() * sizeof(HostSlot);
    // Hash-map nodes, approximated at bucket + node cost.
    bytes += (broker_slot_of_.size() + host_slot_of_.size()) * 48;
    bytes += latency_.values().capacity() * sizeof(double);
    return bytes;
}

std::uint64_t ClientSwarm::metrics_digest() const {
    std::uint64_t d = 0x6E61726164612121ull ^ options_.seed;
    auto mix = [&d](std::uint64_t v) { d = splitmix_step(d ^ v); };
    mix(counters_.started);
    mix(counters_.departed);
    mix(counters_.requests_sent);
    mix(counters_.retransmits);
    mix(counters_.acks);
    mix(counters_.connects);
    mix(counters_.stale_responses);
    mix(counters_.shed_suspected);
    mix(counters_.failed_runs);
    mix(counters_.rediscoveries);
    mix(counters_.rebinds);
    mix(counters_.breaker_trips);
    mix(counters_.misdelivered);
    mix(active_);
    mix(connected_);
    const std::uint32_t n = capacity();
    for (std::uint32_t i = 0; i < n; ++i) {
        mix(std::uint64_t{state_[i]} | (std::uint64_t{broker_[i]} << 8) |
            (std::uint64_t{addr_[i]} << 24) | (std::uint64_t{seq_[i]} << 56));
    }
    for (const double v : latency_.values()) {
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v * 1000.0)));
    }
    return d;
}

std::string ClientSwarm::metrics_digest_hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(metrics_digest()));
    return buf;
}

void ClientSwarm::set_observability(obs::MetricsRegistry* registry, std::string node) {
    registry_ = registry;
    obs_node_ = std::move(node);
    latency_hist_ = registry_ == nullptr
                        ? nullptr
                        : &registry_->histogram("swarm_discovery_latency_ms", obs_node_,
                                                obs::latency_buckets_ms());
}

void ClientSwarm::publish_metrics() {
    if (registry_ == nullptr) return;
    auto sync = [&](const char* name, std::uint64_t cur, std::uint64_t& last) {
        if (cur > last) registry_->counter(name, obs_node_).inc(cur - last);
        last = cur;
    };
    sync("swarm_started", counters_.started, published_.started);
    sync("swarm_departed", counters_.departed, published_.departed);
    sync("swarm_requests_sent", counters_.requests_sent, published_.requests_sent);
    sync("swarm_retransmits", counters_.retransmits, published_.retransmits);
    sync("swarm_acks", counters_.acks, published_.acks);
    sync("swarm_connects", counters_.connects, published_.connects);
    sync("swarm_stale_responses", counters_.stale_responses, published_.stale_responses);
    sync("swarm_shed_suspected", counters_.shed_suspected, published_.shed_suspected);
    sync("swarm_failed_runs", counters_.failed_runs, published_.failed_runs);
    sync("swarm_rediscoveries", counters_.rediscoveries, published_.rediscoveries);
    sync("swarm_rebinds", counters_.rebinds, published_.rebinds);
    sync("swarm_breaker_trips", counters_.breaker_trips, published_.breaker_trips);
    sync("swarm_misdelivered", counters_.misdelivered, published_.misdelivered);
    registry_->gauge("swarm_active", obs_node_).set(active_);
    registry_->gauge("swarm_connected", obs_node_).set(connected_);
    const std::size_t bytes = state_bytes();
    registry_->gauge("swarm_bytes_per_endpoint", obs_node_)
        .set(static_cast<double>(bytes) / static_cast<double>(capacity()));
    obs::update_memory_gauges(*registry_, obs_node_, {{"swarm_state", bytes}});
}

}  // namespace narada::swarm
