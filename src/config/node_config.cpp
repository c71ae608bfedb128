#include "config/node_config.hpp"

#include <stdexcept>

#include "common/strings.hpp"

namespace narada::config {

InjectionStrategy parse_injection_strategy(const std::string& name) {
    const std::string lowered = to_lower(name);
    if (lowered == "closest_and_farthest") return InjectionStrategy::kClosestAndFarthest;
    if (lowered == "closest_only") return InjectionStrategy::kClosestOnly;
    if (lowered == "random") return InjectionStrategy::kRandom;
    if (lowered == "all") return InjectionStrategy::kAll;
    throw IniError("unknown injection strategy: " + name);
}

std::string to_string(InjectionStrategy s) {
    switch (s) {
        case InjectionStrategy::kClosestAndFarthest: return "closest_and_farthest";
        case InjectionStrategy::kClosestOnly: return "closest_only";
        case InjectionStrategy::kRandom: return "random";
        case InjectionStrategy::kAll: return "all";
    }
    return "?";
}

RoutingMode parse_routing_mode(const std::string& name) {
    const std::string lowered = to_lower(name);
    if (lowered == "flood") return RoutingMode::kFlood;
    if (lowered == "routed") return RoutingMode::kRouted;
    throw IniError("unknown routing mode: " + name);
}

std::string to_string(RoutingMode m) {
    switch (m) {
        case RoutingMode::kFlood: return "flood";
        case RoutingMode::kRouted: return "routed";
    }
    return "?";
}

Endpoint parse_endpoint(const std::string& text) {
    const auto parts = split(text, ':');
    if (parts.size() != 2) throw IniError("bad endpoint (want host:port): " + text);
    try {
        const auto host = static_cast<HostId>(std::stoul(parts[0]));
        const auto port_raw = std::stoul(parts[1]);
        if (port_raw > 0xFFFF) throw IniError("port out of range: " + text);
        return Endpoint{host, static_cast<std::uint16_t>(port_raw)};
    } catch (const IniError&) {
        throw;
    } catch (const std::exception&) {
        throw IniError("bad endpoint: " + text);
    }
}

namespace {

std::vector<Endpoint> parse_endpoint_list(const Ini& ini, const std::string& section,
                                          const std::string& key) {
    std::vector<Endpoint> out;
    for (const auto& item : ini.get_list(section, key)) {
        out.push_back(parse_endpoint(item));
    }
    return out;
}

}  // namespace

MetricWeights MetricWeights::from_ini(const Ini& ini, const std::string& section) {
    MetricWeights w;
    w.free_to_total_memory = ini.get_double(section, "free_to_total_memory", w.free_to_total_memory);
    w.total_memory_mb = ini.get_double(section, "total_memory_mb", w.total_memory_mb);
    w.num_links = ini.get_double(section, "num_links", w.num_links);
    w.cpu_load = ini.get_double(section, "cpu_load", w.cpu_load);
    w.delay_ms = ini.get_double(section, "delay_ms", w.delay_ms);
    w.overload_penalty = ini.get_double(section, "overload_penalty", w.overload_penalty);
    return w;
}

DiscoveryConfig DiscoveryConfig::from_ini(const Ini& ini) {
    DiscoveryConfig c;
    c.bdns = parse_endpoint_list(ini, "discovery", "bdns");
    c.response_window = from_ms(ini.get_double("discovery", "response_window_ms",
                                               to_ms(c.response_window)));
    c.max_responses =
        static_cast<std::uint32_t>(ini.get_int("discovery", "max_responses", c.max_responses));
    c.target_set_size =
        static_cast<std::uint32_t>(ini.get_int("discovery", "target_set_size", c.target_set_size));
    c.pings_per_broker = static_cast<std::uint32_t>(
        ini.get_int("discovery", "pings_per_broker", c.pings_per_broker));
    c.ping_window = from_ms(ini.get_double("discovery", "ping_window_ms", to_ms(c.ping_window)));
    c.retransmit_interval = from_ms(
        ini.get_double("discovery", "retransmit_interval_ms", to_ms(c.retransmit_interval)));
    c.max_retransmits = static_cast<std::uint32_t>(
        ini.get_int("discovery", "max_retransmits", c.max_retransmits));
    c.use_multicast = ini.get_bool("discovery", "use_multicast", c.use_multicast);
    c.credential = ini.get_or("discovery", "credential", c.credential);
    c.breaker_failure_threshold = static_cast<std::uint32_t>(
        ini.get_int("discovery", "breaker_failure_threshold", c.breaker_failure_threshold));
    c.breaker_open_initial = from_ms(
        ini.get_double("discovery", "breaker_open_initial_ms", to_ms(c.breaker_open_initial)));
    c.breaker_open_max =
        from_ms(ini.get_double("discovery", "breaker_open_max_ms", to_ms(c.breaker_open_max)));
    c.adaptive_window = ini.get_bool("discovery", "adaptive_window", c.adaptive_window);
    c.quiesce_ticks = static_cast<std::uint32_t>(
        ini.get_int("discovery", "quiesce_ticks", c.quiesce_ticks));
    c.quiesce_tick =
        from_ms(ini.get_double("discovery", "quiesce_tick_ms", to_ms(c.quiesce_tick)));
    c.response_window_min = from_ms(
        ini.get_double("discovery", "response_window_min_ms", to_ms(c.response_window_min)));
    c.weights = MetricWeights::from_ini(ini);
    return c;
}

BrokerConfig BrokerConfig::from_ini(const Ini& ini) {
    BrokerConfig c;
    c.advertise_bdns = parse_endpoint_list(ini, "broker", "advertise_bdns");
    c.advertise_on_topic = ini.get_bool("broker", "advertise_on_topic", c.advertise_on_topic);
    c.advertise_interval =
        from_ms(ini.get_double("broker", "advertise_interval_ms", to_ms(c.advertise_interval)));
    c.dedup_cache_size = static_cast<std::uint32_t>(
        ini.get_int("broker", "dedup_cache_size", c.dedup_cache_size));
    c.respond_to_discovery =
        ini.get_bool("broker", "respond_to_discovery", c.respond_to_discovery);
    c.required_credential = ini.get_or("broker", "required_credential", c.required_credential);
    c.allowed_realms = ini.get_list("broker", "allowed_realms");
    c.propagation_ttl =
        static_cast<std::uint32_t>(ini.get_int("broker", "propagation_ttl", c.propagation_ttl));
    c.processing_delay =
        from_ms(ini.get_double("broker", "processing_delay_ms", to_ms(c.processing_delay)));
    if (const auto mode = ini.get("broker", "routing_mode")) {
        c.routing_mode = parse_routing_mode(*mode);
    }
    c.peer_heartbeat_interval = from_ms(
        ini.get_double("broker", "peer_heartbeat_interval_ms", to_ms(c.peer_heartbeat_interval)));
    c.peer_max_missed = static_cast<std::uint32_t>(
        ini.get_int("broker", "peer_max_missed", c.peer_max_missed));
    c.discovery_rate_limit =
        ini.get_double("broker", "discovery_rate_limit", c.discovery_rate_limit);
    c.discovery_burst = ini.get_double("broker", "discovery_burst", c.discovery_burst);
    c.overload_hold =
        from_ms(ini.get_double("broker", "overload_hold_ms", to_ms(c.overload_hold)));
    return c;
}

RejoinConfig RejoinConfig::from_ini(const Ini& ini) {
    RejoinConfig c;
    c.peer_floor =
        static_cast<std::uint32_t>(ini.get_int("rejoin", "peer_floor", c.peer_floor));
    c.backoff_initial = from_ms(
        ini.get_double("rejoin", "backoff_initial_ms", to_ms(c.backoff_initial)));
    c.backoff_max =
        from_ms(ini.get_double("rejoin", "backoff_max_ms", to_ms(c.backoff_max)));
    c.backoff_multiplier =
        ini.get_double("rejoin", "backoff_multiplier", c.backoff_multiplier);
    c.backoff_jitter = ini.get_double("rejoin", "backoff_jitter", c.backoff_jitter);
    return c;
}

ObsConfig ObsConfig::from_ini(const Ini& ini) {
    ObsConfig c;
    c.enabled = ini.get_bool("obs", "enabled", c.enabled);
    c.trace_sample_rate = ini.get_double("obs", "trace_sample_rate", c.trace_sample_rate);
    c.span_capacity =
        static_cast<std::uint32_t>(ini.get_int("obs", "span_capacity", c.span_capacity));
    return c;
}

TransportConfig TransportConfig::from_ini(const Ini& ini) {
    TransportConfig c;
    for (const auto& item : ini.get_list("transport", "pin_cpus")) {
        try {
            c.pin_cpus.push_back(std::stoi(item));
        } catch (const std::exception&) {
            throw IniError("bad pin_cpus entry: " + item);
        }
    }
    c.udp_batch =
        static_cast<std::uint32_t>(ini.get_int("transport", "udp_batch", c.udp_batch));
    c.pool_buffers = static_cast<std::uint32_t>(
        ini.get_int("transport", "pool_buffers", c.pool_buffers));
    c.udp_sockbuf = static_cast<std::uint32_t>(
        ini.get_int("transport", "udp_sockbuf", c.udp_sockbuf));
    c.udp_gso = ini.get_bool("transport", "udp_gso", c.udp_gso);
    return c;
}

SecurityConfig::Mode parse_security_mode(const std::string& name) {
    if (name == "off") return SecurityConfig::Mode::kOff;
    if (name == "sign") return SecurityConfig::Mode::kSign;
    if (name == "seal") return SecurityConfig::Mode::kSeal;
    throw IniError("unknown security mode: " + name);
}

std::string to_string(SecurityConfig::Mode mode) {
    switch (mode) {
        case SecurityConfig::Mode::kOff: return "off";
        case SecurityConfig::Mode::kSign: return "sign";
        case SecurityConfig::Mode::kSeal: return "seal";
    }
    return "?";
}

SecurityConfig SecurityConfig::from_ini(const Ini& ini) {
    SecurityConfig c;
    if (const auto mode = ini.get("security", "mode")) {
        c.mode = parse_security_mode(*mode);
    }
    c.session_cache_size = static_cast<std::uint32_t>(
        ini.get_int("security", "session_cache_size", c.session_cache_size));
    if (c.session_cache_size == 0) c.session_cache_size = 1;
    c.rekey_interval =
        from_ms(ini.get_double("security", "rekey_interval_ms", to_ms(c.rekey_interval)));
    c.authenticate_ads = ini.get_bool("security", "authenticate_ads", c.authenticate_ads);
    return c;
}

BdnConfig BdnConfig::from_ini(const Ini& ini) {
    BdnConfig c;
    if (const auto v = ini.get("bdn", "injection")) {
        c.injection = parse_injection_strategy(*v);
    }
    c.accepted_realms = ini.get_list("bdn", "accepted_realms");
    c.ping_refresh_interval = from_ms(
        ini.get_double("bdn", "ping_refresh_interval_ms", to_ms(c.ping_refresh_interval)));
    c.required_credential = ini.get_or("bdn", "required_credential", c.required_credential);
    c.injection_spacing =
        from_ms(ini.get_double("bdn", "injection_spacing_ms", to_ms(c.injection_spacing)));
    c.registration_expiry = from_ms(
        ini.get_double("bdn", "registration_expiry_ms", to_ms(c.registration_expiry)));
    c.ad_lease = from_ms(ini.get_double("bdn", "ad_lease_ms", to_ms(c.ad_lease)));
    c.ingest_queue_limit = static_cast<std::uint32_t>(
        ini.get_int("bdn", "ingest_queue_limit", c.ingest_queue_limit));
    c.request_service_cost = from_ms(
        ini.get_double("bdn", "request_service_cost_ms", to_ms(c.request_service_cost)));
    c.per_source_rate = ini.get_double("bdn", "per_source_rate", c.per_source_rate);
    c.per_source_burst = ini.get_double("bdn", "per_source_burst", c.per_source_burst);
    c.sync_peers = parse_endpoint_list(ini, "bdn", "sync_peers");
    c.registry_sync_interval = from_ms(
        ini.get_double("bdn", "registry_sync_interval_ms", to_ms(c.registry_sync_interval)));
    c.peer_group = parse_endpoint_list(ini, "bdn", "peer_group");
    c.replication_factor = static_cast<std::uint32_t>(
        ini.get_int("bdn", "replication_factor", c.replication_factor));
    c.ring_vnodes =
        static_cast<std::uint32_t>(ini.get_int("bdn", "ring_vnodes", c.ring_vnodes));
    c.anti_entropy_interval = from_ms(
        ini.get_double("bdn", "anti_entropy_interval_ms", to_ms(c.anti_entropy_interval)));
    c.shard_deadline =
        from_ms(ini.get_double("bdn", "shard_deadline_ms", to_ms(c.shard_deadline)));
    c.shard_reply_limit = static_cast<std::uint32_t>(
        ini.get_int("bdn", "shard_reply_limit", c.shard_reply_limit));
    return c;
}

}  // namespace narada::config
