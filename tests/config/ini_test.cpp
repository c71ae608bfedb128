#include "config/ini.hpp"

#include <gtest/gtest.h>

#include "config/node_config.hpp"

namespace narada::config {
namespace {

TEST(Ini, ParsesSectionsAndKeys) {
    const Ini ini = Ini::parse(R"(
# comment
global_key = 1
[discovery]
response_window_ms = 4500
bdns = 3:9000, 4:9000
; another comment
[broker]
dedup_cache_size = 1000
)");
    EXPECT_EQ(ini.get_or("", "global_key", ""), "1");
    EXPECT_EQ(ini.get_int("discovery", "response_window_ms", 0), 4500);
    EXPECT_EQ(ini.get_int("broker", "dedup_cache_size", 0), 1000);
}

TEST(Ini, KeysCaseInsensitiveValuesNot) {
    const Ini ini = Ini::parse("[Broker]\nName = MixedCase\n");
    EXPECT_EQ(ini.get_or("broker", "name", ""), "MixedCase");
    EXPECT_EQ(ini.get_or("BROKER", "NAME", ""), "MixedCase");
}

TEST(Ini, LastDuplicateWins) {
    const Ini ini = Ini::parse("[s]\nk = 1\nk = 2\n");
    EXPECT_EQ(ini.get_int("s", "k", 0), 2);
}

TEST(Ini, ListParsing) {
    const Ini ini = Ini::parse("[s]\nitems = a , b,c ,\n");
    const auto items = ini.get_list("s", "items");
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0], "a");
    EXPECT_EQ(items[1], "b");
    EXPECT_EQ(items[2], "c");
    EXPECT_TRUE(ini.get_list("s", "missing").empty());
}

TEST(Ini, BooleanForms) {
    const Ini ini = Ini::parse("[s]\na=true\nb=No\nc=1\nd=off\n");
    EXPECT_TRUE(ini.get_bool("s", "a", false));
    EXPECT_FALSE(ini.get_bool("s", "b", true));
    EXPECT_TRUE(ini.get_bool("s", "c", false));
    EXPECT_FALSE(ini.get_bool("s", "d", true));
    EXPECT_TRUE(ini.get_bool("s", "missing", true));
}

TEST(Ini, FallbacksWhenMissing) {
    const Ini ini = Ini::parse("");
    EXPECT_EQ(ini.get_int("x", "y", 42), 42);
    EXPECT_DOUBLE_EQ(ini.get_double("x", "y", 2.5), 2.5);
    EXPECT_EQ(ini.get_or("x", "y", "z"), "z");
    EXPECT_FALSE(ini.has("x", "y"));
}

TEST(Ini, MalformedSectionThrows) {
    EXPECT_THROW(Ini::parse("[oops\n"), IniError);
}

TEST(Ini, MissingEqualsThrows) {
    EXPECT_THROW(Ini::parse("[s]\nnovalue\n"), IniError);
}

TEST(Ini, EmptyKeyThrows) {
    EXPECT_THROW(Ini::parse("[s]\n= 3\n"), IniError);
}

TEST(Ini, BadNumericValueThrows) {
    const Ini ini = Ini::parse("[s]\nk = abc\nj = 12x\n");
    EXPECT_THROW((void)ini.get_int("s", "k", 0), IniError);
    EXPECT_THROW((void)ini.get_int("s", "j", 0), IniError);
    EXPECT_THROW((void)ini.get_double("s", "k", 0), IniError);
    EXPECT_THROW((void)ini.get_bool("s", "k", false), IniError);
}

TEST(Ini, SetAndEnumerate) {
    Ini ini;
    ini.set("a", "x", "1");
    ini.set("b", "y", "2");
    EXPECT_EQ(ini.sections().size(), 2u);
    EXPECT_EQ(ini.keys("a").size(), 1u);
    EXPECT_EQ(ini.get_or("a", "x", ""), "1");
}

TEST(Ini, MissingFileThrows) {
    EXPECT_THROW(Ini::parse_file("/nonexistent/path/config.ini"), IniError);
}

TEST(NodeConfig, EndpointParsing) {
    const Endpoint ep = parse_endpoint("3:9000");
    EXPECT_EQ(ep.host, 3u);
    EXPECT_EQ(ep.port, 9000);
    EXPECT_THROW(parse_endpoint("nonsense"), IniError);
    EXPECT_THROW(parse_endpoint("1:2:3"), IniError);
    EXPECT_THROW(parse_endpoint("1:99999"), IniError);
}

TEST(NodeConfig, DiscoveryDefaultsMatchPaper) {
    const DiscoveryConfig c;
    // §6: responses collected for 4-5 seconds; target set ~10 brokers.
    EXPECT_EQ(c.response_window, from_ms(4500));
    EXPECT_EQ(c.target_set_size, 10u);
    EXPECT_EQ(c.max_responses, 0u);
}

TEST(NodeConfig, BrokerDefaultsMatchPaper) {
    const BrokerConfig c;
    EXPECT_EQ(c.dedup_cache_size, 1000u);  // §4: "last 1000"
    EXPECT_TRUE(c.respond_to_discovery);
    EXPECT_TRUE(c.advertise_on_topic);
}

TEST(NodeConfig, DiscoveryFromIni) {
    const Ini ini = Ini::parse(R"(
[discovery]
bdns = 7:7100
response_window_ms = 2000
max_responses = 5
target_set_size = 3
use_multicast = true
credential = secret
[weights]
num_links = 9.5
)");
    const DiscoveryConfig c = DiscoveryConfig::from_ini(ini);
    ASSERT_EQ(c.bdns.size(), 1u);
    EXPECT_EQ(c.bdns[0], (Endpoint{7, 7100}));
    EXPECT_EQ(c.response_window, from_ms(2000));
    EXPECT_EQ(c.max_responses, 5u);
    EXPECT_EQ(c.target_set_size, 3u);
    EXPECT_TRUE(c.use_multicast);
    EXPECT_EQ(c.credential, "secret");
    EXPECT_DOUBLE_EQ(c.weights.num_links, 9.5);
}

TEST(NodeConfig, BrokerFromIni) {
    const Ini ini = Ini::parse(R"(
[broker]
advertise_bdns = 1:7100, 2:7100
dedup_cache_size = 50
respond_to_discovery = false
required_credential = team-key
allowed_realms = iu-lab, umn
processing_delay_ms = 7.5
)");
    const BrokerConfig c = BrokerConfig::from_ini(ini);
    EXPECT_EQ(c.advertise_bdns.size(), 2u);
    EXPECT_EQ(c.dedup_cache_size, 50u);
    EXPECT_FALSE(c.respond_to_discovery);
    EXPECT_EQ(c.required_credential, "team-key");
    EXPECT_EQ(c.allowed_realms.size(), 2u);
    EXPECT_EQ(c.processing_delay, from_ms(7.5));
}

TEST(NodeConfig, BdnFromIni) {
    const Ini ini = Ini::parse(R"(
[bdn]
injection = all
accepted_realms = iu-lab
ping_refresh_interval_ms = 1000
injection_spacing_ms = 25
)");
    const BdnConfig c = BdnConfig::from_ini(ini);
    EXPECT_EQ(c.injection, InjectionStrategy::kAll);
    EXPECT_EQ(c.accepted_realms.size(), 1u);
    EXPECT_EQ(c.ping_refresh_interval, from_ms(1000));
    EXPECT_EQ(c.injection_spacing, from_ms(25));
}

TEST(NodeConfig, BdnFederationFromIni) {
    const Ini ini = Ini::parse(R"(
[bdn]
peer_group = 3:7100, 4:7100, 5:7100
replication_factor = 2
ring_vnodes = 128
anti_entropy_interval_ms = 2000
shard_deadline_ms = 250
shard_reply_limit = 16
)");
    const BdnConfig c = BdnConfig::from_ini(ini);
    ASSERT_EQ(c.peer_group.size(), 3u);
    EXPECT_EQ(c.peer_group[0], (Endpoint{3, 7100}));
    EXPECT_EQ(c.peer_group[2], (Endpoint{5, 7100}));
    EXPECT_EQ(c.replication_factor, 2u);
    EXPECT_EQ(c.ring_vnodes, 128u);
    EXPECT_EQ(c.anti_entropy_interval, from_ms(2000));
    EXPECT_EQ(c.shard_deadline, from_ms(250));
    EXPECT_EQ(c.shard_reply_limit, 16u);
}

TEST(NodeConfig, BdnFederationDefaults) {
    const BdnConfig c = BdnConfig::from_ini(Ini::parse(""));
    EXPECT_TRUE(c.peer_group.empty());
    EXPECT_EQ(c.replication_factor, 1u);
    EXPECT_EQ(c.ring_vnodes, 64u);
    EXPECT_EQ(c.anti_entropy_interval, 0);
    EXPECT_EQ(c.shard_deadline, from_ms(150));
    EXPECT_EQ(c.shard_reply_limit, 8u);
}

TEST(NodeConfig, TransportSectionParsesShardingKnobs) {
    const Ini ini = Ini::parse(R"(
[transport]
pin_cpus = 0, 1, 2, 3
udp_batch = 16
pool_buffers = 128
udp_sockbuf = 262144
udp_gso = false
)");
    const TransportConfig c = TransportConfig::from_ini(ini);
    ASSERT_EQ(c.pin_cpus.size(), 4u);
    EXPECT_EQ(c.pin_cpus[0], 0);
    EXPECT_EQ(c.pin_cpus[3], 3);
    EXPECT_EQ(c.udp_batch, 16u);
    EXPECT_EQ(c.pool_buffers, 128u);
    EXPECT_EQ(c.udp_sockbuf, 262144u);
    EXPECT_FALSE(c.udp_gso);
}

TEST(NodeConfig, TransportDefaultsAndValidation) {
    const TransportConfig d = TransportConfig::from_ini(Ini::parse(""));
    EXPECT_TRUE(d.pin_cpus.empty());
    EXPECT_TRUE(d.udp_gso);
    EXPECT_THROW(
        TransportConfig::from_ini(Ini::parse("[transport]\npin_cpus = 0, banana\n")),
        IniError);
}

TEST(NodeConfig, SecuritySectionParsesAllKnobs) {
    const Ini ini = Ini::parse(R"(
[security]
mode = seal
session_cache_size = 128
rekey_interval_ms = 60000
authenticate_ads = true
)");
    const SecurityConfig c = SecurityConfig::from_ini(ini);
    EXPECT_EQ(c.mode, SecurityConfig::Mode::kSeal);
    EXPECT_TRUE(c.enabled());
    EXPECT_TRUE(c.sealing());
    EXPECT_EQ(c.session_cache_size, 128u);
    EXPECT_EQ(c.rekey_interval, from_ms(60000));
    EXPECT_TRUE(c.authenticate_ads);
}

TEST(NodeConfig, SecurityDefaultsAndValidation) {
    const SecurityConfig d = SecurityConfig::from_ini(Ini::parse(""));
    EXPECT_EQ(d.mode, SecurityConfig::Mode::kOff);
    EXPECT_FALSE(d.enabled());
    EXPECT_EQ(d.session_cache_size, 256u);
    EXPECT_FALSE(d.authenticate_ads);

    const SecurityConfig sign =
        SecurityConfig::from_ini(Ini::parse("[security]\nmode = sign\n"));
    EXPECT_TRUE(sign.enabled());
    EXPECT_FALSE(sign.sealing());
    // A zero-capacity session cache is meaningless; clamp to 1.
    EXPECT_EQ(SecurityConfig::from_ini(
                  Ini::parse("[security]\nsession_cache_size = 0\n"))
                  .session_cache_size,
              1u);
    EXPECT_THROW(SecurityConfig::from_ini(Ini::parse("[security]\nmode = quantum\n")),
                 IniError);
    for (const auto m : {SecurityConfig::Mode::kOff, SecurityConfig::Mode::kSign,
                         SecurityConfig::Mode::kSeal}) {
        EXPECT_EQ(parse_security_mode(to_string(m)), m);
    }
}

TEST(NodeConfig, InjectionStrategyNames) {
    for (const auto s :
         {InjectionStrategy::kClosestAndFarthest, InjectionStrategy::kClosestOnly,
          InjectionStrategy::kRandom, InjectionStrategy::kAll}) {
        EXPECT_EQ(parse_injection_strategy(to_string(s)), s);
    }
    EXPECT_THROW(parse_injection_strategy("bogus"), IniError);
}

}  // namespace
}  // namespace narada::config
