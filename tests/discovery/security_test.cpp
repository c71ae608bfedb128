// Secured discovery datapath (paper §9.1): handshake + session envelopes,
// typed rejection of hostile input, rekey/grace timing on an injected
// clock, drain-batch memoization, and the BDN's authenticated-ads mode
// end-to-end through the sim network.
#include "discovery/security.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "broker/broker.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "discovery/bdn.hpp"
#include "discovery/broker_plugin.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "sim/network.hpp"
#include "timesvc/ntp.hpp"
#include "wire/msg_types.hpp"

namespace narada::discovery {
namespace {

using crypto::EnvelopeError;

Bytes make_payload() {
    const std::string text = "discovery-request:realm=chemistry";
    return Bytes(text.begin(), text.end());
}

std::span<const std::uint8_t> as_span(const Bytes& b) { return {b.data(), b.size()}; }

/// A small PKI plus one SecurityContext per named identity, all on one
/// injected clock — the unit-test stand-in for a provisioned deployment.
struct SecurityFixture : ::testing::Test {
    static constexpr TimeUs kCertFrom = 0;
    static constexpr TimeUs kCertTo = 1'000'000'000;  // 1000s of sim time

    SecurityFixture() : rng(4242) {
        ca_keys = crypto::rsa_generate(rng, 512);
        root = crypto::make_self_signed("root-ca", ca_keys, kCertFrom, kCertTo, 1);
    }

    config::SecurityConfig make_config(config::SecurityConfig::Mode mode,
                                       DurationUs rekey = 0) {
        config::SecurityConfig cfg;
        cfg.mode = mode;
        cfg.session_cache_size = 8;
        cfg.rekey_interval = rekey;
        return cfg;
    }

    /// Context for `name` with a CA-issued chain (or chainless when
    /// `with_chain` is false — the statically-provisioned peer case).
    SecurityContext make_context(const std::string& name, const config::SecurityConfig& cfg,
                                 const Clock& clock, bool with_chain = true,
                                 TimeUs valid_to = kCertTo) {
        crypto::RsaKeyPair keys = crypto::rsa_generate(rng, 512);
        std::vector<crypto::Certificate> chain;
        if (with_chain) {
            chain = {crypto::issue_certificate(name, keys.public_key, "root-ca",
                                               ca_keys.private_key, kCertFrom, valid_to,
                                               next_serial++),
                     root};
        }
        keys_by_name[name] = keys.public_key;
        return SecurityContext(name, std::move(keys), std::move(chain), {root}, cfg, clock,
                               rng);
    }

    /// alice seals `payload` for bob and bob opens it, via a fresh buffer.
    SecureOpenResult relay(SecurityContext& alice, SecurityContext& bob, const Bytes& payload,
                           bool force_handshake = false, Bytes* captured = nullptr) {
        wire::ByteWriter out;
        if (!alice.seal_datagram(as_span(payload), bob.identity(), out, force_handshake)) {
            return SecureOpenResult{.error = EnvelopeError::kUnknownSigner};
        }
        frame = out.take();
        if (captured != nullptr) *captured = frame;
        wire::ByteReader reader(frame);
        EXPECT_EQ(reader.u8(), wire::kMsgSecureEnvelope);
        return bob.open_datagram(reader);
    }

    SecureOpenResult open_frame(SecurityContext& bob, const Bytes& datagram) {
        wire::ByteReader reader(datagram);
        EXPECT_EQ(reader.u8(), wire::kMsgSecureEnvelope);
        return bob.open_datagram(reader);
    }

    Rng rng;
    crypto::RsaKeyPair ca_keys;
    crypto::Certificate root;
    std::uint64_t next_serial = 10;
    std::map<std::string, crypto::RsaPublicKey> keys_by_name;
    Bytes frame;  ///< last relayed datagram (owned so views stay valid)
};

TEST_F(SecurityFixture, SignModeHandshakeThenSessionRoundTrip) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);

    const Bytes payload = make_payload();
    // First datagram carries the RSA handshake.
    auto first = relay(alice, bob, payload);
    ASSERT_TRUE(first.ok()) << crypto::to_string(first.error);
    EXPECT_TRUE(first.handshake);
    EXPECT_EQ(first.signer, "alice");
    EXPECT_TRUE(std::equal(first.payload.begin(), first.payload.end(), payload.begin(),
                           payload.end()));
    EXPECT_EQ(alice.stats().handshakes_sent, 1u);
    EXPECT_EQ(bob.stats().handshakes_accepted, 1u);

    // Later datagrams ride the cached session: no RSA, no handshake flag.
    auto second = relay(alice, bob, payload);
    ASSERT_TRUE(second.ok()) << crypto::to_string(second.error);
    EXPECT_FALSE(second.handshake);
    EXPECT_TRUE(std::equal(second.payload.begin(), second.payload.end(), payload.begin(),
                           payload.end()));
    EXPECT_EQ(alice.stats().handshakes_sent, 1u);  // unchanged
    EXPECT_EQ(alice.stats().session_hits, 1u);
    EXPECT_GE(bob.stats().session_hits, 1u);
}

TEST_F(SecurityFixture, SealModeHidesPayloadOnTheWire) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSeal);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);

    const Bytes payload = make_payload();
    ASSERT_TRUE(relay(alice, bob, payload).ok());  // handshake
    Bytes steady;
    auto opened = relay(alice, bob, payload, false, &steady);
    ASSERT_TRUE(opened.ok()) << crypto::to_string(opened.error);
    EXPECT_TRUE(std::equal(opened.payload.begin(), opened.payload.end(), payload.begin(),
                           payload.end()));
    // The cleartext request must not appear anywhere in the sealed frame.
    EXPECT_EQ(std::search(steady.begin(), steady.end(), payload.begin(), payload.end()),
              steady.end());
}

TEST_F(SecurityFixture, SignModePayloadStaysCleartext) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);

    const Bytes payload = make_payload();
    ASSERT_TRUE(relay(alice, bob, payload).ok());
    Bytes steady;
    ASSERT_TRUE(relay(alice, bob, payload, false, &steady).ok());
    // Sign mode authenticates but does not encrypt: payload visible.
    EXPECT_NE(std::search(steady.begin(), steady.end(), payload.begin(), payload.end()),
              steady.end());
}

TEST_F(SecurityFixture, SealRefusedWhenOffOrPeerUnknown) {
    ManualClock clock(0);
    const auto off = make_config(config::SecurityConfig::Mode::kOff);
    SecurityContext alice_off = make_context("alice", off, clock);
    wire::ByteWriter out;
    EXPECT_FALSE(alice_off.seal_datagram(as_span(make_payload()), "bob", out));
    EXPECT_EQ(out.size(), 0u);

    const auto sign = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext alice = make_context("alice2", sign, clock);
    EXPECT_FALSE(alice.seal_datagram(as_span(make_payload()), "nobody", out));
    EXPECT_EQ(out.size(), 0u);  // refusal writes nothing: plain fallback works
    EXPECT_EQ(alice.stats().seal_refusals, 1u);
}

TEST_F(SecurityFixture, TamperedFrameRejectedWithBadTag) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSeal);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);
    ASSERT_TRUE(relay(alice, bob, make_payload()).ok());

    Bytes steady;
    ASSERT_TRUE(relay(alice, bob, make_payload(), false, &steady).ok());
    const auto errors_before = bob.stats().open_errors;

    // Flip one ciphertext byte (the tag is the trailing 16 bytes).
    Bytes tampered = steady;
    tampered[tampered.size() - 20] ^= 0x01;
    EXPECT_EQ(open_frame(bob, tampered).error, EnvelopeError::kBadTag);

    // Flip a tag byte instead.
    tampered = steady;
    tampered.back() ^= 0x01;
    EXPECT_EQ(open_frame(bob, tampered).error, EnvelopeError::kBadTag);
    EXPECT_EQ(bob.stats().open_errors, errors_before + 2);
    EXPECT_GE(bob.stats().verify_failures, 2u);
}

TEST_F(SecurityFixture, TruncatedFrameRejectedTyped) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSeal);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);
    Bytes handshake;
    ASSERT_TRUE(relay(alice, bob, make_payload(), false, &handshake).ok());

    // Cut the handshake frame at every prefix: never a crash or a throw,
    // always a typed error.
    for (std::size_t len = 1; len < handshake.size(); ++len) {
        Bytes cut(handshake.begin(),
                  handshake.begin() + static_cast<std::ptrdiff_t>(len));
        const auto result = open_frame(bob, cut);
        EXPECT_FALSE(result.ok()) << "prefix length " << len;
    }
}

TEST_F(SecurityFixture, SessionFrameWithoutHandshakeIsNoSession) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    SecurityContext carol = make_context("carol", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);
    ASSERT_TRUE(relay(alice, bob, make_payload()).ok());  // bob learns the session

    // The steady-state frame reaches carol (who never saw the handshake).
    Bytes steady;
    ASSERT_TRUE(relay(alice, bob, make_payload(), false, &steady).ok());
    EXPECT_EQ(open_frame(carol, steady).error, EnvelopeError::kNoSession);
}

TEST_F(SecurityFixture, StaleKeyIdAfterRekeyIsKeyMismatch) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);
    ASSERT_TRUE(relay(alice, bob, make_payload()).ok());

    // alice force-rekeys but the handshake is lost; her next session frame
    // carries the *new* key id against bob's old session.
    wire::ByteWriter lost;
    ASSERT_TRUE(alice.seal_datagram(as_span(make_payload()), "bob", lost,
                                    /*force_handshake=*/true));
    Bytes steady;
    const auto result = relay(alice, bob, make_payload(), false, &steady);
    EXPECT_EQ(result.error, EnvelopeError::kKeyMismatch);
}

TEST_F(SecurityFixture, HandshakeForAnotherRecipientRejected) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    SecurityContext carol = make_context("carol", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);

    wire::ByteWriter out;
    ASSERT_TRUE(alice.seal_datagram(as_span(make_payload()), "bob", out));
    const Bytes datagram = out.take();
    EXPECT_EQ(open_frame(carol, datagram).error, EnvelopeError::kRecipientMismatch);
}

TEST_F(SecurityFixture, ChainlessHandshakeNeedsProvisionedKey) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext alice = make_context("alice", cfg, clock, /*with_chain=*/false);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);

    // No chain and no provisioning: bob cannot authenticate the key binding.
    wire::ByteWriter out;
    ASSERT_TRUE(alice.seal_datagram(as_span(make_payload()), "bob", out));
    Bytes datagram = out.take();
    EXPECT_EQ(open_frame(bob, datagram).error, EnvelopeError::kUnknownSigner);

    // Provision alice's key out of band; the retransmitted handshake lands.
    bob.add_peer_key("alice", keys_by_name["alice"]);
    wire::ByteWriter retry;
    ASSERT_TRUE(alice.seal_datagram(as_span(make_payload()), "bob", retry,
                                    /*force_handshake=*/true));
    datagram = retry.take();
    EXPECT_TRUE(open_frame(bob, datagram).ok());
}

TEST_F(SecurityFixture, ForeignCaChainRejected) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext bob = make_context("bob", cfg, clock);

    // mallory's chain anchors to a CA bob does not trust.
    Rng mallory_rng(13);
    crypto::RsaKeyPair rogue_ca = crypto::rsa_generate(mallory_rng, 512);
    crypto::RsaKeyPair mallory_keys = crypto::rsa_generate(mallory_rng, 512);
    const auto rogue_root =
        crypto::make_self_signed("rogue-ca", rogue_ca, kCertFrom, kCertTo, 66);
    std::vector<crypto::Certificate> chain = {
        crypto::issue_certificate("mallory", mallory_keys.public_key, "rogue-ca",
                                  rogue_ca.private_key, kCertFrom, kCertTo, 67),
        rogue_root};
    SecurityContext mallory("mallory", mallory_keys, chain, {rogue_root}, cfg, clock,
                            mallory_rng);
    mallory.add_peer_key("bob", keys_by_name["bob"]);

    wire::ByteWriter out;
    ASSERT_TRUE(mallory.seal_datagram(as_span(make_payload()), "bob", out));
    const Bytes datagram = out.take();
    EXPECT_EQ(open_frame(bob, datagram).error, EnvelopeError::kBadCertChain);
    EXPECT_GE(bob.stats().verify_failures, 1u);
}

TEST_F(SecurityFixture, OversizedModulusInChainRejected) {
    // mallory's self-signed certificate carries an odd modulus one bit above
    // the RSA kernel's cap. Chain validation checks its signature before it
    // looks for a trusted root, so the handshake must fail there instead of
    // throwing out of open_datagram.
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext bob = make_context("bob", cfg, clock);

    Rng mallory_rng(17);
    crypto::BigInt n = crypto::BigInt::random_bits(mallory_rng,
                                                   crypto::BigInt::kMaxModulusBits + 1);
    if (!n.is_odd()) n = n + crypto::BigInt(1);
    crypto::Certificate forged;
    forged.subject = "mallory";
    forged.issuer = "mallory";
    forged.public_key = {n, crypto::BigInt(65537)};
    forged.valid_from = kCertFrom;
    forged.valid_to = kCertTo;
    forged.serial = 99;
    forged.signature = (n - crypto::BigInt(1)).to_bytes_be(forged.public_key.modulus_bytes());
    SecurityContext mallory("mallory", crypto::rsa_generate(mallory_rng, 512), {forged},
                            {root}, cfg, clock, mallory_rng);
    mallory.add_peer_key("bob", keys_by_name["bob"]);

    wire::ByteWriter out;
    ASSERT_TRUE(mallory.seal_datagram(as_span(make_payload()), "bob", out));
    const Bytes datagram = out.take();
    EXPECT_EQ(open_frame(bob, datagram).error, EnvelopeError::kBadCertChain);
    EXPECT_EQ(bob.add_peer_chain({forged}), crypto::CertStatus::kBadSignature);
}

TEST_F(SecurityFixture, StolenChainWithoutKeyFailsBinding) {
    // mallory replays alice's (public) certificate chain but signs the key
    // binding with her own key: the chain verifies, the binding must not.
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext bob = make_context("bob", cfg, clock);

    crypto::RsaKeyPair alice_keys = crypto::rsa_generate(rng, 512);
    std::vector<crypto::Certificate> alice_chain = {
        crypto::issue_certificate("alice", alice_keys.public_key, "root-ca",
                                  ca_keys.private_key, kCertFrom, kCertTo, 70),
        root};
    crypto::RsaKeyPair mallory_keys = crypto::rsa_generate(rng, 512);
    // Identity claims "alice", carries alice's real chain, but holds
    // mallory's private key.
    SecurityContext imposter("alice", mallory_keys, alice_chain, {root}, cfg, clock, rng);
    imposter.add_peer_key("bob", keys_by_name["bob"]);

    wire::ByteWriter out;
    ASSERT_TRUE(imposter.seal_datagram(as_span(make_payload()), "bob", out));
    const Bytes datagram = out.take();
    EXPECT_EQ(open_frame(bob, datagram).error, EnvelopeError::kBadKeySignature);
}

TEST_F(SecurityFixture, RekeyIntervalForcesFreshHandshake) {
    ManualClock clock(0);
    const auto cfg =
        make_config(config::SecurityConfig::Mode::kSign, /*rekey=*/1000);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);

    ASSERT_TRUE(relay(alice, bob, make_payload()).ok());
    ASSERT_FALSE(relay(alice, bob, make_payload()).handshake);

    clock.advance(1500);  // past the rekey interval
    const auto rekeyed = relay(alice, bob, make_payload());
    ASSERT_TRUE(rekeyed.ok()) << crypto::to_string(rekeyed.error);
    EXPECT_TRUE(rekeyed.handshake);
    EXPECT_EQ(alice.stats().rekeys, 1u);
    EXPECT_EQ(alice.stats().handshakes_sent, 2u);
}

TEST_F(SecurityFixture, ReceiverGraceIsTwiceTheRekeyInterval) {
    ManualClock clock(0);
    const auto cfg =
        make_config(config::SecurityConfig::Mode::kSign, /*rekey=*/1000);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);
    ASSERT_TRUE(relay(alice, bob, make_payload()).ok());
    Bytes steady;
    ASSERT_TRUE(relay(alice, bob, make_payload(), false, &steady).ok());

    // Within 2x the interval the old session still opens (sender-mid-rekey
    // traffic must not be dropped)...
    clock.advance(1900);
    EXPECT_TRUE(open_frame(bob, steady).ok());
    // ...past the grace the session is gone.
    clock.advance(300);  // now 2200 > 2 * 1000
    EXPECT_EQ(open_frame(bob, steady).error, EnvelopeError::kNoSession);
    EXPECT_EQ(bob.rx_sessions().size(), 0u);  // stale entry evicted
}

TEST_F(SecurityFixture, DrainMemoShortCircuitsRepeatLookups) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSeal);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);
    ASSERT_TRUE(relay(alice, bob, make_payload()).ok());

    // A burst from the same peer — the shape of one recvmmsg drain.
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(relay(alice, bob, make_payload()).ok());
    }
    // The handshake primed the memo, so every session frame hits it.
    EXPECT_GE(bob.stats().memo_hits, 4u);
}

TEST_F(SecurityFixture, ObservabilityCountersTrackTheDatapath) {
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSeal);
    SecurityContext alice = make_context("alice", cfg, clock);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);
    obs::MetricsRegistry metrics;
    alice.set_observability(&metrics, "alice");
    bob.set_observability(&metrics, "bob");

    ASSERT_TRUE(relay(alice, bob, make_payload()).ok());
    ASSERT_TRUE(relay(alice, bob, make_payload()).ok());

    EXPECT_EQ(metrics.counter("crypto_seals", "alice").value(), 2u);
    EXPECT_EQ(metrics.counter("crypto_handshakes", "alice").value(), 1u);
    EXPECT_EQ(metrics.counter("crypto_opens", "bob").value(), 2u);
    EXPECT_EQ(metrics.counter("crypto_cache_hits", "alice").value(), 1u);
    EXPECT_EQ(metrics.counter("crypto_open_errors", "bob").value(), 0u);
}

TEST_F(SecurityFixture, CertificateExpiryMidScenario) {
    // Satellite: certificate lifetime rides the injected clock, so a sim
    // scenario can expire a credential mid-run. The established session
    // keeps working (symmetric state), but the next handshake — rekey or
    // recovery — is refused until the peer is re-certified.
    ManualClock clock(0);
    const auto cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext alice =
        make_context("alice", cfg, clock, /*with_chain=*/true, /*valid_to=*/5'000);
    SecurityContext bob = make_context("bob", cfg, clock);
    alice.add_peer_key("bob", keys_by_name["bob"]);

    // t=1000: handshake lands while the certificate is valid.
    clock.advance(1000);
    ASSERT_TRUE(relay(alice, bob, make_payload()).ok());

    // t=6000: the certificate expired. Steady-state session traffic still
    // flows — expiry gates *handshakes*, not cached symmetric sessions.
    clock.advance(5000);
    EXPECT_TRUE(relay(alice, bob, make_payload()).ok());

    // But a fresh handshake (lost-session recovery) is now rejected.
    const auto result = relay(alice, bob, make_payload(), /*force_handshake=*/true);
    EXPECT_EQ(result.error, EnvelopeError::kBadCertChain);
    EXPECT_GE(bob.stats().verify_failures, 1u);
}

// ---------------------------------------------------------------------------
// Authenticated advertisements end-to-end through the sim network: a BDN in
// authenticate_ads mode only registers brokers whose advertisement arrived
// inside a verified envelope with a matching certificate subject.

struct SecuredBdnFixture : SecurityFixture {
    SecuredBdnFixture() : net(kernel, 77) {
        bdn_host = net.add_host({"bdn", "S", "bdn-realm", 0});
        broker_host = net.add_host({"broker-1", "S", "r", 0});
        net.set_default_link({from_ms(5), 0, 2});
    }

    BrokerAdvertisement make_ad(const std::string& name) {
        BrokerAdvertisement ad;
        ad.broker_id = Uuid::random(rng);
        ad.broker_name = name;
        ad.endpoint = broker_ep();
        ad.realm = "r";
        return ad;
    }

    Bytes encode_ad(const BrokerAdvertisement& ad) {
        wire::ByteWriter w;
        w.u8(wire::kMsgBrokerAdvertisement);
        ad.encode(w);
        return w.take();
    }

    Endpoint bdn_ep() const { return {bdn_host, 7100}; }
    Endpoint broker_ep() const { return {broker_host, 7000}; }

    void deliver(const Bytes& datagram) {
        net.send_datagram(broker_ep(), bdn_ep(), Bytes(datagram));
        kernel.run_until(kernel.now() + kSecond);
    }

    sim::Kernel kernel;
    sim::SimNetwork net;
    HostId bdn_host{}, broker_host{};
};

TEST_F(SecuredBdnFixture, PlainAdRejectedWhenAuthenticationRequired) {
    auto sec_cfg = make_config(config::SecurityConfig::Mode::kSign);
    sec_cfg.authenticate_ads = true;
    SecurityContext bdn_sec =
        make_context("bdn", sec_cfg, net.host_clock(bdn_host));

    Bdn bdn(kernel, net, bdn_ep(), net.host_clock(bdn_host), {});
    bdn.set_security(&bdn_sec);

    deliver(encode_ad(make_ad("broker-1")));
    EXPECT_EQ(bdn.registered_count(), 0u);
    EXPECT_EQ(bdn.stats().ads_rejected_unauthenticated, 1u);
}

TEST_F(SecuredBdnFixture, ForwardedAdRejectedOnMonolithicBdn) {
    // Ad relays come only from ring peers, and a BDN without a ring has
    // none: relabelling a plain ad as a forward must not get it past
    // authenticate_ads.
    auto sec_cfg = make_config(config::SecurityConfig::Mode::kSign);
    sec_cfg.authenticate_ads = true;
    SecurityContext bdn_sec =
        make_context("bdn", sec_cfg, net.host_clock(bdn_host));

    Bdn bdn(kernel, net, bdn_ep(), net.host_clock(bdn_host), {});
    bdn.set_security(&bdn_sec);

    Bytes forwarded = encode_ad(make_ad("broker-1"));
    forwarded[0] = wire::kMsgAdForward;
    deliver(forwarded);
    EXPECT_EQ(bdn.registered_count(), 0u);
    EXPECT_EQ(bdn.stats().forwards_received, 0u);
    EXPECT_EQ(bdn.stats().forwards_dropped, 1u);
}

TEST_F(SecuredBdnFixture, SealedAdWithMatchingSubjectRegisters) {
    auto sec_cfg = make_config(config::SecurityConfig::Mode::kSign);
    sec_cfg.authenticate_ads = true;
    SecurityContext bdn_sec =
        make_context("bdn", sec_cfg, net.host_clock(bdn_host));
    SecurityContext broker_sec =
        make_context("broker-1", sec_cfg, net.host_clock(broker_host));
    broker_sec.add_peer_key("bdn", keys_by_name["bdn"]);

    Bdn bdn(kernel, net, bdn_ep(), net.host_clock(bdn_host), {});
    bdn.set_security(&bdn_sec);

    const Bytes plain = encode_ad(make_ad("broker-1"));
    wire::ByteWriter sealed;
    ASSERT_TRUE(broker_sec.seal_datagram(as_span(plain), "bdn", sealed));
    deliver(sealed.take());

    EXPECT_EQ(bdn.registered_count(), 1u);
    EXPECT_EQ(bdn.stats().secured_received, 1u);
    EXPECT_EQ(bdn.stats().ads_rejected_unauthenticated, 0u);
}

TEST_F(SecuredBdnFixture, SealedAdWithForeignSubjectRejected) {
    // A correctly-certified broker advertising *someone else's* name: the
    // envelope opens, but the subject/broker_name mismatch blocks it.
    auto sec_cfg = make_config(config::SecurityConfig::Mode::kSign);
    sec_cfg.authenticate_ads = true;
    SecurityContext bdn_sec =
        make_context("bdn", sec_cfg, net.host_clock(bdn_host));
    SecurityContext broker_sec =
        make_context("broker-2", sec_cfg, net.host_clock(broker_host));
    broker_sec.add_peer_key("bdn", keys_by_name["bdn"]);

    Bdn bdn(kernel, net, bdn_ep(), net.host_clock(bdn_host), {});
    bdn.set_security(&bdn_sec);

    const Bytes plain = encode_ad(make_ad("broker-1"));  // not broker-2's name
    wire::ByteWriter sealed;
    ASSERT_TRUE(broker_sec.seal_datagram(as_span(plain), "bdn", sealed));
    deliver(sealed.take());

    EXPECT_EQ(bdn.registered_count(), 0u);
    EXPECT_EQ(bdn.stats().secured_received, 1u);  // opened fine...
    EXPECT_EQ(bdn.stats().ads_rejected_unauthenticated, 1u);  // ...then blocked
}

TEST_F(SecuredBdnFixture, AnnouncedBdnReceivesSealedReadvertisement) {
    // §2.4: a BDN that announces itself gets the broker's advertisement
    // back. The reply takes the same send as an advertisement to a
    // configured BDN, so an authenticate_ads BDN whose identity the broker
    // knows receives it sealed and registers it.
    auto sec_cfg = make_config(config::SecurityConfig::Mode::kSeal);
    sec_cfg.authenticate_ads = true;
    SecurityContext bdn_sec = make_context("bdn", sec_cfg, net.host_clock(bdn_host));
    SecurityContext broker_sec =
        make_context("broker-1", sec_cfg, net.host_clock(broker_host));
    broker_sec.add_peer_key("bdn", keys_by_name["bdn"]);
    broker_sec.map_endpoint(bdn_ep(), "bdn");

    Bdn bdn(kernel, net, bdn_ep(), net.host_clock(bdn_host), {});
    bdn.set_security(&bdn_sec);

    // No configured BDNs: only the announcement can bring this ad about.
    timesvc::FixedUtcSource utc(net.host_clock(broker_host));
    broker::Broker broker(kernel, net, broker_ep(), net.host_clock(broker_host), utc, {},
                          "broker-1");
    BrokerDiscoveryPlugin plugin(BrokerIdentity{}, /*join_multicast=*/false);
    broker.add_plugin(&plugin);
    plugin.set_security(&broker_sec);
    broker.start();

    bdn.announce_to(broker_ep());
    kernel.run_until(kernel.now() + kSecond);

    EXPECT_EQ(bdn.registered_count(), 1u);
    EXPECT_EQ(bdn.stats().ads_rejected_unauthenticated, 0u);
    EXPECT_EQ(bdn.stats().secured_received, 1u);
    EXPECT_EQ(plugin.stats().advertisements_sealed, 1u);
}

TEST_F(SecuredBdnFixture, GarbageEnvelopeCountsOpenFailure) {
    auto sec_cfg = make_config(config::SecurityConfig::Mode::kSign);
    SecurityContext bdn_sec =
        make_context("bdn", sec_cfg, net.host_clock(bdn_host));
    Bdn bdn(kernel, net, bdn_ep(), net.host_clock(bdn_host), {});
    bdn.set_security(&bdn_sec);

    Bytes junk{wire::kMsgSecureEnvelope, 0x02, 0xFF, 0xFF};
    deliver(junk);
    EXPECT_EQ(bdn.stats().secure_open_failures, 1u);
    EXPECT_EQ(bdn.registered_count(), 0u);
}

}  // namespace
}  // namespace narada::discovery
