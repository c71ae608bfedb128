#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include "crypto/certificate.hpp"
#include "crypto/envelope.hpp"

namespace narada::crypto {
namespace {

// 512-bit keys keep unit tests fast; the benchmarks use 1024-bit keys.
RsaKeyPair test_keys(std::uint64_t seed = 42, std::size_t bits = 512) {
    Rng rng(seed);
    return rsa_generate(rng, bits);
}

TEST(Rsa, KeyGenerationShape) {
    const RsaKeyPair keys = test_keys();
    EXPECT_GE(keys.public_key.n.bit_length(), 500u);
    EXPECT_LE(keys.public_key.n.bit_length(), 512u);
    EXPECT_EQ(keys.public_key.e, BigInt(65537));
    EXPECT_EQ(keys.public_key.n, keys.private_key.n);
}

TEST(Rsa, RawRoundTripIdentity) {
    const RsaKeyPair keys = test_keys(1);
    // m^(e*d) == m mod n for random m.
    Rng rng(2);
    for (int i = 0; i < 5; ++i) {
        const BigInt m = BigInt::random_below(rng, keys.public_key.n);
        const BigInt c = BigInt::mod_pow(m, keys.public_key.e, keys.public_key.n);
        EXPECT_EQ(BigInt::mod_pow(c, keys.private_key.d, keys.private_key.n), m);
    }
}

TEST(Rsa, SignVerify) {
    const RsaKeyPair keys = test_keys(3);
    const Bytes message = {'h', 'e', 'l', 'l', 'o'};
    const Bytes signature = rsa_sign(keys.private_key, message);
    EXPECT_EQ(signature.size(), keys.public_key.modulus_bytes());
    EXPECT_TRUE(rsa_verify(keys.public_key, message, signature));
}

TEST(Rsa, VerifyRejectsTamperedMessage) {
    const RsaKeyPair keys = test_keys(4);
    const Bytes message = {1, 2, 3, 4};
    const Bytes signature = rsa_sign(keys.private_key, message);
    Bytes tampered = message;
    tampered[0] ^= 1;
    EXPECT_FALSE(rsa_verify(keys.public_key, tampered, signature));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
    const RsaKeyPair keys = test_keys(5);
    const Bytes message = {1, 2, 3, 4};
    Bytes signature = rsa_sign(keys.private_key, message);
    signature[10] ^= 1;
    EXPECT_FALSE(rsa_verify(keys.public_key, message, signature));
    signature[10] ^= 1;
    signature.pop_back();
    EXPECT_FALSE(rsa_verify(keys.public_key, message, signature));  // wrong size
}

TEST(Rsa, VerifyRejectsWrongKey) {
    const RsaKeyPair keys_a = test_keys(6);
    const RsaKeyPair keys_b = test_keys(7);
    const Bytes message = {9, 9, 9};
    const Bytes signature = rsa_sign(keys_a.private_key, message);
    EXPECT_FALSE(rsa_verify(keys_b.public_key, message, signature));
}

TEST(Rsa, EncryptDecrypt) {
    const RsaKeyPair keys = test_keys(8);
    Rng rng(9);
    const Bytes plaintext = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
    const auto ciphertext = rsa_encrypt(keys.public_key, plaintext, rng);
    ASSERT_TRUE(ciphertext.has_value());
    EXPECT_NE(*ciphertext, plaintext);
    const auto decrypted = rsa_decrypt(keys.private_key, *ciphertext);
    ASSERT_TRUE(decrypted.has_value());
    EXPECT_EQ(*decrypted, plaintext);
}

TEST(Rsa, EncryptionIsRandomized) {
    const RsaKeyPair keys = test_keys(10);
    Rng rng(11);
    const Bytes plaintext = {1, 2, 3};
    const auto c1 = rsa_encrypt(keys.public_key, plaintext, rng);
    const auto c2 = rsa_encrypt(keys.public_key, plaintext, rng);
    ASSERT_TRUE(c1 && c2);
    EXPECT_NE(*c1, *c2);  // PKCS#1 v1.5 random padding
}

TEST(Rsa, EncryptRejectsOversizedPlaintext) {
    const RsaKeyPair keys = test_keys(12);
    Rng rng(13);
    const Bytes too_big(keys.public_key.modulus_bytes() - 10, 0x41);
    EXPECT_FALSE(rsa_encrypt(keys.public_key, too_big, rng).has_value());
}

TEST(Rsa, DecryptRejectsGarbage) {
    const RsaKeyPair keys = test_keys(14);
    EXPECT_FALSE(rsa_decrypt(keys.private_key, Bytes(3, 7)).has_value());  // wrong size
    const Bytes junk(keys.private_key.modulus_bytes(), 0x5A);
    // Valid size but almost surely bad padding after decryption.
    const auto out = rsa_decrypt(keys.private_key, junk);
    EXPECT_FALSE(out.has_value());
}

TEST(Rsa, PublicOperationsRefuseAModulusAboveTheKernelCap) {
    // Public keys come from peers' certificates: a modulus the kernel cannot
    // hold fails the operation instead of throwing out of mod_pow.
    Rng rng(11);
    BigInt n = BigInt::random_bits(rng, BigInt::kMaxModulusBits + 1);
    if (!n.is_odd()) n = n + BigInt(1);
    const RsaPublicKey key{n, BigInt(65537)};
    const Bytes message = {1, 2, 3};
    const Bytes signature = (n - BigInt(1)).to_bytes_be(key.modulus_bytes());
    EXPECT_FALSE(rsa_verify(key, message, signature));
    EXPECT_FALSE(rsa_encrypt(key, message, rng).has_value());
}

TEST(Certificate, SelfSignedVerifies) {
    const RsaKeyPair root_keys = test_keys(20);
    const Certificate root = make_self_signed("root-ca", root_keys, 0, 1'000'000, 1);
    EXPECT_EQ(verify_chain({root}, {root}, 500), CertStatus::kOk);
}

TEST(Certificate, ChainOfThreeVerifies) {
    const RsaKeyPair root_keys = test_keys(21);
    const RsaKeyPair inter_keys = test_keys(22);
    const RsaKeyPair leaf_keys = test_keys(23);
    const Certificate root = make_self_signed("root-ca", root_keys, 0, 1'000'000, 1);
    const Certificate inter = issue_certificate("intermediate", inter_keys.public_key,
                                                "root-ca", root_keys.private_key, 0,
                                                1'000'000, 2);
    const Certificate leaf = issue_certificate("client.iu.edu", leaf_keys.public_key,
                                               "intermediate", inter_keys.private_key, 0,
                                               1'000'000, 3);
    EXPECT_EQ(verify_chain({leaf, inter, root}, {root}, 500), CertStatus::kOk);
}

TEST(Certificate, DetectsExpiryAndNotYetValid) {
    const RsaKeyPair keys = test_keys(24);
    const Certificate cert = make_self_signed("x", keys, 100, 200, 1);
    EXPECT_EQ(verify_chain({cert}, {cert}, 150), CertStatus::kOk);
    EXPECT_EQ(verify_chain({cert}, {cert}, 50), CertStatus::kNotYetValid);
    EXPECT_EQ(verify_chain({cert}, {cert}, 300), CertStatus::kExpired);
}

TEST(Certificate, DetectsTamperedSubject) {
    const RsaKeyPair keys = test_keys(25);
    Certificate cert = make_self_signed("honest", keys, 0, 1000, 1);
    cert.subject = "mallory";
    cert.issuer = "mallory";  // keep continuity so the signature is checked
    EXPECT_EQ(verify_chain({cert}, {cert}, 500), CertStatus::kBadSignature);
}

TEST(Certificate, DetectsBrokenChainNames) {
    const RsaKeyPair root_keys = test_keys(26);
    const RsaKeyPair leaf_keys = test_keys(27);
    const Certificate root = make_self_signed("root-ca", root_keys, 0, 1000, 1);
    const Certificate leaf = issue_certificate("leaf", leaf_keys.public_key, "other-ca",
                                               root_keys.private_key, 0, 1000, 2);
    EXPECT_EQ(verify_chain({leaf, root}, {root}, 500), CertStatus::kIssuerMismatch);
}

TEST(Certificate, UntrustedRootRejected) {
    const RsaKeyPair keys = test_keys(28);
    const RsaKeyPair other_keys = test_keys(29);
    const Certificate root = make_self_signed("root-ca", keys, 0, 1000, 1);
    const Certificate other = make_self_signed("other-ca", other_keys, 0, 1000, 2);
    EXPECT_EQ(verify_chain({root}, {other}, 500), CertStatus::kUntrustedRoot);
    EXPECT_EQ(verify_chain({}, {root}, 500), CertStatus::kEmptyChain);
}

TEST(Certificate, CodecRoundTrip) {
    const RsaKeyPair keys = test_keys(30);
    const Certificate cert = make_self_signed("round-trip", keys, 5, 10, 99);
    wire::ByteWriter w;
    cert.encode(w);
    wire::ByteReader r(w.bytes());
    EXPECT_EQ(Certificate::decode(r), cert);
}

TEST(Envelope, SealOpenRoundTrip) {
    const RsaKeyPair sender = test_keys(40);
    const RsaKeyPair recipient = test_keys(41);
    Rng rng(42);
    const Bytes payload = {'s', 'e', 'c', 'r', 'e', 't'};
    const auto env = seal(payload, "alice", sender.private_key, recipient.public_key,
                          "broker-1", rng);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(env->recipient_hint, "broker-1");
    const auto opened = open(*env, recipient.private_key, sender.public_key);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->payload, payload);
    EXPECT_EQ(opened->signer_name, "alice");
    EXPECT_TRUE(opened->signature_valid);
}

TEST(Envelope, WrongRecipientCannotOpen) {
    const RsaKeyPair sender = test_keys(43);
    const RsaKeyPair recipient = test_keys(44);
    const RsaKeyPair eve = test_keys(45);
    Rng rng(46);
    const auto env =
        seal(Bytes{1, 2, 3}, "alice", sender.private_key, recipient.public_key, "", rng);
    ASSERT_TRUE(env.has_value());
    EXPECT_FALSE(open(*env, eve.private_key, sender.public_key).has_value());
}

TEST(Envelope, ForgedSignerDetected) {
    const RsaKeyPair sender = test_keys(47);
    const RsaKeyPair recipient = test_keys(48);
    const RsaKeyPair impostor = test_keys(49);
    Rng rng(50);
    const auto env =
        seal(Bytes{7, 7, 7}, "mallory", impostor.private_key, recipient.public_key, "", rng);
    ASSERT_TRUE(env.has_value());
    // Recipient checks against alice's real public key: signature invalid.
    const auto opened = open(*env, recipient.private_key, sender.public_key);
    ASSERT_TRUE(opened.has_value());
    EXPECT_FALSE(opened->signature_valid);
}

TEST(Envelope, CodecRoundTrip) {
    const RsaKeyPair sender = test_keys(51);
    const RsaKeyPair recipient = test_keys(52);
    Rng rng(53);
    const auto env =
        seal(Bytes{9, 9}, "bob", sender.private_key, recipient.public_key, "hint", rng);
    ASSERT_TRUE(env.has_value());
    wire::ByteWriter w;
    env->encode(w);
    wire::ByteReader r(w.bytes());
    const SecureEnvelope decoded = SecureEnvelope::decode(r);
    const auto opened = open(decoded, recipient.private_key, sender.public_key);
    ASSERT_TRUE(opened.has_value());
    EXPECT_TRUE(opened->signature_valid);
}

TEST(Envelope, TamperedCiphertextRejected) {
    const RsaKeyPair sender = test_keys(54);
    const RsaKeyPair recipient = test_keys(55);
    Rng rng(56);
    auto env = seal(Bytes{1}, "a", sender.private_key, recipient.public_key, "", rng);
    ASSERT_TRUE(env.has_value());
    env->ciphertext[0] ^= 0xFF;
    const auto opened = open(*env, recipient.private_key, sender.public_key);
    // Either structural failure or an invalid signature — never a clean open.
    if (opened.has_value()) {
        EXPECT_FALSE(opened->signature_valid);
    }
}

}  // namespace
}  // namespace narada::crypto
