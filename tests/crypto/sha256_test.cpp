#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include "support/hex.hpp"

namespace narada::crypto {
namespace {

std::string digest_hex(const Sha256::Digest& d) { return hex_encode(d.data(), d.size()); }

TEST(Sha256, EmptyString) {
    // FIPS 180-4 / NIST test vector.
    EXPECT_EQ(digest_hex(Sha256::hash("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(digest_hex(Sha256::hash("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(digest_hex(Sha256::hash(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(digest_hex(h.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
    const std::string text = "The quick brown fox jumps over the lazy dog";
    Sha256 h;
    for (char c : text) h.update(std::string_view(&c, 1));
    EXPECT_EQ(h.finish(), Sha256::hash(text));
}

TEST(Sha256, BoundaryLengths) {
    // Lengths around the 55/56/64-byte padding boundaries must all work.
    for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
        const std::string a(len, 'x');
        Sha256 h;
        h.update(a);
        const auto one = h.finish();
        // Split at an arbitrary point; digest must be identical.
        Sha256 h2;
        h2.update(a.substr(0, len / 3));
        h2.update(a.substr(len / 3));
        EXPECT_EQ(h2.finish(), one) << "len=" << len;
    }
}

TEST(Sha256, ResetReuses) {
    Sha256 h;
    h.update("garbage");
    h.reset();
    h.update("abc");
    EXPECT_EQ(digest_hex(h.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(HmacSha256, Rfc4231Case1) {
    const Bytes key(20, 0x0b);
    const std::string msg = "Hi There";
    const Bytes data(msg.begin(), msg.end());
    EXPECT_EQ(hex_encode(hmac_sha256(key, data).data(), 32),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
    const std::string key_s = "Jefe";
    const std::string msg = "what do ya want for nothing?";
    const Bytes key(key_s.begin(), key_s.end());
    const Bytes data(msg.begin(), msg.end());
    EXPECT_EQ(hex_encode(hmac_sha256(key, data).data(), 32),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashed) {
    // RFC 4231 case 6: 131-byte key.
    const Bytes key(131, 0xaa);
    const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
    const Bytes data(msg.begin(), msg.end());
    EXPECT_EQ(hex_encode(hmac_sha256(key, data).data(), 32),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

}  // namespace
}  // namespace narada::crypto
