#include "crypto/aes.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "support/hex.hpp"

namespace narada::crypto {
namespace {

Aes128::Key key_from_hex(const std::string& hex) {
    const auto bytes = hex_decode(hex).value();
    Aes128::Key key{};
    std::copy_n(bytes.begin(), key.size(), key.begin());
    return key;
}

TEST(Aes128, Fips197AppendixB) {
    const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
    const auto plain = hex_decode("3243f6a8885a308d313198a2e0370734").value();
    std::uint8_t out[16];
    aes.encrypt_block(plain.data(), out);
    EXPECT_EQ(hex_encode(out, 16), "3925841d02dc09fbdc118597196a0b32");
    std::uint8_t back[16];
    aes.decrypt_block(out, back);
    EXPECT_EQ(hex_encode(back, 16), "3243f6a8885a308d313198a2e0370734");
}

TEST(Aes128, Fips197AppendixC1) {
    const Aes128 aes(key_from_hex("000102030405060708090a0b0c0d0e0f"));
    const auto plain = hex_decode("00112233445566778899aabbccddeeff").value();
    std::uint8_t out[16];
    aes.encrypt_block(plain.data(), out);
    EXPECT_EQ(hex_encode(out, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, NistCbcVector) {
    // NIST SP 800-38A F.2.1 CBC-AES128.Encrypt, first block.
    const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
    Aes128::Block iv{};
    const auto iv_bytes = hex_decode("000102030405060708090a0b0c0d0e0f").value();
    std::copy_n(iv_bytes.begin(), iv.size(), iv.begin());
    const auto plain = hex_decode("6bc1bee22e409f96e93d7e117393172a").value();
    const Bytes ct = aes.encrypt_cbc(plain, iv);
    // Our CBC appends a PKCS#7 padding block; the first block must match.
    ASSERT_EQ(ct.size(), 32u);
    EXPECT_EQ(hex_encode(ct.data(), 16), "7649abac8119b246cee98e9b12e9197d");
}

TEST(Aes128, CbcRoundTripVariousLengths) {
    Rng rng(5);
    const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
    for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u, 1000u}) {
        Bytes plain(len);
        for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next());
        Aes128::Block iv{};
        for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next());
        const Bytes ct = aes.encrypt_cbc(plain, iv);
        EXPECT_EQ(ct.size() % 16, 0u);
        EXPECT_GT(ct.size(), plain.size());  // padding always added
        EXPECT_EQ(aes.decrypt_cbc(ct, iv), plain) << "len=" << len;
    }
}

TEST(Aes128, CbcTamperDetectedByPadding) {
    const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
    Aes128::Block iv{};
    const Bytes plain(10, 0x42);
    Bytes ct = aes.encrypt_cbc(plain, iv);
    ct.back() ^= 0xFF;  // corrupt the padding region
    EXPECT_THROW((void)aes.decrypt_cbc(ct, iv), std::invalid_argument);
}

TEST(Aes128, CbcRejectsBadLength) {
    const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
    Aes128::Block iv{};
    EXPECT_THROW((void)aes.decrypt_cbc(Bytes(15, 0), iv), std::invalid_argument);
    EXPECT_THROW((void)aes.decrypt_cbc(Bytes{}, iv), std::invalid_argument);
}

TEST(Aes128, DifferentIvDifferentCiphertext) {
    const Aes128 aes(key_from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
    const Bytes plain(32, 0x11);
    Aes128::Block iv1{};
    Aes128::Block iv2{};
    iv2[0] = 1;
    EXPECT_NE(aes.encrypt_cbc(plain, iv1), aes.encrypt_cbc(plain, iv2));
}

}  // namespace
}  // namespace narada::crypto
