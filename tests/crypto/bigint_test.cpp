#include "crypto/bigint.hpp"

#include <gtest/gtest.h>

namespace narada::crypto {
namespace {

TEST(BigInt, ZeroProperties) {
    BigInt zero;
    EXPECT_TRUE(zero.is_zero());
    EXPECT_FALSE(zero.is_odd());
    EXPECT_EQ(zero.bit_length(), 0u);
    EXPECT_EQ(zero.to_hex(), "0");
    EXPECT_EQ(zero, BigInt(0));
}

TEST(BigInt, SmallArithmetic) {
    EXPECT_EQ(BigInt(7) + BigInt(8), BigInt(15));
    EXPECT_EQ(BigInt(100) - BigInt(58), BigInt(42));
    EXPECT_EQ(BigInt(12) * BigInt(12), BigInt(144));
    EXPECT_EQ(BigInt(100) / BigInt(7), BigInt(14));
    EXPECT_EQ(BigInt(100) % BigInt(7), BigInt(2));
}

TEST(BigInt, SubtractionUnderflowThrows) {
    EXPECT_THROW(BigInt(1) - BigInt(2), std::underflow_error);
}

TEST(BigInt, DivisionByZeroThrows) {
    EXPECT_THROW(BigInt(1).divmod(BigInt{}), std::domain_error);
}

TEST(BigInt, CarryPropagation) {
    const BigInt max32(0xFFFFFFFFull);
    EXPECT_EQ((max32 + BigInt(1)).to_hex(), "100000000");
    const BigInt max64(0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ((max64 + BigInt(1)).to_hex(), "10000000000000000");
    EXPECT_EQ((max64 * max64).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigInt, HexRoundTrip) {
    const std::string hex = "deadbeef0123456789abcdef00000000fedcba9876543210";
    const auto v = BigInt::from_hex(hex);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->to_hex(), hex);
    EXPECT_FALSE(BigInt::from_hex("xyz").has_value());
}

TEST(BigInt, BytesRoundTrip) {
    const Bytes bytes = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
    const BigInt v = BigInt::from_bytes_be(bytes);
    EXPECT_EQ(v.to_bytes_be(), bytes);
    // Leading zeros stripped unless min_len requests padding.
    const Bytes padded = v.to_bytes_be(12);
    EXPECT_EQ(padded.size(), 12u);
    EXPECT_EQ(padded[0], 0);
    EXPECT_EQ(padded[3], 0x01);
}

TEST(BigInt, Comparisons) {
    EXPECT_LT(BigInt(3), BigInt(5));
    EXPECT_GT(*BigInt::from_hex("100000000"), BigInt(0xFFFFFFFFull));
    EXPECT_EQ(BigInt(5) <=> BigInt(5), std::strong_ordering::equal);
}

TEST(BigInt, Shifts) {
    EXPECT_EQ(BigInt(1) << 64, *BigInt::from_hex("10000000000000000"));
    EXPECT_EQ((BigInt(1) << 100) >> 100, BigInt(1));
    EXPECT_EQ(BigInt(0xFF) >> 4, BigInt(0xF));
    EXPECT_EQ(BigInt(0xFF) >> 9, BigInt(0));
    EXPECT_EQ((BigInt(5) << 0), BigInt(5));
}

TEST(BigInt, BitAccess) {
    const BigInt v(0b1010);
    EXPECT_FALSE(v.bit(0));
    EXPECT_TRUE(v.bit(1));
    EXPECT_FALSE(v.bit(2));
    EXPECT_TRUE(v.bit(3));
    EXPECT_FALSE(v.bit(100));
    EXPECT_EQ(v.bit_length(), 4u);
}

TEST(BigInt, DivModRandomizedInvariant) {
    // Property: for random a, b: a == q*b + r with r < b.
    Rng rng(1234);
    for (int i = 0; i < 200; ++i) {
        const BigInt a = BigInt::random_bits(rng, 40 + rng.bounded(200));
        const BigInt b = BigInt::random_bits(rng, 10 + rng.bounded(150));
        const auto [q, r] = a.divmod(b);
        EXPECT_LT(r, b);
        EXPECT_EQ(q * b + r, a);
    }
}

TEST(BigInt, DivModKnuthHardCase) {
    // Exercise the q_hat correction path: divisor with top limb 0x80000000
    // and dividend forcing an over-estimate.
    const BigInt a = *BigInt::from_hex("7fffffff800000010000000000000000");
    const BigInt b = *BigInt::from_hex("800000008000000200000005");
    const auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
}

TEST(BigInt, ModPowSmallKnown) {
    EXPECT_EQ(BigInt::mod_pow(BigInt(4), BigInt(13), BigInt(497)), BigInt(445));
    EXPECT_EQ(BigInt::mod_pow(BigInt(2), BigInt(10), BigInt(1000)), BigInt(24));
    EXPECT_EQ(BigInt::mod_pow(BigInt(7), BigInt(0), BigInt(13)), BigInt(1));
    EXPECT_EQ(BigInt::mod_pow(BigInt(7), BigInt(5), BigInt(1)), BigInt(0));
}

TEST(BigInt, ModPowFermat) {
    // Fermat's little theorem: a^(p-1) = 1 mod p for prime p, a not mult.
    const BigInt p(1000003);
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        const BigInt a = BigInt(2) + BigInt::random_below(rng, p - BigInt(3));
        EXPECT_EQ(BigInt::mod_pow(a, p - BigInt(1), p), BigInt(1));
    }
}

// Right-to-left square-and-multiply with every product reduced by division:
// the reference the Montgomery ladder must agree with.
BigInt reference_mod_pow(const BigInt& base, const BigInt& exponent, const BigInt& modulus) {
    BigInt result = BigInt(1) % modulus;
    BigInt b = base % modulus;
    for (std::size_t i = 0; i < exponent.bit_length(); ++i) {
        if (exponent.bit(i)) result = (result * b) % modulus;
        b = (b * b) % modulus;
    }
    return result;
}

TEST(BigInt, ModPowMatchesDivisionReference) {
    Rng rng(2026);
    for (int i = 0; i < 120; ++i) {
        // Odd and even moduli from 1 to 1100 bits, bases above and below
        // them, exponents from 0 to 700 bits.
        const BigInt modulus = BigInt::random_bits(rng, 1 + rng.bounded(1100));
        const BigInt base = BigInt::random_bits(rng, 1 + rng.bounded(1200));
        const BigInt exponent = BigInt::random_bits(rng, rng.bounded(700));
        EXPECT_EQ(BigInt::mod_pow(base, exponent, modulus),
                  reference_mod_pow(base, exponent, modulus))
            << modulus.to_hex();
    }
}

TEST(BigInt, ModPowAtTheModulusCap) {
    Rng rng(4096);
    BigInt modulus = BigInt::random_bits(rng, BigInt::kMaxModulusBits);
    if (!modulus.is_odd()) modulus = modulus + BigInt(1);
    const BigInt base = BigInt::random_bits(rng, 5000);
    for (const std::size_t bits : {64, 200}) {  // either side of the short-exponent path
        const BigInt exponent = BigInt::random_bits(rng, bits);
        EXPECT_EQ(BigInt::mod_pow(base, exponent, modulus),
                  reference_mod_pow(base, exponent, modulus));
    }
    const BigInt above = (BigInt(1) << BigInt::kMaxModulusBits) + BigInt(1);
    EXPECT_THROW(BigInt::mod_pow(BigInt(2), BigInt(3), above), std::length_error);
    EXPECT_EQ(BigInt::mod_pow(BigInt(3), BigInt(2), above - BigInt(1)), BigInt(9));  // even
}

TEST(BigInt, Gcd) {
    EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(18)), BigInt(6));
    EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
    EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
    EXPECT_EQ(BigInt::gcd(BigInt(5), BigInt(0)), BigInt(5));
}

TEST(BigInt, ModInverse) {
    const auto inv = BigInt::mod_inverse(BigInt(3), BigInt(11));
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(*inv, BigInt(4));  // 3*4 = 12 = 1 mod 11
    EXPECT_FALSE(BigInt::mod_inverse(BigInt(6), BigInt(9)).has_value());  // gcd 3
}

TEST(BigInt, ModInverseRandomized) {
    Rng rng(77);
    const BigInt m = *BigInt::from_hex("fffffffb");  // prime 2^32-5
    for (int i = 0; i < 100; ++i) {
        const BigInt a = BigInt(1) + BigInt::random_below(rng, m - BigInt(1));
        const auto inv = BigInt::mod_inverse(a, m);
        ASSERT_TRUE(inv.has_value());
        EXPECT_EQ((a * *inv) % m, BigInt(1));
    }
}

TEST(BigInt, RandomBitsExactLength) {
    Rng rng(9);
    for (std::size_t bits : {1u, 2u, 31u, 32u, 33u, 64u, 100u, 256u}) {
        const BigInt v = BigInt::random_bits(rng, bits);
        EXPECT_EQ(v.bit_length(), bits);
    }
}

TEST(BigInt, RandomBelowStaysBelow) {
    Rng rng(10);
    const BigInt bound = *BigInt::from_hex("123456789abcdef");
    for (int i = 0; i < 200; ++i) {
        EXPECT_LT(BigInt::random_below(rng, bound), bound);
    }
}

TEST(BigInt, PrimalityKnownPrimes) {
    Rng rng(11);
    for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 97ull, 65537ull, 1000003ull,
                            4294967311ull /* > 2^32 */}) {
        EXPECT_TRUE(BigInt(p).is_probable_prime(rng)) << p;
    }
}

TEST(BigInt, PrimalityKnownComposites) {
    Rng rng(12);
    for (std::uint64_t c : {1ull, 4ull, 100ull, 65535ull, 561ull /* Carmichael */,
                            1000001ull, 4294967297ull /* F5 = 641*6700417 */}) {
        EXPECT_FALSE(BigInt(c).is_probable_prime(rng)) << c;
    }
}

TEST(BigInt, RandomPrimeHasRequestedSize) {
    Rng rng(13);
    const BigInt p = BigInt::random_prime(rng, 128, 15);
    EXPECT_EQ(p.bit_length(), 128u);
    EXPECT_TRUE(p.is_odd());
    EXPECT_TRUE(p.is_probable_prime(rng, 15));
}

}  // namespace
}  // namespace narada::crypto
