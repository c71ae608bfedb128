// Arbitrary-precision unsigned integers, from scratch.
//
// The substrate under RSA (src/crypto/rsa.*), which in turn backs the
// paper's §9.1 security experiments (X.509 validation, signing and
// encrypting BrokerDiscoveryRequests — Figures 13 and 14). General
// arithmetic uses little-endian uint32 limbs with uint64 intermediates and
// Knuth's Algorithm D for division.
//
// Modular exponentiation has its own kernel: a left-to-right 4-bit
// fixed-window ladder whose products, for odd moduli (every RSA and
// Miller-Rabin modulus), are CIOS Montgomery products over 64-bit words
// (Koç, Acar and Kaliski, IEEE Micro 1996) in fixed-size storage, with no
// trial division and no heap allocation per product. Even moduli reduce
// each product by division inside the same ladder. The ladder multiplies
// once per window whatever its bits, so it never branches on a bit of a
// long exponent. Exponents of at most 64 bits are public (e = 65537) and
// run plain square-and-multiply over their set bits, half the products of
// the ladder. It is not hardened against cache timing: the window table is
// indexed by exponent digits.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace narada::crypto {

struct BigIntDivMod;

class BigInt {
public:
    BigInt() = default;
    BigInt(std::uint64_t value);  // NOLINT(google-explicit-constructor) numeric literal init

    /// Big-endian byte import/export (the wire and padding formats).
    static BigInt from_bytes_be(const Bytes& bytes);
    /// Export big-endian, left-padded with zeros to at least `min_len`.
    [[nodiscard]] Bytes to_bytes_be(std::size_t min_len = 0) const;

    static std::optional<BigInt> from_hex(const std::string& hex);
    [[nodiscard]] std::string to_hex() const;

    [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
    [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
    [[nodiscard]] std::size_t bit_length() const;
    [[nodiscard]] bool bit(std::size_t index) const;
    [[nodiscard]] std::uint64_t low_u64() const;

    friend bool operator==(const BigInt& a, const BigInt& b) { return a.limbs_ == b.limbs_; }
    friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
        return compare(a, b);
    }

    BigInt operator+(const BigInt& other) const;
    /// Requires *this >= other (unsigned arithmetic); throws otherwise.
    BigInt operator-(const BigInt& other) const;
    BigInt operator*(const BigInt& other) const;
    BigInt operator<<(std::size_t bits) const;
    BigInt operator>>(std::size_t bits) const;

    using DivMod = BigIntDivMod;
    /// Knuth Algorithm D. Throws std::domain_error on division by zero.
    [[nodiscard]] DivMod divmod(const BigInt& divisor) const;
    BigInt operator/(const BigInt& other) const;
    BigInt operator%(const BigInt& other) const;

    /// Largest odd modulus the Montgomery kernel's fixed storage holds.
    static constexpr std::size_t kMaxModulusBits = 4096;

    /// (base ^ exponent) mod modulus. Throws std::domain_error on a zero
    /// modulus and std::length_error on an odd modulus above kMaxModulusBits.
    static BigInt mod_pow(const BigInt& base, const BigInt& exponent, const BigInt& modulus);
    static BigInt gcd(BigInt a, BigInt b);
    /// Multiplicative inverse of a mod m, if gcd(a, m) == 1.
    static std::optional<BigInt> mod_inverse(const BigInt& a, const BigInt& m);

    /// Uniform integer with exactly `bits` bits (top bit set).
    static BigInt random_bits(Rng& rng, std::size_t bits);
    /// Uniform integer in [0, bound).
    static BigInt random_below(Rng& rng, const BigInt& bound);
    /// Miller-Rabin probable-prime generation/testing (odd candidates are
    /// capped at kMaxModulusBits like mod_pow's moduli).
    static BigInt random_prime(Rng& rng, std::size_t bits, int rounds = 20);
    [[nodiscard]] bool is_probable_prime(Rng& rng, int rounds = 20) const;

private:
    class Montgomery;  // the odd-modulus reducer (bigint.cpp)

    static std::strong_ordering compare(const BigInt& a, const BigInt& b);
    void trim();

    // Little-endian limbs; empty represents zero.
    std::vector<std::uint32_t> limbs_;
};

struct BigIntDivMod {
    BigInt quotient;
    BigInt remainder;
};

inline BigInt BigInt::operator/(const BigInt& other) const { return divmod(other).quotient; }
inline BigInt BigInt::operator%(const BigInt& other) const { return divmod(other).remainder; }

}  // namespace narada::crypto
