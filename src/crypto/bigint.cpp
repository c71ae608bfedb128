#include "crypto/bigint.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace narada::crypto {
namespace {

constexpr std::uint64_t kBase = 1ull << 32;

using Word = std::uint64_t;
__extension__ using Wide = unsigned __int128;
constexpr std::size_t kMaxWords = BigInt::kMaxModulusBits / 64;
constexpr std::size_t kWindowBits = 4;
constexpr std::size_t kPublicExponentBits = 64;

int hex_value(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

/// Exponent digit `index` (counted from the least significant window).
std::size_t window_digit(const BigInt& exponent, std::size_t index) {
    std::size_t digit = 0;
    for (std::size_t b = kWindowBits; b-- > 0;) {
        digit = (digit << 1) | static_cast<std::size_t>(exponent.bit(index * kWindowBits + b));
    }
    return digit;
}

/// base^exponent in `ring`, left to right over kWindowBits-bit windows from
/// a table of base^0 .. base^15. Every window costs kWindowBits squarings
/// and one table product, a zero window multiplying by table[0] (the ring's
/// one), so the products depend on the exponent's length, not its bits.
///
/// An exponent of at most kPublicExponentBits is a public one (e = 65537
/// in every verify, encrypt and sign fault check; a private exponent that
/// short would sit under a modulus of about 128 bits). It runs plain
/// square-and-multiply, skipping its zero bits: 17 products for 65537
/// where the table and windows take 34.
template <typename Ring>
typename Ring::Elem window_pow(const Ring& ring, const typename Ring::Elem& base,
                               const BigInt& exponent) {
    const std::size_t bits = exponent.bit_length();
    if (bits == 0) return ring.one();
    if (bits <= kPublicExponentBits) {
        typename Ring::Elem acc = base;
        for (std::size_t i = bits - 1; i-- > 0;) {
            ring.mul(acc, acc, acc);
            if (exponent.bit(i)) ring.mul(acc, acc, base);
        }
        return acc;
    }
    std::array<typename Ring::Elem, std::size_t{1} << kWindowBits> table{};
    table[0] = ring.one();
    table[1] = base;
    for (std::size_t k = 2; k < table.size(); ++k) ring.mul(table[k], table[k - 1], base);
    const std::size_t windows = (bits + kWindowBits - 1) / kWindowBits;
    typename Ring::Elem acc = table[window_digit(exponent, windows - 1)];
    for (std::size_t w = windows - 1; w-- > 0;) {
        for (std::size_t s = 0; s < kWindowBits; ++s) ring.mul(acc, acc, acc);
        ring.mul(acc, acc, table[window_digit(exponent, w)]);
    }
    return acc;
}

/// The reducer for even moduli, which Montgomery cannot serve: schoolbook
/// products reduced by Knuth division. RSA and Miller-Rabin moduli are odd.
struct DivisionRing {
    using Elem = BigInt;
    const BigInt& modulus;

    void mul(BigInt& out, const BigInt& a, const BigInt& b) const { out = (a * b) % modulus; }
    [[nodiscard]] BigInt one() const { return BigInt(1); }  // modulus >= 2
};

}  // namespace

/// Montgomery arithmetic modulo an odd m of at most kMaxModulusBits bits,
/// with R = 2^(64 * words). An element x * R mod m lives in a fixed array
/// of 64-bit words (the ones above `words_` stay zero), so products never
/// touch the heap. The constants -m^-1 mod 2^64 and R^2 mod m are computed
/// per instance, i.e. once per mod_pow or primality test.
class BigInt::Montgomery {
public:
    using Elem = std::array<Word, kMaxWords>;

    explicit Montgomery(const BigInt& modulus)
        : modulus_(modulus), words_((modulus.limbs_.size() + 1) / 2) {
        if (words_ > kMaxWords) {
            throw std::length_error("BigInt: odd modulus above kMaxModulusBits (4096 bits)");
        }
        load(m_, modulus);
        // Newton's iteration for m^-1 mod 2^64: m is its own inverse mod
        // 2^3, and each step doubles the correct low bits (3 -> 96).
        Word inverse = m_[0];
        for (int i = 0; i < 5; ++i) inverse *= 2 - m_[0] * inverse;
        m0_inv_ = Word{0} - inverse;
        load(r2_, (BigInt(1) << (128 * words_)) % modulus);
        Elem unit{};
        unit[0] = 1;
        mul(one_, r2_, unit);  // R^2 * 1 / R = R mod m
    }

    /// out = a * b / R mod m, for a, b < m; out may alias a or b. CIOS:
    /// each word of b is multiplied in and one word of the accumulator is
    /// reduced away in the same pass, so t stays below 2m and one
    /// conditional subtraction (a mask select) finishes the product.
    void mul(Elem& out, const Elem& a, const Elem& b) const {
        const std::size_t n = words_;
        std::array<Word, kMaxWords + 2> t{};
        for (std::size_t i = 0; i < n; ++i) {
            Word carry = 0;
            for (std::size_t j = 0; j < n; ++j) {
                const Wide cur = static_cast<Wide>(a[j]) * b[i] + t[j] + carry;
                t[j] = static_cast<Word>(cur);
                carry = static_cast<Word>(cur >> 64);
            }
            Wide cur = static_cast<Wide>(t[n]) + carry;
            t[n] = static_cast<Word>(cur);
            t[n + 1] = static_cast<Word>(cur >> 64);

            const Word u = t[0] * m0_inv_;  // makes t + u * m divisible by 2^64
            cur = static_cast<Wide>(u) * m_[0] + t[0];
            carry = static_cast<Word>(cur >> 64);
            for (std::size_t j = 1; j < n; ++j) {
                cur = static_cast<Wide>(u) * m_[j] + t[j] + carry;
                t[j - 1] = static_cast<Word>(cur);
                carry = static_cast<Word>(cur >> 64);
            }
            cur = static_cast<Wide>(t[n]) + carry;
            t[n - 1] = static_cast<Word>(cur);
            t[n] = t[n + 1] + static_cast<Word>(cur >> 64);
        }
        // a and b are no longer read, so out (which may alias them) holds
        // t - m until the select.
        Word borrow = 0;
        for (std::size_t j = 0; j < n; ++j) {
            const Wide d = static_cast<Wide>(t[j]) - m_[j] - borrow;
            out[j] = static_cast<Word>(d);
            borrow = static_cast<Word>(d >> 64) & 1;
        }
        const Word keep_t = Word{0} - static_cast<Word>(t[n] < borrow);  // t < m
        for (std::size_t j = 0; j < n; ++j) {
            out[j] = (t[j] & keep_t) | (out[j] & ~keep_t);
        }
    }

    /// x mod m, into the Montgomery domain.
    [[nodiscard]] Elem lift(const BigInt& x) const {
        Elem out{};
        if (x < modulus_) {
            load(out, x);
        } else {
            load(out, x % modulus_);
        }
        mul(out, out, r2_);
        return out;
    }

    [[nodiscard]] const Elem& one() const { return one_; }

    /// Out of the Montgomery domain.
    [[nodiscard]] BigInt lower(const Elem& x) const {
        Elem unit{};
        unit[0] = 1;
        Elem plain{};
        mul(plain, x, unit);
        BigInt out;
        out.limbs_.resize(2 * words_);
        for (std::size_t i = 0; i < words_; ++i) {
            out.limbs_[2 * i] = static_cast<std::uint32_t>(plain[i]);
            out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(plain[i] >> 32);
        }
        out.trim();
        return out;
    }

private:
    static void load(Elem& out, const BigInt& x) {
        for (std::size_t i = 0; i < x.limbs_.size(); ++i) {
            out[i / 2] |= static_cast<Word>(x.limbs_[i]) << (32 * (i % 2));
        }
    }

    const BigInt& modulus_;  // the caller's; outlives this per-call object
    std::size_t words_;
    Elem m_{};
    Word m0_inv_ = 0;  // -m^-1 mod 2^64
    Elem r2_{};        // R^2 mod m
    Elem one_{};       // R mod m
};

BigInt::BigInt(std::uint64_t value) {
    if (value == 0) return;
    limbs_.push_back(static_cast<std::uint32_t>(value));
    if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
}

void BigInt::trim() {
    while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes_be(const Bytes& bytes) {
    BigInt out;
    out.limbs_.assign((bytes.size() + 3) / 4, 0);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const std::size_t rank = bytes.size() - 1 - i;  // byte significance
        out.limbs_[rank / 4] |= static_cast<std::uint32_t>(bytes[i]) << (8 * (rank % 4));
    }
    out.trim();
    return out;
}

Bytes BigInt::to_bytes_be(std::size_t min_len) const {
    Bytes out;
    const std::size_t byte_len = (bit_length() + 7) / 8;
    out.reserve(std::max(byte_len, min_len));
    for (std::size_t i = byte_len; i-- > 0;) {
        const std::size_t limb = i / 4;
        const std::size_t shift = (i % 4) * 8;
        out.push_back(static_cast<std::uint8_t>(limbs_[limb] >> shift));
    }
    while (out.size() < min_len) out.insert(out.begin(), 0);
    return out;
}

std::optional<BigInt> BigInt::from_hex(const std::string& hex) {
    BigInt out;
    for (char c : hex) {
        const int v = hex_value(c);
        if (v < 0) return std::nullopt;
        out = (out << 4) + BigInt(static_cast<std::uint64_t>(v));
    }
    return out;
}

std::string BigInt::to_hex() const {
    if (is_zero()) return "0";
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
        for (int nibble = 7; nibble >= 0; --nibble) {
            out.push_back(kDigits[(limbs_[i] >> (nibble * 4)) & 0xF]);
        }
    }
    const std::size_t first = out.find_first_not_of('0');
    return out.substr(first);
}

std::size_t BigInt::bit_length() const {
    if (limbs_.empty()) return 0;
    std::size_t bits = (limbs_.size() - 1) * 32;
    std::uint32_t top = limbs_.back();
    while (top) {
        ++bits;
        top >>= 1;
    }
    return bits;
}

bool BigInt::bit(std::size_t index) const {
    const std::size_t limb = index / 32;
    if (limb >= limbs_.size()) return false;
    return (limbs_[limb] >> (index % 32)) & 1u;
}

std::uint64_t BigInt::low_u64() const {
    std::uint64_t out = 0;
    if (!limbs_.empty()) out = limbs_[0];
    if (limbs_.size() > 1) out |= static_cast<std::uint64_t>(limbs_[1]) << 32;
    return out;
}

std::strong_ordering BigInt::compare(const BigInt& a, const BigInt& b) {
    if (a.limbs_.size() != b.limbs_.size()) {
        return a.limbs_.size() <=> b.limbs_.size();
    }
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
        if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
    }
    return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& other) const {
    BigInt out;
    const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
    out.limbs_.reserve(n + 1);
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum = carry;
        if (i < limbs_.size()) sum += limbs_[i];
        if (i < other.limbs_.size()) sum += other.limbs_[i];
        out.limbs_.push_back(static_cast<std::uint32_t>(sum));
        carry = sum >> 32;
    }
    if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
    return out;
}

BigInt BigInt::operator-(const BigInt& other) const {
    if (*this < other) throw std::underflow_error("BigInt subtraction underflow");
    BigInt out;
    out.limbs_.reserve(limbs_.size());
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
        if (i < other.limbs_.size()) diff -= other.limbs_[i];
        if (diff < 0) {
            diff += static_cast<std::int64_t>(kBase);
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.limbs_.push_back(static_cast<std::uint32_t>(diff));
    }
    out.trim();
    return out;
}

BigInt BigInt::operator*(const BigInt& other) const {
    if (is_zero() || other.is_zero()) return BigInt{};
    BigInt out;
    out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        std::uint64_t carry = 0;
        const std::uint64_t a = limbs_[i];
        for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
            const std::uint64_t cur =
                out.limbs_[i + j] + a * other.limbs_[j] + carry;
            out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
        }
        std::size_t k = i + other.limbs_.size();
        while (carry) {
            const std::uint64_t cur = out.limbs_[k] + carry;
            out.limbs_[k] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
            ++k;
        }
    }
    out.trim();
    return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
    if (is_zero() || bits == 0) {
        BigInt out = *this;
        return out;
    }
    const std::size_t limb_shift = bits / 32;
    const std::size_t bit_shift = bits % 32;
    BigInt out;
    out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
        out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
        out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
    }
    out.trim();
    return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
    const std::size_t limb_shift = bits / 32;
    const std::size_t bit_shift = bits % 32;
    if (limb_shift >= limbs_.size()) return BigInt{};
    BigInt out;
    out.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
        std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
        if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
            v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
        }
        out.limbs_[i] = static_cast<std::uint32_t>(v);
    }
    out.trim();
    return out;
}

BigInt::DivMod BigInt::divmod(const BigInt& divisor) const {
    if (divisor.is_zero()) throw std::domain_error("BigInt division by zero");
    if (*this < divisor) return {BigInt{}, *this};
    if (divisor.limbs_.size() == 1) {
        // Fast single-limb path.
        const std::uint64_t d = divisor.limbs_[0];
        BigInt quotient;
        quotient.limbs_.assign(limbs_.size(), 0);
        std::uint64_t rem = 0;
        for (std::size_t i = limbs_.size(); i-- > 0;) {
            const std::uint64_t cur = (rem << 32) | limbs_[i];
            quotient.limbs_[i] = static_cast<std::uint32_t>(cur / d);
            rem = cur % d;
        }
        quotient.trim();
        return {quotient, BigInt(rem)};
    }

    // Knuth TAOCP vol. 2, Algorithm D. Normalize so the divisor's top limb
    // has its high bit set; estimate each quotient digit from the top two
    // limbs and correct (at most twice).
    const std::size_t shift = 32 - (divisor.bit_length() % 32 == 0
                                        ? 32
                                        : divisor.bit_length() % 32);
    const BigInt u = *this << shift;
    const BigInt v = divisor << shift;
    const std::size_t n = v.limbs_.size();
    const std::size_t m = u.limbs_.size() - n;

    std::vector<std::uint32_t> un(u.limbs_);
    un.push_back(0);  // extra high limb for the algorithm
    const std::vector<std::uint32_t>& vn = v.limbs_;

    BigInt quotient;
    quotient.limbs_.assign(m + 1, 0);

    for (std::size_t j = m + 1; j-- > 0;) {
        // Estimate q_hat from the top two limbs of the current window.
        const std::uint64_t numerator =
            (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
        std::uint64_t q_hat = numerator / vn[n - 1];
        std::uint64_t r_hat = numerator % vn[n - 1];
        while (q_hat >= kBase ||
               q_hat * vn[n - 2] > ((r_hat << 32) | un[j + n - 2])) {
            --q_hat;
            r_hat += vn[n - 1];
            if (r_hat >= kBase) break;
        }

        // Multiply-subtract q_hat * v from the window.
        std::int64_t borrow = 0;
        std::uint64_t carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t product = q_hat * vn[i] + carry;
            carry = product >> 32;
            std::int64_t diff = static_cast<std::int64_t>(un[i + j]) -
                                static_cast<std::int64_t>(product & 0xFFFFFFFFull) - borrow;
            if (diff < 0) {
                diff += static_cast<std::int64_t>(kBase);
                borrow = 1;
            } else {
                borrow = 0;
            }
            un[i + j] = static_cast<std::uint32_t>(diff);
        }
        std::int64_t top = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
        if (top < 0) {
            // q_hat was one too large: add v back once.
            top += static_cast<std::int64_t>(kBase);
            --q_hat;
            std::uint64_t add_carry = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t sum =
                    static_cast<std::uint64_t>(un[i + j]) + vn[i] + add_carry;
                un[i + j] = static_cast<std::uint32_t>(sum);
                add_carry = sum >> 32;
            }
            top += static_cast<std::int64_t>(add_carry);
            top &= 0xFFFFFFFFll;
        }
        un[j + n] = static_cast<std::uint32_t>(top);
        quotient.limbs_[j] = static_cast<std::uint32_t>(q_hat);
    }
    quotient.trim();

    BigInt remainder;
    remainder.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
    remainder.trim();
    remainder = remainder >> shift;
    return {quotient, remainder};
}

BigInt BigInt::mod_pow(const BigInt& base, const BigInt& exponent, const BigInt& modulus) {
    if (modulus.is_zero()) throw std::domain_error("mod_pow: zero modulus");
    if (!modulus.is_odd()) {
        const DivisionRing ring{modulus};
        return window_pow(ring, base % modulus, exponent);
    }
    const Montgomery ring(modulus);
    return ring.lower(window_pow(ring, ring.lift(base), exponent));
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
    while (!b.is_zero()) {
        BigInt r = a % b;
        a = std::move(b);
        b = std::move(r);
    }
    return a;
}

std::optional<BigInt> BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
    // Extended Euclid tracking coefficients as (sign, magnitude) pairs to
    // stay within unsigned arithmetic.
    BigInt old_r = a % m;
    BigInt r = m;
    BigInt old_s(1);
    BigInt s{};
    bool old_s_neg = false;
    bool s_neg = false;

    while (!r.is_zero()) {
        const auto [q, rem] = old_r.divmod(r);
        old_r = std::move(r);
        r = rem;

        // new_s = old_s - q * s (signed).
        const BigInt qs = q * s;
        BigInt new_s;
        bool new_s_neg = false;
        if (old_s_neg == s_neg) {
            if (old_s >= qs) {
                new_s = old_s - qs;
                new_s_neg = old_s_neg;
            } else {
                new_s = qs - old_s;
                new_s_neg = !old_s_neg;
            }
        } else {
            new_s = old_s + qs;
            new_s_neg = old_s_neg;
        }
        old_s = std::move(s);
        old_s_neg = s_neg;
        s = std::move(new_s);
        s_neg = new_s_neg;
    }

    if (!(old_r == BigInt(1))) return std::nullopt;  // not coprime
    if (old_s_neg) return m - (old_s % m);
    return old_s % m;
}

BigInt BigInt::random_bits(Rng& rng, std::size_t bits) {
    if (bits == 0) return BigInt{};
    BigInt out;
    out.limbs_.assign((bits + 31) / 32, 0);
    for (auto& limb : out.limbs_) limb = static_cast<std::uint32_t>(rng.next());
    const std::size_t top_bit = (bits - 1) % 32;
    out.limbs_.back() &= (top_bit == 31) ? 0xFFFFFFFFu : ((1u << (top_bit + 1)) - 1);
    out.limbs_.back() |= 1u << top_bit;  // exact bit length
    out.trim();
    return out;
}

BigInt BigInt::random_below(Rng& rng, const BigInt& bound) {
    if (bound.is_zero()) return BigInt{};
    const std::size_t bits = bound.bit_length();
    while (true) {
        BigInt candidate;
        candidate.limbs_.assign((bits + 31) / 32, 0);
        for (auto& limb : candidate.limbs_) limb = static_cast<std::uint32_t>(rng.next());
        const std::size_t top_bit = (bits - 1) % 32;
        candidate.limbs_.back() &= (top_bit == 31) ? 0xFFFFFFFFu : ((1u << (top_bit + 1)) - 1);
        candidate.trim();
        if (candidate < bound) return candidate;
    }
}

bool BigInt::is_probable_prime(Rng& rng, int rounds) const {
    if (*this < BigInt(2)) return false;
    static constexpr std::uint32_t kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19,
                                                     23, 29, 31, 37, 41, 43, 47};
    for (std::uint32_t p : kSmallPrimes) {
        if (*this == BigInt(p)) return true;
        if ((*this % BigInt(p)).is_zero()) return false;
    }
    // Miller-Rabin: write n-1 = d * 2^r.
    const BigInt n_minus_1 = *this - BigInt(1);
    BigInt d = n_minus_1;
    std::size_t r = 0;
    while (!d.is_odd()) {
        d = d >> 1;
        ++r;
    }
    // Trial division has returned every even number, so *this is odd and
    // each round runs in its Montgomery domain, compared there against the
    // images of 1 and n-1.
    const Montgomery ring(*this);
    const Montgomery::Elem minus_one = ring.lift(n_minus_1);
    for (int round = 0; round < rounds; ++round) {
        const BigInt a = BigInt(2) + random_below(rng, *this - BigInt(4));
        Montgomery::Elem x = window_pow(ring, ring.lift(a), d);
        if (x == ring.one() || x == minus_one) continue;
        bool witness = true;
        for (std::size_t i = 1; i < r; ++i) {
            ring.mul(x, x, x);
            if (x == minus_one) {
                witness = false;
                break;
            }
        }
        if (witness) return false;
    }
    return true;
}

BigInt BigInt::random_prime(Rng& rng, std::size_t bits, int rounds) {
    if (bits < 2) throw std::invalid_argument("random_prime: need >= 2 bits");
    while (true) {
        BigInt candidate = random_bits(rng, bits);
        if (!candidate.is_odd()) candidate = candidate + BigInt(1);
        if (candidate.is_probable_prime(rng, rounds)) return candidate;
    }
}

}  // namespace narada::crypto
