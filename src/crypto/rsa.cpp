#include "crypto/rsa.hpp"

#include <stdexcept>

namespace narada::crypto {
namespace {

// DER prefix of the DigestInfo structure for SHA-256 (RFC 8017 §9.2).
constexpr std::uint8_t kSha256DigestInfo[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20,
};

/// EMSA-PKCS1-v1_5 encoding: 0x00 0x01 FF..FF 0x00 DigestInfo || digest.
std::optional<Bytes> emsa_encode(const Bytes& message, std::size_t em_len) {
    const auto digest = Sha256::hash(message);
    const std::size_t t_len = sizeof(kSha256DigestInfo) + digest.size();
    if (em_len < t_len + 11) return std::nullopt;
    Bytes em;
    em.reserve(em_len);
    em.push_back(0x00);
    em.push_back(0x01);
    em.insert(em.end(), em_len - t_len - 3, 0xFF);
    em.push_back(0x00);
    em.insert(em.end(), std::begin(kSha256DigestInfo), std::end(kSha256DigestInfo));
    em.insert(em.end(), digest.begin(), digest.end());
    return em;
}

/// x^d mod n by CRT: m1 = x^dp mod p, m2 = x^dq mod q, then Garner's
/// m = m2 + q * (qinv * (m1 - m2) mod p), which is below n.
BigInt private_op(const RsaPrivateKey& key, const BigInt& x) {
    const BigInt m1 = BigInt::mod_pow(x, key.dp, key.p);
    const BigInt m2 = BigInt::mod_pow(x, key.dq, key.q);
    const BigInt m2_mod_p = m2 % key.p;
    const BigInt diff = m1 >= m2_mod_p ? m1 - m2_mod_p : m1 + key.p - m2_mod_p;
    return m2 + ((key.qinv * diff) % key.p) * key.q;
}

/// Whether mod_pow can take `key`'s modulus. Public keys arrive in peers'
/// certificates, so an oversized one is refused here rather than thrown
/// out of mod_pow into a node's receive path.
bool within_kernel_cap(const RsaPublicKey& key) {
    return key.n.bit_length() <= BigInt::kMaxModulusBits;
}

}  // namespace

RsaKeyPair rsa_generate(Rng& rng, std::size_t bits) {
    const BigInt e(65537);
    while (true) {
        const BigInt p = BigInt::random_prime(rng, bits / 2);
        const BigInt q = BigInt::random_prime(rng, bits - bits / 2);
        if (p == q) continue;
        const BigInt n = p * q;
        const BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
        const auto d = BigInt::mod_inverse(e, phi);
        if (!d) continue;  // e not coprime with phi; rare
        RsaKeyPair pair;
        pair.public_key = {n, e};
        pair.private_key = {n,
                            e,
                            *d,
                            p,
                            q,
                            *d % (p - BigInt(1)),
                            *d % (q - BigInt(1)),
                            *BigInt::mod_inverse(q, p)};  // distinct primes
        return pair;
    }
}

Bytes rsa_sign(const RsaPrivateKey& key, const Bytes& message) {
    const std::size_t k = key.modulus_bytes();
    const auto em = emsa_encode(message, k);
    if (!em) throw std::invalid_argument("rsa_sign: modulus too small for SHA-256 DigestInfo");
    const BigInt m = BigInt::from_bytes_be(*em);
    const BigInt s = private_op(key, m);
    if (!(BigInt::mod_pow(s, key.e, key.n) == m)) {
        throw std::runtime_error("rsa_sign: CRT result failed its public-exponent check");
    }
    return s.to_bytes_be(k);
}

bool rsa_verify(const RsaPublicKey& key, const Bytes& message, const Bytes& signature) {
    if (!within_kernel_cap(key)) return false;
    const std::size_t k = key.modulus_bytes();
    if (signature.size() != k) return false;
    const BigInt s = BigInt::from_bytes_be(signature);
    if (!(s < key.n)) return false;
    const BigInt m = BigInt::mod_pow(s, key.e, key.n);
    const auto expected = emsa_encode(message, k);
    if (!expected) return false;
    return m.to_bytes_be(k) == *expected;
}

std::optional<Bytes> rsa_encrypt(const RsaPublicKey& key, const Bytes& plaintext, Rng& rng) {
    if (!within_kernel_cap(key)) return std::nullopt;
    const std::size_t k = key.modulus_bytes();
    if (k < 11 || plaintext.size() > k - 11) return std::nullopt;
    // EME-PKCS1-v1_5: 0x00 0x02 PS(nonzero random) 0x00 M.
    Bytes em;
    em.reserve(k);
    em.push_back(0x00);
    em.push_back(0x02);
    const std::size_t ps_len = k - plaintext.size() - 3;
    for (std::size_t i = 0; i < ps_len; ++i) {
        std::uint8_t b = 0;
        do {
            b = static_cast<std::uint8_t>(rng.next());
        } while (b == 0);
        em.push_back(b);
    }
    em.push_back(0x00);
    em.insert(em.end(), plaintext.begin(), plaintext.end());

    const BigInt m = BigInt::from_bytes_be(em);
    const BigInt c = BigInt::mod_pow(m, key.e, key.n);
    return c.to_bytes_be(k);
}

std::optional<Bytes> rsa_decrypt(const RsaPrivateKey& key, const Bytes& ciphertext) {
    const std::size_t k = key.modulus_bytes();
    if (ciphertext.size() != k) return std::nullopt;
    const BigInt c = BigInt::from_bytes_be(ciphertext);
    if (!(c < key.n)) return std::nullopt;
    const BigInt m = private_op(key, c);
    const Bytes em = m.to_bytes_be(k);
    if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) return std::nullopt;
    // Find the 0x00 separator after at least 8 padding bytes.
    std::size_t separator = 0;
    for (std::size_t i = 2; i < em.size(); ++i) {
        if (em[i] == 0x00) {
            separator = i;
            break;
        }
    }
    if (separator < 10) return std::nullopt;
    return Bytes(em.begin() + static_cast<std::ptrdiff_t>(separator) + 1, em.end());
}

}  // namespace narada::crypto
