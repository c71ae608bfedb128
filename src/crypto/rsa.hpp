// RSA with PKCS#1 v1.5 padding, built on the from-scratch BigInt.
//
// Backs the certificate signatures and the session-key encryption of the
// secured discovery envelope (paper §9.1). Key sizes are configurable;
// tests use small keys for speed, the security benchmarks use 1024-bit
// keys comparable to the paper's 2004-era PKI deployments.
//
// Private operations run in CRT form (RFC 8017 §5.1.2): two half-size
// exponentiations mod p and mod q, recombined by Garner's formula: a
// quarter of the word products of c^d mod n, and bit-identical to it.
// Every private key comes from rsa_generate, which fills the CRT fields.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/bigint.hpp"
#include "crypto/sha256.hpp"

namespace narada::crypto {

struct RsaPublicKey {
    BigInt n;  ///< modulus
    BigInt e;  ///< public exponent

    [[nodiscard]] std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
    friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

struct RsaPrivateKey {
    BigInt n;
    BigInt e;  ///< public exponent, for rsa_sign's fault check
    BigInt d;  ///< private exponent
    BigInt p;  ///< the prime factors, n = p * q
    BigInt q;
    BigInt dp;    ///< d mod (p - 1)
    BigInt dq;    ///< d mod (q - 1)
    BigInt qinv;  ///< q^-1 mod p

    [[nodiscard]] std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
};

struct RsaKeyPair {
    RsaPublicKey public_key;
    RsaPrivateKey private_key;
};

/// Generate a key pair with a modulus of roughly `bits` bits (e = 65537).
RsaKeyPair rsa_generate(Rng& rng, std::size_t bits);

/// PKCS#1 v1.5 signature over SHA-256(message). Returns modulus-sized bytes.
/// The CRT result is checked with one public-exponent operation before it
/// is returned (a faulty half would leak a factor of n); a mismatch throws
/// std::runtime_error.
Bytes rsa_sign(const RsaPrivateKey& key, const Bytes& message);

/// Verify a PKCS#1 v1.5 SHA-256 signature. A key whose modulus exceeds
/// BigInt::kMaxModulusBits verifies nothing (returns false).
bool rsa_verify(const RsaPublicKey& key, const Bytes& message, const Bytes& signature);

/// PKCS#1 v1.5 (type 2) encryption. Plaintext must be at most
/// modulus_bytes() - 11 bytes and the modulus at most
/// BigInt::kMaxModulusBits; returns nullopt otherwise.
std::optional<Bytes> rsa_encrypt(const RsaPublicKey& key, const Bytes& plaintext, Rng& rng);

/// Decrypt; nullopt if the padding is invalid.
std::optional<Bytes> rsa_decrypt(const RsaPrivateKey& key, const Bytes& ciphertext);

}  // namespace narada::crypto
