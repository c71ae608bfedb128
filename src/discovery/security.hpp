// Secured discovery datapath: session-key establishment and the
// kMsgSecureEnvelope wire format.
//
// The paper's security model (§9.1) signs and encrypts every discovery
// message with RSA — Figure 14 shows why that cannot run at line rate.
// SecurityContext makes secured discovery a fast path instead: the first
// datagram to a peer carries an RSA handshake (certificate chain, an
// RSA-wrapped AES-128 session key, and an RSA signature binding the key to
// both identities), and every later datagram rides the cached session —
// AES-CBC for confidentiality, AES-CMAC for integrity — at symmetric-cipher
// cost. Sessions live in bounded LRU caches (crypto/session_key_cache.hpp);
// eviction or a rekey interval simply forces the next datagram to carry a
// fresh handshake.
//
// Wire format (after the kMsgSecureEnvelope type octet):
//
//   u8 subtype
//   subtype 1 — handshake (establishes the session AND carries a payload):
//     str signer            sender identity
//     str recipient         intended recipient identity
//     u16 chain_len         signer certificate chain, leaf first
//       chain_len x Certificate   (0 = receiver must already know the key)
//     blob wrapped_key      RSA(recipient_pub, 16-byte session key)
//     blob key_sig          RSA-sign(signer_priv, key || signer || recipient)
//     u8 sealed             1 = sealed part follows, 0 = signed part
//     <part>                under the fresh session
//   subtype 2 — session-sealed:
//     str signer, u64 key_id, <sealed part>
//   subtype 3 — session-signed:
//     str signer, u64 key_id, <signed part>
//
//   sealed part: iv[16] raw, blob ciphertext, tag[16] raw
//   signed part: blob payload (cleartext), tag[16] raw
//
// The CMAC tag covers every header byte after the type octet plus the
// ciphertext/payload, so the subtype, signer, key id and IV are all
// authenticated — a valid tag replayed under a different signer name fails.
// Replay of an *unmodified* datagram is not prevented here: the discovery
// layer's request dedup window (request_id LRU) is the replay bound, the
// same way it bounds transport-level retransmits.
//
// Threat-model boundary (DESIGN.md "Secured datapath"): the secured edges
// are the untrusted perimeter — client->BDN requests, broker->BDN
// advertisements, client->broker direct requests. Responses and intra-plane
// traffic (BDN->broker injection, BDN<->BDN gossip) stay plain; they flow
// between provisioned infrastructure nodes inside the deployment's own
// network, which the paper's model already trusts.
//
// Single-threaded like the components that own it (home-shard delivery
// contract); the steady-state seal/open paths are allocation-free — scratch
// buffers and session schedules are reused, and the per-drain memo lets a
// burst of datagrams from one peer skip even the LRU lookup.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "config/node_config.hpp"
#include "crypto/certificate.hpp"
#include "crypto/envelope.hpp"
#include "crypto/rsa.hpp"
#include "crypto/session_key_cache.hpp"
#include "obs/metrics.hpp"
#include "transport/transport.hpp"
#include "wire/codec.hpp"

namespace narada::discovery {

/// Result of open_datagram(). `payload` and `signer` are borrowed views —
/// valid until the next open/seal call or until the input buffer is
/// recycled, whichever comes first; handlers that keep them must copy.
struct SecureOpenResult {
    std::span<const std::uint8_t> payload{};
    std::string_view signer{};
    crypto::EnvelopeError error = crypto::EnvelopeError::kOk;
    bool handshake = false;  ///< a new session was established by this datagram

    [[nodiscard]] bool ok() const { return error == crypto::EnvelopeError::kOk; }
};

class SecurityContext {
public:
    /// `chain` is this node's own certificate chain (leaf first), sent in
    /// handshakes so peers can authenticate us; `roots` anchors peer chain
    /// verification. The clock must be the component's injected clock so
    /// certificate expiry and rekey behave deterministically in sim runs.
    SecurityContext(std::string identity, crypto::RsaKeyPair keys,
                    std::vector<crypto::Certificate> chain,
                    std::vector<crypto::Certificate> roots,
                    const config::SecurityConfig& config, const Clock& clock, Rng& rng);

    [[nodiscard]] const std::string& identity() const { return identity_; }
    [[nodiscard]] const config::SecurityConfig& config() const { return config_; }

    // --- peer directory --------------------------------------------------
    // Sealing to a peer needs its public key up front (the handshake wraps
    // the session key under it). Keys arrive either pre-provisioned or via
    // a verified certificate chain.

    /// Verify `chain` (leaf first) against the trusted roots at the current
    /// clock and, on success, remember subject -> public key. Returns the
    /// verification status; anything but kOk registers nothing.
    crypto::CertStatus add_peer_chain(const std::vector<crypto::Certificate>& chain);
    /// Trust `key` for `peer` without a certificate (static provisioning).
    void add_peer_key(std::string_view peer, const crypto::RsaPublicKey& key);
    [[nodiscard]] const crypto::RsaPublicKey* peer_key(std::string_view peer) const;

    /// Remember which identity answers at `endpoint`, so senders that
    /// address by endpoint (the discovery client) can find the seal target.
    void map_endpoint(const Endpoint& endpoint, std::string_view peer);
    [[nodiscard]] std::string_view identity_at(const Endpoint& endpoint) const;

    // --- datapath --------------------------------------------------------

    /// Wrap `payload` for `peer` into `out` (type octet included): a
    /// handshake datagram when no live session exists (or `force_handshake`
    /// — used on retransmit so a lost handshake never wedges the sender), a
    /// session datagram otherwise. Returns false — writing nothing — when
    /// security is off or the peer's public key is unknown; the caller
    /// falls back to a plain datagram.
    bool seal_datagram(std::span<const std::uint8_t> payload, std::string_view peer,
                       wire::ByteWriter& out, bool force_handshake = false);

    /// Inverse of seal_datagram. `reader` must be positioned just after the
    /// kMsgSecureEnvelope type octet. Never throws; malformed, forged or
    /// sessionless input comes back as a typed EnvelopeError and a counter.
    SecureOpenResult open_datagram(wire::ByteReader& reader);

    // --- introspection ---------------------------------------------------

    struct Stats {
        std::uint64_t seals = 0;             ///< datagrams sealed (any subtype)
        std::uint64_t opens = 0;             ///< datagrams opened successfully
        std::uint64_t handshakes_sent = 0;
        std::uint64_t handshakes_accepted = 0;
        std::uint64_t session_hits = 0;      ///< seal/open rode a cached session
        std::uint64_t session_misses = 0;    ///< no usable session (handshake/kNoSession)
        std::uint64_t memo_hits = 0;         ///< drain-batch memo short-circuits
        std::uint64_t verify_failures = 0;   ///< bad tag / bad chain / bad key sig
        std::uint64_t open_errors = 0;       ///< any open_datagram error
        std::uint64_t seal_refusals = 0;     ///< seal_datagram returned false
        std::uint64_t rekeys = 0;            ///< handshakes forced by session age
    };

    [[nodiscard]] const Stats& stats() const { return stats_; }
    [[nodiscard]] crypto::SessionKeyCache& tx_sessions() { return tx_sessions_; }
    [[nodiscard]] crypto::SessionKeyCache& rx_sessions() { return rx_sessions_; }

    void set_observability(obs::MetricsRegistry* metrics, const std::string& node);

private:
    struct SealedPart {
        std::span<const std::uint8_t> header;  ///< subtype octet .. end of IV
    };

    /// Write the sealed/signed part for `payload` under `session`;
    /// `header_start` is the writer offset of the subtype octet (the MAC
    /// covers header bytes from there through the IV).
    void write_part(const crypto::SessionKeyCache::Session& session,
                    std::span<const std::uint8_t> payload, wire::ByteWriter& out,
                    std::size_t header_start, bool sealed);
    /// Parse + authenticate a part. `header_start` is the reader position
    /// of the subtype octet. Fills result payload or error.
    void read_part(const crypto::SessionKeyCache::Session& session, wire::ByteReader& reader,
                   std::size_t header_start, bool sealed, SecureOpenResult& result);

    [[nodiscard]] bool session_expired_tx(const crypto::SessionKeyCache::Session& s) const;
    [[nodiscard]] bool session_expired_rx(const crypto::SessionKeyCache::Session& s) const;

    void count_open_error(crypto::EnvelopeError error);

    std::string identity_;
    crypto::RsaKeyPair keys_;
    std::vector<crypto::Certificate> chain_;
    std::vector<crypto::Certificate> roots_;
    config::SecurityConfig config_;
    const Clock& clock_;
    Rng& rng_;

    std::unordered_map<std::string, crypto::RsaPublicKey> peer_keys_;
    std::unordered_map<Endpoint, std::string> endpoint_identities_;

    crypto::SessionKeyCache tx_sessions_;
    crypto::SessionKeyCache rx_sessions_;

    // Drain-batch memo: consecutive datagrams from the same session (the
    // common shape inside one recvmmsg drain) skip the LRU lookup. The
    // pointer is only trusted when the stored key id matches, and is
    // dropped on any rx-cache mutation.
    crypto::SessionKeyCache::Session* memo_rx_session_ = nullptr;
    std::uint64_t memo_rx_key_id_ = 0;

    // Reused scratch (capacity-stable after warmup; steady state allocates
    // nothing).
    Bytes scratch_cipher_;  ///< seal-side ciphertext staging
    Bytes scratch_plain_;   ///< open-side plaintext output

    Stats stats_;

    struct Instruments {
        obs::Counter* seals = nullptr;
        obs::Counter* opens = nullptr;
        obs::Counter* handshakes = nullptr;
        obs::Counter* cache_hits = nullptr;
        obs::Counter* cache_misses = nullptr;
        obs::Counter* verify_failures = nullptr;
        obs::Counter* open_errors = nullptr;
    } inst_;
};

/// The one seal-or-plain send. `framed` (a plain datagram, type octet
/// first) leaves `from` for `to` sealed when `security` is on and knows the
/// identity at `to`, and plain otherwise — no context, no identity, or a
/// seal refusal — rather than not at all. `force_handshake` as for
/// seal_datagram. Returns true when the datagram left sealed.
bool send_sealed_or_plain(SecurityContext* security, transport::Transport& transport,
                          const Endpoint& from, const Endpoint& to,
                          std::span<const std::uint8_t> framed, bool force_handshake = false);

}  // namespace narada::discovery
