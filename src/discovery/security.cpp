#include "discovery/security.hpp"

#include <cstring>

#include "wire/msg_types.hpp"

namespace narada::discovery {
namespace {

using crypto::Aes128;
using crypto::EnvelopeError;

constexpr std::uint8_t kSubtypeHandshake = 1;
constexpr std::uint8_t kSubtypeSealed = 2;
constexpr std::uint8_t kSubtypeSigned = 3;

/// Certificate chains longer than this are rejected before any signature
/// work — a hostile handshake cannot buy unbounded RSA verification.
constexpr std::uint16_t kMaxChainLength = 8;

/// Canonical bytes the key-binding signature covers: the session key plus
/// both identities, so a wrapped key replayed toward a different recipient
/// (or under a different signer name) fails verification.
Bytes key_binding_bytes(const Bytes& key, std::string_view signer, std::string_view recipient) {
    wire::ByteWriter writer;
    writer.blob(key);
    writer.str(signer);
    writer.str(recipient);
    return writer.take();
}

}  // namespace

SecurityContext::SecurityContext(std::string identity, crypto::RsaKeyPair keys,
                                 std::vector<crypto::Certificate> chain,
                                 std::vector<crypto::Certificate> roots,
                                 const config::SecurityConfig& config, const Clock& clock,
                                 Rng& rng)
    : identity_(std::move(identity)),
      keys_(std::move(keys)),
      chain_(std::move(chain)),
      roots_(std::move(roots)),
      config_(config),
      clock_(clock),
      rng_(rng),
      tx_sessions_(config.session_cache_size),
      rx_sessions_(config.session_cache_size) {}

crypto::CertStatus SecurityContext::add_peer_chain(const std::vector<crypto::Certificate>& chain) {
    const crypto::CertStatus status = crypto::verify_chain(chain, roots_, clock_);
    if (status != crypto::CertStatus::kOk) return status;
    peer_keys_[chain.front().subject] = chain.front().public_key;
    return status;
}

void SecurityContext::add_peer_key(std::string_view peer, const crypto::RsaPublicKey& key) {
    peer_keys_[std::string(peer)] = key;
}

const crypto::RsaPublicKey* SecurityContext::peer_key(std::string_view peer) const {
    // The directory is cold-path only (handshakes), so the temporary string
    // for the lookup is fine.
    const auto it = peer_keys_.find(std::string(peer));
    return it == peer_keys_.end() ? nullptr : &it->second;
}

void SecurityContext::map_endpoint(const Endpoint& endpoint, std::string_view peer) {
    endpoint_identities_[endpoint] = std::string(peer);
}

std::string_view SecurityContext::identity_at(const Endpoint& endpoint) const {
    const auto it = endpoint_identities_.find(endpoint);
    return it == endpoint_identities_.end() ? std::string_view{} : std::string_view(it->second);
}

bool SecurityContext::session_expired_tx(const crypto::SessionKeyCache::Session& s) const {
    return config_.rekey_interval > 0 &&
           clock_.now() - s.established_at >= config_.rekey_interval;
}

bool SecurityContext::session_expired_rx(const crypto::SessionKeyCache::Session& s) const {
    // Receivers tolerate twice the rekey interval so a sender mid-rekey
    // never races its own in-flight traffic.
    return config_.rekey_interval > 0 &&
           clock_.now() - s.established_at >= 2 * config_.rekey_interval;
}

void SecurityContext::write_part(const crypto::SessionKeyCache::Session& session,
                                 std::span<const std::uint8_t> payload, wire::ByteWriter& out,
                                 std::size_t header_start, bool sealed) {
    Aes128::Block tag;
    if (sealed) {
        Aes128::Block iv;
        for (auto& b : iv) b = static_cast<std::uint8_t>(rng_.next());
        out.raw(iv.data(), iv.size());

        scratch_cipher_.resize(Aes128::padded_size(payload.size()));
        session.cipher.encrypt_cbc(payload, iv, scratch_cipher_.data());

        // The tag covers every header byte after the type octet (subtype,
        // signer, key id, IV — or the whole handshake preamble) plus the
        // ciphertext, and is computed before the ciphertext is appended,
        // while the header span is stable.
        const std::span<const std::uint8_t> header{out.bytes().data() + header_start,
                                                   out.size() - header_start};
        tag = session.mac.compute2(header, scratch_cipher_);
        out.u32(static_cast<std::uint32_t>(scratch_cipher_.size()));
        out.raw(scratch_cipher_.data(), scratch_cipher_.size());
    } else {
        const std::span<const std::uint8_t> header{out.bytes().data() + header_start,
                                                   out.size() - header_start};
        tag = session.mac.compute2(header, payload);
        out.u32(static_cast<std::uint32_t>(payload.size()));
        out.raw(payload.data(), payload.size());
    }
    out.raw(tag.data(), tag.size());
}

void SecurityContext::read_part(const crypto::SessionKeyCache::Session& session,
                                wire::ByteReader& reader, std::size_t header_start, bool sealed,
                                SecureOpenResult& result) {
    std::span<const std::uint8_t> iv_span{};
    if (sealed) {
        const std::size_t iv_pos = reader.position();
        reader.skip(Aes128::kBlockSize);
        iv_span = reader.span_from(iv_pos);
    }
    // Everything between the subtype octet and the body's length prefix is
    // the authenticated header — exactly what the seal side MACed.
    const std::span<const std::uint8_t> header = reader.span_from(header_start);
    const std::span<const std::uint8_t> body = reader.blob_view();
    const std::size_t tag_pos = reader.position();
    reader.skip(Aes128::kBlockSize);
    const std::span<const std::uint8_t> tag_span = reader.span_from(tag_pos);
    if (reader.remaining() != 0) {
        result.error = EnvelopeError::kTrailingGarbage;
        return;
    }

    // Authenticate before any decryption: a forged datagram costs one CMAC.
    Aes128::Block tag;
    std::memcpy(tag.data(), tag_span.data(), tag.size());
    const Aes128::Block expected = session.mac.compute2(header, body);
    if (!crypto::tags_equal(expected, tag)) {
        result.error = EnvelopeError::kBadTag;
        return;
    }

    if (sealed) {
        if (body.empty() || body.size() % Aes128::kBlockSize != 0) {
            result.error = EnvelopeError::kCipherAlignment;
            return;
        }
        Aes128::Block iv;
        std::memcpy(iv.data(), iv_span.data(), iv.size());
        if (!session.cipher.decrypt_cbc(body, iv, scratch_plain_)) {
            result.error = EnvelopeError::kBadPadding;
            return;
        }
        result.payload = {scratch_plain_.data(), scratch_plain_.size()};
    } else {
        result.payload = body;
    }
    result.error = EnvelopeError::kOk;
}

bool SecurityContext::seal_datagram(std::span<const std::uint8_t> payload, std::string_view peer,
                                    wire::ByteWriter& out, bool force_handshake) {
    if (!config_.enabled()) return false;
    const bool sealed = config_.sealing();

    crypto::SessionKeyCache::Session* session = tx_sessions_.find(peer);
    const bool rekey = session != nullptr && session_expired_tx(*session);
    if (session != nullptr && !rekey && !force_handshake) {
        // Fast path: ride the cached session — no RSA anywhere.
        stats_.session_hits++;
        if (inst_.cache_hits != nullptr) inst_.cache_hits->inc();
        out.u8(wire::kMsgSecureEnvelope);
        const std::size_t header_start = out.size();
        out.u8(sealed ? kSubtypeSealed : kSubtypeSigned);
        out.str(identity_);
        out.u64(session->key_id);
        write_part(*session, payload, out, header_start, sealed);
        stats_.seals++;
        if (inst_.seals != nullptr) inst_.seals->inc();
        return true;
    }

    // Handshake path. Everything fallible happens before the first byte is
    // written, so a refusal leaves `out` untouched for the plain fallback.
    const crypto::RsaPublicKey* peer_pub = peer_key(peer);
    if (peer_pub == nullptr) {
        stats_.seal_refusals++;
        return false;
    }
    Aes128::Key key;
    for (auto& b : key) b = static_cast<std::uint8_t>(rng_.next());
    const Bytes key_bytes(key.begin(), key.end());
    const auto wrapped = crypto::rsa_encrypt(*peer_pub, key_bytes, rng_);
    if (!wrapped) {
        stats_.seal_refusals++;
        return false;  // peer modulus too small to wrap a session key, or too large
    }
    const Bytes key_sig =
        crypto::rsa_sign(keys_.private_key, key_binding_bytes(key_bytes, identity_, peer));

    if (rekey) stats_.rekeys++;
    crypto::SessionKeyCache::Session& fresh = tx_sessions_.put(peer, key, clock_.now());

    out.u8(wire::kMsgSecureEnvelope);
    const std::size_t header_start = out.size();
    out.u8(kSubtypeHandshake);
    out.str(identity_);
    out.str(peer);
    out.u16(static_cast<std::uint16_t>(chain_.size()));
    for (const auto& cert : chain_) cert.encode(out);
    out.blob(*wrapped);
    out.blob(key_sig);
    out.u8(sealed ? 1 : 0);
    write_part(fresh, payload, out, header_start, sealed);

    stats_.seals++;
    stats_.session_misses++;
    stats_.handshakes_sent++;
    if (inst_.seals != nullptr) inst_.seals->inc();
    if (inst_.cache_misses != nullptr) inst_.cache_misses->inc();
    if (inst_.handshakes != nullptr) inst_.handshakes->inc();
    return true;
}

SecureOpenResult SecurityContext::open_datagram(wire::ByteReader& reader) {
    SecureOpenResult result;
    const std::size_t start = reader.position();
    try {
        const std::uint8_t subtype = reader.u8();
        switch (subtype) {
            case kSubtypeSealed:
            case kSubtypeSigned: {
                result.signer = reader.str_view();
                const std::uint64_t key_id = reader.u64();

                // Drain-batch memo: a burst of datagrams from one peer (the
                // common shape inside a recvmmsg drain) skips the LRU walk.
                // The memo is only trusted on a key-id match; the tag check
                // still authenticates the signer, so a forged signer name
                // over a memoized session dies at kBadTag.
                crypto::SessionKeyCache::Session* session = nullptr;
                if (memo_rx_session_ != nullptr && memo_rx_key_id_ == key_id) {
                    session = memo_rx_session_;
                    stats_.memo_hits++;
                } else {
                    session = rx_sessions_.find(result.signer);
                    if (session != nullptr && session->key_id != key_id) {
                        // The sender rekeyed (or we hold a stale session);
                        // its retransmit arrives as a fresh handshake.
                        result.error = EnvelopeError::kKeyMismatch;
                        count_open_error(result.error);
                        return result;
                    }
                    if (session != nullptr) {
                        memo_rx_session_ = session;
                        memo_rx_key_id_ = key_id;
                    }
                }
                if (session == nullptr) {
                    stats_.session_misses++;
                    if (inst_.cache_misses != nullptr) inst_.cache_misses->inc();
                    result.error = EnvelopeError::kNoSession;
                    count_open_error(result.error);
                    return result;
                }
                if (session_expired_rx(*session)) {
                    memo_rx_session_ = nullptr;
                    rx_sessions_.erase(result.signer);
                    stats_.session_misses++;
                    if (inst_.cache_misses != nullptr) inst_.cache_misses->inc();
                    result.error = EnvelopeError::kNoSession;
                    count_open_error(result.error);
                    return result;
                }
                stats_.session_hits++;
                if (inst_.cache_hits != nullptr) inst_.cache_hits->inc();

                read_part(*session, reader, start, subtype == kSubtypeSealed, result);
                if (result.ok()) {
                    stats_.opens++;
                    if (inst_.opens != nullptr) inst_.opens->inc();
                } else {
                    count_open_error(result.error);
                }
                return result;
            }

            case kSubtypeHandshake: {
                const std::string_view signer = reader.str_view();
                const std::string_view recipient = reader.str_view();
                if (recipient != identity_) {
                    result.error = EnvelopeError::kRecipientMismatch;
                    count_open_error(result.error);
                    return result;
                }
                const std::uint16_t chain_len = reader.u16();
                if (chain_len > kMaxChainLength) {
                    result.error = EnvelopeError::kBadCertChain;
                    count_open_error(result.error);
                    return result;
                }
                std::vector<crypto::Certificate> chain;
                chain.reserve(chain_len);
                for (std::uint16_t i = 0; i < chain_len; ++i) {
                    chain.push_back(crypto::Certificate::decode(reader));
                }

                const crypto::RsaPublicKey* signer_pub = nullptr;
                if (chain.empty()) {
                    // Chainless handshake: only accepted from peers whose
                    // key was provisioned out of band.
                    signer_pub = peer_key(signer);
                    if (signer_pub == nullptr) {
                        result.error = EnvelopeError::kUnknownSigner;
                        count_open_error(result.error);
                        return result;
                    }
                } else {
                    if (chain.front().subject != signer ||
                        crypto::verify_chain(chain, roots_, clock_) !=
                            crypto::CertStatus::kOk) {
                        result.error = EnvelopeError::kBadCertChain;
                        count_open_error(result.error);
                        return result;
                    }
                    // A verified chain also teaches us the peer's key, so
                    // we can seal toward it later without provisioning.
                    signer_pub = &(peer_keys_[std::string(signer)] = chain.front().public_key);
                }

                const Bytes wrapped = reader.blob();
                const Bytes key_sig = reader.blob();
                const auto key_bytes = crypto::rsa_decrypt(keys_.private_key, wrapped);
                if (!key_bytes) {
                    result.error = EnvelopeError::kSessionDecrypt;
                    count_open_error(result.error);
                    return result;
                }
                if (key_bytes->size() != Aes128::kKeySize) {
                    result.error = EnvelopeError::kSessionSize;
                    count_open_error(result.error);
                    return result;
                }
                if (!crypto::rsa_verify(*signer_pub,
                                        key_binding_bytes(*key_bytes, signer, identity_),
                                        key_sig)) {
                    result.error = EnvelopeError::kBadKeySignature;
                    count_open_error(result.error);
                    return result;
                }
                const std::uint8_t sealed_flag = reader.u8();

                Aes128::Key key;
                std::memcpy(key.data(), key_bytes->data(), key.size());
                crypto::SessionKeyCache::Session& fresh =
                    rx_sessions_.put(signer, key, clock_.now());
                memo_rx_session_ = &fresh;
                memo_rx_key_id_ = fresh.key_id;

                result.signer = signer;
                result.handshake = true;
                read_part(fresh, reader, start, sealed_flag != 0, result);
                if (result.ok()) {
                    stats_.opens++;
                    stats_.handshakes_accepted++;
                    if (inst_.opens != nullptr) inst_.opens->inc();
                    if (inst_.handshakes != nullptr) inst_.handshakes->inc();
                } else {
                    count_open_error(result.error);
                }
                return result;
            }

            default:
                result.error = EnvelopeError::kUnknownSubtype;
                count_open_error(result.error);
                return result;
        }
    } catch (const wire::WireError&) {
        // Every length field is bounds-checked by the reader; truncated or
        // forged lengths land here instead of reading past the buffer.
        result = SecureOpenResult{};
        result.error = EnvelopeError::kTruncated;
        count_open_error(result.error);
        return result;
    }
}

void SecurityContext::count_open_error(EnvelopeError error) {
    stats_.open_errors++;
    if (inst_.open_errors != nullptr) inst_.open_errors->inc();
    if (error == EnvelopeError::kBadTag || error == EnvelopeError::kBadCertChain ||
        error == EnvelopeError::kBadKeySignature) {
        stats_.verify_failures++;
        if (inst_.verify_failures != nullptr) inst_.verify_failures->inc();
    }
}

void SecurityContext::set_observability(obs::MetricsRegistry* metrics, const std::string& node) {
    if (metrics == nullptr) return;
    inst_.seals = &metrics->counter("crypto_seals", node);
    inst_.opens = &metrics->counter("crypto_opens", node);
    inst_.handshakes = &metrics->counter("crypto_handshakes", node);
    inst_.cache_hits = &metrics->counter("crypto_cache_hits", node);
    inst_.cache_misses = &metrics->counter("crypto_cache_misses", node);
    inst_.verify_failures = &metrics->counter("crypto_verify_failures", node);
    inst_.open_errors = &metrics->counter("crypto_open_errors", node);
}

bool send_sealed_or_plain(SecurityContext* security, transport::Transport& transport,
                          const Endpoint& from, const Endpoint& to,
                          std::span<const std::uint8_t> framed, bool force_handshake) {
    if (security != nullptr && security->config().enabled()) {
        const std::string_view peer = security->identity_at(to);
        if (!peer.empty()) {
            wire::ByteWriter sealed(transport.acquire_buffer());
            if (security->seal_datagram(framed, peer, sealed, force_handshake)) {
                transport.send_datagram(from, to, sealed.take());
                return true;
            }
        }
    }
    transport.send_datagram(from, to, Bytes(framed.begin(), framed.end()));
    return false;
}

}  // namespace narada::discovery
