// Figures 13 and 14 — security costs.
//
// Figure 13: "Time required in validating a X.509 Certificate" — we build
// a CA -> client chain and time verify_chain over 120 iterations.
// Figure 14: "Time required to digitally sign and encrypt and later
// extract the BrokerDiscoveryRequest" — we encode a realistic
// DiscoveryRequest, seal it (RSA-sign + AES-encrypt + RSA key wrap) and
// open it (decrypt + verify), timing each phase.
//
// The paper measured JDK 1.4 PKI on a 2.0 GHz Pentium M with 512 MB RAM;
// absolute numbers differ here (from-scratch BigInt RSA: CRT private
// operations over a Montgomery fixed-window kernel, about half a
// millisecond per 1024-bit sign), but the shape — validation and signing
// dominated by the RSA private/public operations, costs "acceptable in
// most systems" — carries over.
// The secured-vs-plain curve below goes further than the paper: with the
// session-key cache (discovery/security.hpp) the RSA cost is paid once per
// peer, so warm secured throughput must stay within 2x of plain — the
// regression gate BENCH_security.json records and CI enforces.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "broker/dedup_cache.hpp"
#include "common/clock.hpp"
#include "common/stats.hpp"
#include "config/node_config.hpp"
#include "discovery/security.hpp"
#include "harness.hpp"
#include "crypto/aes.hpp"
#include "crypto/certificate.hpp"
#include "crypto/envelope.hpp"
#include "discovery/messages.hpp"
#include "transport/posix_transport.hpp"
#include "wire/msg_types.hpp"

using namespace narada;
using namespace narada::crypto;

namespace {

double elapsed_ms(const std::chrono::steady_clock::time_point& start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
        .count();
}

Bytes sample_request_bytes(Rng& rng) {
    discovery::DiscoveryRequest request;
    request.request_id = Uuid::random(rng);
    request.requester_hostname = "client.gf1.ucs.indiana.edu";
    request.reply_to = {2, 7200};
    request.protocols = {"tcp", "udp", "multicast"};
    request.credential = "x509:client.gf1";
    request.realm = "iu-lab";
    wire::ByteWriter writer;
    request.encode(writer);
    return writer.take();
}

}  // namespace

int main(int argc, char** argv) {
    constexpr std::size_t kRsaBits = 1024;
    const int kRuns = bench::parse_runs(argc, argv, 120);
    const int kKeep = bench::default_keep(kRuns);

    Rng rng(0x5EC5EC);
    std::printf("Generating %zu-bit RSA keys (CA, client, broker)...\n", kRsaBits);
    const RsaKeyPair ca_keys = rsa_generate(rng, kRsaBits);
    const RsaKeyPair client_keys = rsa_generate(rng, kRsaBits);
    const RsaKeyPair broker_keys = rsa_generate(rng, kRsaBits);

    const Certificate root = make_self_signed("narada-root-ca", ca_keys, 0, 1ll << 60, 1);
    const Certificate client_cert =
        issue_certificate("client.gf1.ucs.indiana.edu", client_keys.public_key,
                          "narada-root-ca", ca_keys.private_key, 0, 1ll << 60, 2);
    const std::vector<Certificate> chain = {client_cert, root};
    const std::vector<Certificate> roots = {root};

    // --- Figure 13: X.509 validation ---------------------------------------
    SampleSet validate_ms;
    for (int i = 0; i < kRuns; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const CertStatus status = verify_chain(chain, roots, /*now=*/1000);
        if (status != CertStatus::kOk) {
            std::printf("UNEXPECTED: chain validation failed: %s\n", to_string(status));
            return 1;
        }
        validate_ms.add(elapsed_ms(start));
    }
    std::printf("\n== Figure 13: Time required in validating a X.509 Certificate ==\n");
    std::fputs(validate_ms.trim_outliers(kKeep).metric_table().c_str(), stdout);

    // --- Figure 14: sign + encrypt, then decrypt + extract -------------------
    const Bytes request_bytes = sample_request_bytes(rng);
    std::printf("\nBrokerDiscoveryRequest payload: %zu bytes\n", request_bytes.size());

    SampleSet seal_ms, open_ms, total_ms;
    for (int i = 0; i < kRuns; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto envelope = seal(request_bytes, "client.gf1", client_keys.private_key,
                                   broker_keys.public_key, "broker-7", rng);
        if (!envelope) {
            std::printf("UNEXPECTED: seal failed\n");
            return 1;
        }
        const double t_seal = elapsed_ms(t0);

        const auto t1 = std::chrono::steady_clock::now();
        const auto opened = open(*envelope, broker_keys.private_key, client_keys.public_key);
        if (!opened || !opened->signature_valid || opened->payload != request_bytes) {
            std::printf("UNEXPECTED: open failed\n");
            return 1;
        }
        const double t_open = elapsed_ms(t1);

        seal_ms.add(t_seal);
        open_ms.add(t_open);
        total_ms.add(t_seal + t_open);
    }
    std::printf(
        "\n== Figure 14: Time required to digitally sign and encrypt and later extract the "
        "BrokerDiscoveryRequest ==\n");
    std::fputs(total_ms.trim_outliers(kKeep).metric_table().c_str(), stdout);
    std::printf("\nPhase split (mean): sign+encrypt %.3f ms, decrypt+verify %.3f ms\n",
                seal_ms.mean(), open_ms.mean());
    std::printf(
        "Shape check: costs are per-message milliseconds -> acceptable for systems that "
        "need the feature (paper conclusion): %s\n",
        total_ms.mean() < 1000.0 ? "HOLDS" : "VIOLATED");

    // --- Secured-vs-plain discovery throughput curve -------------------------
    //
    // What the paper could not do: amortize the RSA cost. Each point drives
    // real UDP datagrams over loopback (the deployment receive path: socket,
    // recvmmsg drain, decode, duplicate cache) with the security modes
    // wrapped around it:
    //   plain      no crypto (baseline, relative 1.0)
    //   *_cold     every datagram re-handshakes (the paper's per-message
    //              RSA cost, Figure 14 as a throughput number)
    //   *_warm     one handshake, then the session-key cache fast path
    const Bytes inner_frame = [&] {
        wire::ByteWriter w;
        w.u8(wire::kMsgDiscoveryRequest);
        w.raw(request_bytes.data(), request_bytes.size());
        return w.take();
    }();

    struct CurvePoint {
        const char* mode;
        double dps = 0;
        double relative = 0;
        std::uint64_t iters = 0;
        std::uint64_t handshakes = 0;
    };
    std::vector<CurvePoint> curve;

    // The BDN-shaped receive sink: opens envelopes when a context is
    // attached, then decodes the request and probes the duplicate cache.
    // Everything here runs on the transport's reactor thread.
    class CurveSink final : public transport::MessageHandler {
    public:
        void attach(discovery::SecurityContext* security) { security_ = security; }
        void on_datagram(const Endpoint&, const Bytes& data) override {
            wire::ByteReader r(data);
            std::span<const std::uint8_t> frame{data.data(), data.size()};
            const std::uint8_t type = r.u8();
            if (type == wire::kMsgSecureEnvelope) {
                const auto opened = security_->open_datagram(r);
                if (!opened.ok()) {
                    open_failures_.fetch_add(1, std::memory_order_relaxed);
                    received_.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
                frame = opened.payload;
                wire::ByteReader inner(frame);
                if (inner.u8() != wire::kMsgDiscoveryRequest) std::abort();
                consume(inner);
            } else if (type == wire::kMsgDiscoveryRequest) {
                consume(r);
            }
            received_.fetch_add(1, std::memory_order_relaxed);
        }
        void consume(wire::ByteReader& r) {
            const auto req = discovery::DiscoveryRequest::decode(r);
            dedup_.insert(req.request_id);
            sink_ += req.realm.size() + req.requester_hostname.size();
        }
        [[nodiscard]] std::uint64_t received() const {
            return received_.load(std::memory_order_relaxed);
        }
        [[nodiscard]] std::uint64_t open_failures() const {
            return open_failures_.load(std::memory_order_relaxed);
        }
        bool wait_for(std::uint64_t target, int timeout_ms = 10000) const {
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(timeout_ms);
            while (received() < target) {
                if (std::chrono::steady_clock::now() > deadline) return false;
            }
            return true;
        }

    private:
        discovery::SecurityContext* security_ = nullptr;
        broker::DedupCache dedup_{1024};
        std::uint64_t sink_ = 0;  // defeats dead-code elimination
        std::atomic<std::uint64_t> received_{0};
        std::atomic<std::uint64_t> open_failures_{0};
    };

    transport::PosixTransport curve_transport;
    const std::uint16_t base_port = transport::PosixTransport::find_free_port(48100);
    const Endpoint client_ep{1, base_port};
    const Endpoint bdn_ep{2, static_cast<std::uint16_t>(base_port + 1)};
    CurveSink curve_sink;
    CurveSink idle;
    curve_transport.bind(client_ep, &idle);
    curve_transport.bind(bdn_ep, &curve_sink);

    const auto warm_iters = static_cast<std::uint64_t>(kRuns) * 100;
    const auto cold_iters = static_cast<std::uint64_t>(std::min(kRuns, 24));
    constexpr std::uint64_t kBurst = 16;  // stays inside loopback socket buffers

    // Pump `iters` datagrams (each built by `fill`) through the socket pair
    // in paced bursts; returns datagrams/second, or a negative value when
    // delivery stalled (loopback drop — the measurement is void, retry).
    const auto pump = [&](std::uint64_t iters, std::uint64_t burst, auto&& fill) -> double {
        const std::uint64_t start_count = curve_sink.received();
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t sent = 0;
        while (sent < iters) {
            const std::uint64_t n = std::min(burst, iters - sent);
            for (std::uint64_t i = 0; i < n; ++i) {
                wire::ByteWriter w(curve_transport.acquire_buffer());
                fill(w);
                curve_transport.send_datagram(client_ep, bdn_ep, w.take());
            }
            sent += n;
            if (!curve_sink.wait_for(start_count + sent)) return -1.0;
        }
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        return static_cast<double>(iters) / seconds;
    };
    // One warm-up pass (pool growth, socket buffers) plus up to three
    // attempts: a loopback drop voids the attempt rather than the bench.
    const auto measure = [&](const char* name, std::uint64_t iters, std::uint64_t burst,
                             std::uint64_t handshakes, auto&& fill) {
        double dps = -1.0;
        (void)pump(std::min<std::uint64_t>(iters, 4 * kBurst), burst, fill);
        for (int attempt = 0; attempt < 3 && dps < 0; ++attempt) {
            dps = pump(iters, burst, fill);
        }
        if (dps < 0) {
            std::printf("UNEXPECTED: %s stalled (loopback loss)\n", name);
            std::exit(1);
        }
        curve.push_back({name, dps, 0, iters, handshakes});
    };

    // Plain baseline.
    measure("plain", warm_iters, kBurst, 0,
            [&](wire::ByteWriter& w) { w.raw(inner_frame.data(), inner_frame.size()); });

    ManualClock curve_clock(0);
    Rng curve_rng(0xC0FFEE);
    const auto run_mode = [&](config::SecurityConfig::Mode mode, const char* cold_name,
                              const char* warm_name) {
        config::SecurityConfig cfg;
        cfg.mode = mode;
        cfg.session_cache_size = 64;
        cfg.rekey_interval = 0;
        discovery::SecurityContext sender("client.gf1.ucs.indiana.edu", client_keys,
                                          {client_cert, root}, {root}, cfg, curve_clock,
                                          curve_rng);
        discovery::SecurityContext receiver("bdn-1", broker_keys, {}, {root}, cfg,
                                            curve_clock, curve_rng);
        sender.add_peer_key("bdn-1", broker_keys.public_key);
        curve_sink.attach(&receiver);

        const std::span<const std::uint8_t> payload{inner_frame.data(), inner_frame.size()};
        const auto seal_into = [&](wire::ByteWriter& w, bool force) {
            if (!sender.seal_datagram(payload, "bdn-1", w, force)) std::abort();
        };
        // Cold: the paper's shape — full RSA handshake per datagram (burst
        // of 1: each handshake's RSA work dwarfs a datagram's anyway).
        measure(cold_name, cold_iters, 1, cold_iters,
                [&](wire::ByteWriter& w) { seal_into(w, true); });
        // Warm: the session established above carries everything.
        measure(warm_name, warm_iters, kBurst, 0,
                [&](wire::ByteWriter& w) { seal_into(w, false); });
        curve_sink.attach(nullptr);
    };

    run_mode(config::SecurityConfig::Mode::kSign, "sign_cold", "sign_warm");
    run_mode(config::SecurityConfig::Mode::kSeal, "seal_cold", "seal_warm");
    if (curve_sink.open_failures() != 0) {
        std::printf("UNEXPECTED: %llu envelopes failed to open\n",
                    static_cast<unsigned long long>(curve_sink.open_failures()));
        return 1;
    }

    const double plain_dps = curve[0].dps;
    for (CurvePoint& p : curve) p.relative = p.dps / plain_dps;

    const bool aesni = Aes128::accelerated();
    std::printf("\n== Secured-vs-plain discovery throughput (receive-path work, %zu-byte "
                "request, AES-NI %s) ==\n",
                inner_frame.size(), aesni ? "on" : "off");
    std::printf("%-10s %14s %10s\n", "mode", "datagrams/s", "relative");
    for (const CurvePoint& p : curve) {
        std::printf("%-10s %14.0f %9.3fx\n", p.mode, p.dps, p.relative);
        bench::print_json_record("security_curve",
                                 {{"dps", p.dps},
                                  {"relative", p.relative},
                                  {"iters", static_cast<double>(p.iters)}});
    }

    // BENCH_security.json: the machine-readable curve the CI smoke job
    // schema-validates, plus the warm-cache floor.
    double warm_seal_relative = 0;
    for (const CurvePoint& p : curve) {
        if (std::strcmp(p.mode, "seal_warm") == 0) warm_seal_relative = p.relative;
    }
    {
        obs::JsonWriter w;
        w.begin_object()
            .field("bench", "security_curve")
            .field("rsa_bits", static_cast<std::uint64_t>(kRsaBits))
            .field("payload_bytes", static_cast<std::uint64_t>(inner_frame.size()))
            .field("aesni", aesni)
            .field("warm_seal_relative", warm_seal_relative, 4)
            .key("results")
            .begin_array();
        for (const CurvePoint& p : curve) {
            w.begin_object()
                .field("mode", p.mode)
                .field("dps", p.dps, 1)
                .field("relative", p.relative, 4)
                .field("handshakes", p.handshakes)
                .end_object();
        }
        w.end_array().end_object();
        if (std::FILE* f = std::fopen("BENCH_security.json", "w")) {
            std::fputs(w.str().c_str(), f);
            std::fputc('\n', f);
            std::fclose(f);
            std::printf("\nwrote BENCH_security.json\n");
        } else {
            std::perror("bench: BENCH_security.json");
        }
    }

    // Regression gate (ISSUE acceptance): with the session cache warm and
    // hardware AES, secured discovery sustains at least half of plain-mode
    // throughput. Software AES boxes report but do not gate.
    std::printf("Warm-cache floor (seal_warm >= 0.5x plain%s): %s (%.3fx)\n",
                aesni ? "" : ", advisory without AES-NI",
                warm_seal_relative >= 0.5 || !aesni ? "HOLDS" : "VIOLATED",
                warm_seal_relative);
    if (aesni && warm_seal_relative < 0.5) return 1;
    return 0;
}
