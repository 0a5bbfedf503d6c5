#include "probes.hpp"

#include <filesystem>
#include <vector>

#include "consensus/standalone.hpp"
#include "crypto/certificate.hpp"
#include "net/wal.hpp"
#include "net/wire.hpp"
#include "report.hpp"

namespace perfbench {

using namespace xcp;

namespace {

constexpr int kScenarios = 32;
constexpr int kRoundtrips = 256;
constexpr int kWalAppends = 64;

}  // namespace

ProbeResults run_layer_probes(const std::string& dir, SpanLog* spans) {
  ProbeResults out;
  std::vector<double> keys_us, verify_us, sim_us, roundtrip_us, append_us;
  for (int i = 0; i < kScenarios; ++i) {
    consensus::StandaloneCommittee sc;
    sc.seed = 1000 + static_cast<std::uint64_t>(i);
    sc.deal_id = 500 + static_cast<std::uint64_t>(i);

    std::int64_t t0 = now_ns();
    const crypto::KeyRegistry keys = sc.make_keys();
    std::int64_t t1 = now_ns();
    keys_us.push_back(ns_to_us(t1 - t0));
    if (spans) spans->close(spans->open(), "crypto.make_keys", t0, t1, 0, sc.seed);
    const auto config = sc.make_config(keys);

    t0 = now_ns();
    const consensus::CommitteeOutcome ref = consensus::run_standalone_sim(sc);
    t1 = now_ns();
    sim_us.push_back(ns_to_us(t1 - t0));
    if (spans) spans->close(spans->open(), "consensus.sim_reference", t0, t1, 0, sc.seed);
    if (!ref.value || !ref.cert_valid) {
      out.error = "run_standalone_sim did not certify scenario " +
                  std::to_string(sc.seed);
      continue;
    }

    t0 = now_ns();
    const bool valid = crypto::verify_quorum_cert(
        keys, ref.cert, config->members,
        static_cast<std::size_t>(config->quorum()));
    t1 = now_ns();
    verify_us.push_back(ns_to_us(t1 - t0));
    if (spans) spans->close(spans->open(), "crypto.verify_quorum", t0, t1, 0, sc.seed);
    if (!valid) out.error = "reference certificate failed verify_quorum_cert";
    out.cert_signers = static_cast<double>(ref.cert.quorum.size());

    net::WireContext ctx;
    ctx.roster = &config->members;
    const std::vector<std::uint8_t> bytes =
        net::serialize_certificate(ref.cert, ctx);
    out.cert_bytes = static_cast<double>(bytes.size());
    bool same = true;
    t0 = now_ns();
    for (int r = 0; r < kRoundtrips; ++r) {
      const crypto::Certificate back = net::parse_certificate(
          net::serialize_certificate(ref.cert, ctx), ctx);
      same = same && back.digest() == ref.cert.digest() &&
             back.quorum.size() == ref.cert.quorum.size();
    }
    t1 = now_ns();
    roundtrip_us.push_back(ns_to_us(t1 - t0) / kRoundtrips);
    if (spans) spans->close(spans->open(), "wire.cert_roundtrip", t0, t1, 0, sc.seed);
    if (!same) out.error = "certificate changed over a wire round trip";
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = dir + "/probe.wal";
  fs::remove(path, ec);
  try {
    net::WriteAheadLog wal(path);
    wal.open();
    for (int i = 0; i < kWalAppends; ++i) {
      net::WalRecord r;
      r.kind = i % 2 ? net::WalRecordKind::kPrecommit
                     : net::WalRecordKind::kPrevote;
      r.instance = 13;
      r.round = i / 2;
      r.value = 1;
      const std::int64_t t0 = now_ns();
      wal.append(r);
      const std::int64_t t1 = now_ns();
      append_us.push_back(ns_to_us(t1 - t0));
      if (spans) spans->close(spans->open(), "wal.append", t0, t1, 0, 0);
    }
    wal.close();
    net::WriteAheadLog reread(path);
    if (reread.open().records.size() != static_cast<std::size_t>(kWalAppends)) {
      out.error = "probe journal lost records";
    }
  } catch (const std::exception& e) {
    out.error = std::string("wal probe: ") + e.what();
  }
  fs::remove(path, ec);

  out.make_keys_us = median_of(keys_us);
  out.verify_quorum_us = median_of(verify_us);
  out.sim_reference_us = median_of(sim_us);
  out.cert_roundtrip_us = median_of(roundtrip_us);
  out.wal_append_us = median_of(append_us);
  return out;
}

}  // namespace perfbench
