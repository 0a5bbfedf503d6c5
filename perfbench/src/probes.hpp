#pragma once
// Layer probes that need no live committee: key derivation, quorum
// verification, the in-sim committee reference, the certificate codec and
// journal appends. Each is timed from outside around the layer's public
// call, over a fixed set of scenarios, and reported as a median.

#include <string>

#include "trace.hpp"

namespace perfbench {

struct ProbeResults {
  double make_keys_us = 0;      // StandaloneCommittee::make_keys
  double verify_quorum_us = 0;  // crypto::verify_quorum_cert
  double sim_reference_us = 0;  // consensus::run_standalone_sim
  double cert_signers = 0;      // signatures in the reference certificate
  double cert_bytes = 0;        // net::serialize_certificate size
  double cert_roundtrip_us = 0;  // serialize + parse_certificate
  double wal_append_us = 0;      // WriteAheadLog::append incl. fdatasync
  std::string error;             // empty when every probe checked out
};

/// `dir` holds the probe journal; it must be on the filesystem the
/// notaries journal to.
ProbeResults run_layer_probes(const std::string& dir, SpanLog* spans);

}  // namespace perfbench
