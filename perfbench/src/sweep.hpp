#pragma once
// The sweep workloads: the 6x4 protocol x regime property matrix, streamed
// with online early stop through the SweepPool at its default worker
// count (one per hardware thread, so nproc), and the output gate on its
// S/T/L verdicts.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace perfbench {

namespace exp = xcp::exp;

inline constexpr std::size_t kProtocols = 6;
inline constexpr std::size_t kRegimes = 4;
inline constexpr std::size_t kCells = kProtocols * kRegimes;

/// Row order of the verdict tables (the order bench_property_matrix
/// prints); columns follow exp::Regime.
inline constexpr std::array<exp::ProtocolKind, kProtocols> kProtocolRows = {
    exp::ProtocolKind::kUniversalNaive,  exp::ProtocolKind::kTimeBounded,
    exp::ProtocolKind::kInterledgerAtomic, exp::ProtocolKind::kWeakTrusted,
    exp::ProtocolKind::kWeakContract,    exp::ProtocolKind::kWeakCommittee};
inline constexpr std::array<exp::Regime, kRegimes> kRegimeCols = {
    exp::Regime::kSynchronyConforming, exp::Regime::kSynchronyHighDrift,
    exp::Regime::kPartialSynchrony, exp::Regime::kPartialSynchronyAdversarial};

/// A cell's verdict as three letters: S, T, L when safety, termination and
/// liveness held over every seed, lower case where one was violated.
std::string verdict_of(const exp::MatrixCell& cell);

/// The verdicts recorded at the commit that defined this benchmark, for
/// the chain lengths the sweep workloads use (n = 2 and n = 64); empty
/// when no table exists for `n`.
std::vector<std::string> recorded_verdicts(int n);

/// The gate: one entry per cell (row-major over kProtocolRows x
/// kRegimeCols) whose verdict differs from the recorded table or breaks a
/// cell the paper pins. Returns the failure descriptions.
std::vector<std::string> verdict_failures(int n,
                                          const std::vector<std::string>& got);

struct SweepOptions {
  std::string workload;
  int n = 2;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string work_dir;   // for the journal probe of the traced run
  std::string trace_out;  // Chrome JSON path for the traced run's spans
};

/// The whole sweep workload: set-up, timed batches, gates, metrics.
/// Returns the process exit code (0 when every gate passed).
int run_sweep_workload(const SweepOptions& opts);

}  // namespace perfbench
