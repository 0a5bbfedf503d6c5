// Seed-range sharding of a property-matrix cell: splitting a cell's seed
// range into contiguous shards, folding each with run_matrix_cell_accum and
// merging the CellAccums in any order reproduces run_matrix_cell exactly
// across the 6x4 theorem matrix. Batched sweeps merge their batches this way.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"

namespace xcp::exp {
namespace {

const std::vector<ProtocolKind> kAllProtocols{
    ProtocolKind::kUniversalNaive,    ProtocolKind::kTimeBounded,
    ProtocolKind::kInterledgerAtomic, ProtocolKind::kWeakTrusted,
    ProtocolKind::kWeakContract,      ProtocolKind::kWeakCommittee};
const std::vector<Regime> kAllRegimes{
    Regime::kSynchronyConforming, Regime::kSynchronyHighDrift,
    Regime::kPartialSynchrony, Regime::kPartialSynchronyAdversarial};

/// Splits [first, first + seeds) into `parts` contiguous ranges balanced to
/// within one seed; with more parts than seeds the trailing ranges are
/// empty. Returns (first_seed, count) pairs in seed order.
std::vector<std::pair<std::uint64_t, std::size_t>> split_seeds(
    std::uint64_t first, std::size_t seeds, std::size_t parts) {
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  for (std::size_t i = 0; i < parts; ++i) {
    const std::size_t count = seeds / parts + (i < seeds % parts ? 1 : 0);
    out.emplace_back(first, count);
    first += count;
  }
  return out;
}

void expect_accums_identical(const CellAccum& a, const CellAccum& b) {
  EXPECT_EQ(a.safety_violations, b.safety_violations);
  EXPECT_EQ(a.termination_failures, b.termination_failures);
  EXPECT_EQ(a.liveness_failures, b.liveness_failures);
  EXPECT_EQ(a.early_stops, b.early_stops);
  EXPECT_EQ(a.decided_at_total.count(), b.decided_at_total.count());
  EXPECT_EQ(a.events_total, b.events_total);
  ASSERT_EQ(a.examples.size(), b.examples.size());
  for (std::size_t i = 0; i < a.examples.size(); ++i) {
    EXPECT_EQ(a.examples[i].seed, b.examples[i].seed) << i;
    EXPECT_EQ(a.examples[i].ordinal, b.examples[i].ordinal) << i;
    EXPECT_EQ(a.examples[i].text, b.examples[i].text) << i;
  }
}

TEST(CellAccum, MergingADefaultAccumIsANoop) {
  // Idle worker slots and empty seed ranges go through exactly this path,
  // on either side of the merge. The all-honest matrix never produces
  // safety examples, so the populated side is built by hand.
  CellAccum populated;
  populated.safety_violations = 3;
  populated.termination_failures = 1;
  populated.liveness_failures = 2;
  populated.early_stops = 42;
  populated.decided_at_total = Duration::micros(-123456789);
  populated.events_total = 1ull << 60;
  populated.examples.push_back({5, 0, "first"});
  populated.examples.push_back({5, 1, std::string("embedded\0nul", 12)});
  populated.examples.push_back({9, 0, ""});

  CellAccum merged = populated;
  merged.merge(CellAccum{});
  expect_accums_identical(merged, populated);

  CellAccum from_empty;
  from_empty.merge(CellAccum(populated));
  expect_accums_identical(from_empty, populated);
}

TEST(CellAccum, PartitionedMergeMatchesSingleSweepAcrossTheoremMatrix) {
  // Split each cell's seed range into K contiguous parts, fold every part
  // with run_matrix_cell_accum, merge forward and in reverse, and finish
  // with cell_from_accum: the result must equal run_matrix_cell whole-cell
  // (counters, early-stop telemetry and the capped example list).
  // seeds = 5 makes every K > 1 partition ragged and K = 7 include empty
  // parts; first_seed = 3 keeps the ranges off the default origin.
  constexpr std::size_t kSeeds = 5;
  constexpr std::uint64_t kFirst = 3;
  for (const ProtocolKind p : kAllProtocols) {
    for (const Regime r : kAllRegimes) {
      const MatrixCell single = run_matrix_cell(p, r, 2, kSeeds, kFirst);
      for (const std::size_t parts : {1u, 2u, 3u, 7u}) {
        SCOPED_TRACE(std::string(protocol_kind_name(p)) + " / " +
                     regime_name(r) + " / K=" + std::to_string(parts));
        std::vector<CellAccum> accums;
        for (const auto& [first, count] : split_seeds(kFirst, kSeeds, parts)) {
          accums.push_back(run_matrix_cell_accum(p, r, 2, count, first));
        }
        CellAccum forward;
        for (const CellAccum& a : accums) forward.merge(CellAccum(a));
        CellAccum reverse;
        for (auto it = accums.rbegin(); it != accums.rend(); ++it) {
          reverse.merge(CellAccum(*it));
        }
        EXPECT_EQ(cell_from_accum(p, r, kSeeds, std::move(forward)), single);
        EXPECT_EQ(cell_from_accum(p, r, kSeeds, std::move(reverse)), single);
      }
    }
  }
}

}  // namespace
}  // namespace xcp::exp
