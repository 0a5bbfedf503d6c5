// Self-tests of the benchmark's own logic: tail selection, the deal
// schedule, the verdict gate and the deal failure rule (including one real
// deal whose notaries exit nonzero).
//
//   perfbench_selftest NODE_BIN WORK_DIR     (python3 perfbench/run.py --selftest)

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "committee.hpp"
#include "report.hpp"
#include "sweep.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

void test_tail() {
  using perfbench::tail_of;
  std::vector<double> v;
  for (int i = 1; i <= 30; ++i) v.push_back(31 - i);  // unsorted input
  perfbench::Tail t = tail_of(v);
  // 30 samples: rank 19 (value 20) is the highest with 10 samples beyond.
  check(t.value == 20 && t.samples == 30 && t.supported,
        "tail of 30 samples is the 20th value, with 10 beyond");
  check(near(t.percentile, 100.0 * 20 / 30, 1e-12),
        "tail of 30 samples is reported as p66.67");

  v.assign({5, 1, 4, 2, 3});
  t = tail_of(v);
  check(!t.supported && t.value == 5 && t.samples == 5 && t.percentile == 100,
        "too few samples: the maximum, flagged unsupported");

  v.clear();
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  t = tail_of(v);
  check(t.value == 9899 && near(t.percentile, 99.0, 1e-12),
        "many samples: the tail is capped at p99");

  check(perfbench::median_of({3, 1, 2, 10}) == 2.5, "median of an even count");
  check(perfbench::interquartile_mean({9, 1, 40, 3, 2, 4, 100, 5}) == 5.25 &&
            perfbench::interquartile_mean({7, 3}) == 5,
        "interquartile mean drops n/4 samples at each end");
  check(perfbench::quantile_of({4, 1, 3, 2, 5}, 0.25) == 2 &&
            perfbench::quantile_of({1, 2, 3, 4}, 0.25) == 1.75,
        "first quartile, exact and interpolated");
}

void test_schedule() {
  perfbench::DealSchedule a, b, c;
  a.seed = b.seed = 42;
  c.seed = 43;
  bool same = true, differs = false, in_window = true;
  for (std::size_t k = 0; k < 64; ++k) {
    const auto sa = a.slot(k);
    same = same && sa.point == b.slot(k).point &&
           sa.offset_ms == b.slot(k).offset_ms;
    differs = differs || sa.offset_ms != c.slot(k).offset_ms;
    in_window = in_window && sa.offset_ms >= a.lo_ms && sa.offset_ms < a.hi_ms;
  }
  check(same, "same seed, same deals and arrival offsets");
  check(differs, "another seed, other arrival offsets");
  check(in_window, "offsets stay inside the window");

  // Every cycle visits each grid point once, and each arrival stays within
  // its point's jitter band.
  bool covered = true, banded = true;
  const auto k = static_cast<std::size_t>(a.points);
  for (std::size_t cycle = 0; cycle < 4; ++cycle) {
    std::set<std::size_t> points;
    for (std::size_t i = 0; i < k; ++i) {
      const auto s = a.slot(cycle * k + i);
      points.insert(s.point);
      const double lo = a.offset_ms(s.point, -0.5);
      const double hi = a.offset_ms(s.point, 0.5);
      banded = banded && s.offset_ms >= lo && s.offset_ms <= hi &&
               (hi - lo) / a.offset_ms(s.point, 0) < 0.01;
    }
    covered = covered && points.size() == k;
  }
  check(covered, "each cycle visits every grid point once");
  check(banded, "each arrival stays inside its point's jitter band (<1%)");
}

void test_verdict_gate() {
  for (int n : {2, 64}) {
    std::vector<std::string> got = perfbench::recorded_verdicts(n);
    const std::string tag = " (n=" + std::to_string(n) + ")";
    check(got.size() == perfbench::kCells &&
              perfbench::verdict_failures(n, got).empty(),
          "the recorded table passes the gate" + tag);
    // weak/trusted under partial synchrony loses termination.
    got[3 * perfbench::kRegimes + 2] = "StL";
    check(perfbench::verdict_failures(n, got).size() == 1,
          "the gate rejects one flipped cell" + tag);
  }
  // A flip that also breaks what the paper pins is still one failing cell.
  std::vector<std::string> got = perfbench::recorded_verdicts(2);
  got[1 * perfbench::kRegimes + 2] = "STL";  // time-bounded, partial sync
  const auto fails = perfbench::verdict_failures(2, got);
  check(fails.size() == 1 && fails[0].find("Thm 2") != std::string::npos,
        "a time-bounded cell passing under partial synchrony breaks Thm 2");
}

void test_deal_rule(const std::string& node_bin, const std::string& work_dir) {
  perfbench::DealResult ok;
  ok.certified = true;
  ok.cert_valid = true;
  ok.outcome = ok.reference = "value=commit";
  ok.notary_exits = {0, 0, 0, 0};
  check(!perfbench::deal_failed(ok), "a clean deal passes");
  perfbench::DealResult bad = ok;
  bad.notary_exits[2] = 3;
  check(perfbench::deal_failed(bad), "a nonzero notary exit fails the deal");
  check(perfbench::deal_wrong(bad, true),
        "a nonzero notary exit is a wrong output");
  bad = ok;
  bad.outcome = "value=abort";
  check(perfbench::deal_failed(bad) && perfbench::deal_wrong(bad, true),
        "an outcome unlike the reference is a wrong output");
  bad = ok;
  bad.certified = false;
  bad.outcome.clear();
  check(perfbench::deal_failed(bad) && !perfbench::deal_wrong(bad, true),
        "an uncertified deal at a recorded point fails without a wrong output");
  check(perfbench::deal_wrong(bad, false),
        "an uncertified deal at any other point is a wrong output");
  std::size_t expected = 0;
  for (std::size_t p = 0; p < 64; ++p) {
    expected += perfbench::uncertified_expected(p) ? 1 : 0;
  }
  check(expected == 3 && perfbench::uncertified_expected(22) &&
            perfbench::uncertified_expected(23) &&
            perfbench::uncertified_expected(24),
        "uncertified deals are expected at the three recorded points only");

  // Real deals: one clean, one whose notaries all time out (exit 3).
  perfbench::DealPlan plan;
  plan.node_bin = node_bin;
  plan.dir = work_dir + "/clean";
  plan.offset_ms = 700;
  perfbench::DealResult r = perfbench::run_deal(plan, nullptr);
  check(!perfbench::deal_failed(r) && r.notary_exits.size() == 4,
        "a live committee deal certifies and matches the reference");
  // The client certifies on a quorum of three, so the fourth notary may
  // journal its decision after the delivery: no order between the two.
  check(r.decision_ms > 0 && r.decision_ms < 1000,
        "its decision time is seen in every notary's journal");
  plan.dir = work_dir + "/timeout";
  plan.deal_id = 14;
  plan.notary_extra_args = {"--wall-limit-ms", "1"};
  r = perfbench::run_deal(plan, nullptr);
  bool saw_three = false;
  for (int code : r.notary_exits) saw_three = saw_three || code == 3;
  check(saw_three && perfbench::deal_failed(r),
        "notaries exiting 3 (timeout) fail the deal");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_selftest NODE_BIN WORK_DIR\n");
    return 2;
  }
  test_tail();
  test_schedule();
  test_verdict_gate();
  test_deal_rule(argv[1], argv[2]);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
