#include "sweep.hpp"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>

#include "baselines/interledger.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "mix.hpp"
#include "net/adversary.hpp"
#include "probes.hpp"
#include "proto/timebounded.hpp"
#include "proto/weak/protocol.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace xcp;

namespace {

using exp::ProtocolKind;
using exp::Regime;

/// Recorded by running this benchmark at the commit that defined it:
/// `matrix` and `chain-long` over many thousand seeds per cell, every run
/// agreeing. Row-major over kProtocolRows x kRegimeCols.
const std::vector<std::string> kVerdictsN2 = {
    "STL", "Stl", "Stl", "Stl",  // universal [4] (naive)
    "STL", "STL", "Stl", "Stl",  // time-bounded (Thm 1)
    "STL", "STL", "STl", "STl",  // atomic [4]
    "STL", "STL", "STL", "STL",  // weak, trusted TM
    "STL", "STL", "STL", "STL",  // weak, contract TM
    "STL", "STL", "STL", "STL",  // weak, notary committee
};
const std::vector<std::string> kVerdictsN64 = {
    "STL", "Stl", "STL", "Stl",  // universal [4] (naive)
    "STL", "STL", "STL", "Stl",  // time-bounded (Thm 1)
    "STL", "STL", "STl", "STl",  // atomic [4]
    "STL", "STL", "STL", "STL",  // weak, trusted TM
    "STL", "STL", "STL", "STL",  // weak, contract TM
    "STL", "STL", "STL", "STL",  // weak, notary committee
};

bool is_weak_family(ProtocolKind k) {
  return k != ProtocolKind::kTimeBounded && k != ProtocolKind::kUniversalNaive;
}

const char* family_name(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kUniversalNaive: return "universal";
    case ProtocolKind::kTimeBounded: return "time-bounded";
    case ProtocolKind::kInterledgerAtomic: return "atomic";
    case ProtocolKind::kWeakTrusted: return "weak-trusted";
    case ProtocolKind::kWeakContract: return "weak-contract";
    case ProtocolKind::kWeakCommittee: return "weak-committee";
  }
  return "?";
}

const char* run_span_name(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kUniversalNaive: return "proto.run.universal";
    case ProtocolKind::kTimeBounded: return "proto.run.time-bounded";
    case ProtocolKind::kInterledgerAtomic: return "proto.run.atomic";
    case ProtocolKind::kWeakTrusted: return "proto.run.weak-trusted";
    case ProtocolKind::kWeakContract: return "proto.run.weak-contract";
    case ProtocolKind::kWeakCommittee: return "proto.run.weak-committee";
  }
  return "proto.run";
}

std::size_t family_index(ProtocolKind k) {
  for (std::size_t i = 0; i < kProtocols; ++i) {
    if (kProtocolRows[i] == k) return i;
  }
  return 0;
}

// --- The traced path: exp/runner.cpp's per-seed runner, rebuilt from the
// public presets so the proto and props layers can be timed separately.
// Its folded cells must equal the untraced MatrixCells (checked per run).

proto::RunRecord run_time_bounded_family(ProtocolKind protocol, Regime regime,
                                         int n, std::uint64_t seed,
                                         props::OnlineOptions online) {
  proto::TimeBoundedConfig cfg = exp::thm1_config(n, seed);
  cfg.online = online;
  cfg.compensated = protocol == ProtocolKind::kTimeBounded;
  switch (regime) {
    case Regime::kSynchronyConforming:
      break;
    case Regime::kSynchronyHighDrift:
      cfg.assumed.rho = 0.15;
      cfg.env.actual_rho = 0.15;
      cfg.env.delta_min = Duration::millis(90);
      break;
    case Regime::kPartialSynchrony:
      cfg.env = exp::partial_env(cfg.assumed, 2, Duration::millis(500));
      cfg.extra_horizon = Duration::seconds(10);
      break;
    case Regime::kPartialSynchronyAdversarial: {
      cfg.env = exp::partial_env(cfg.assumed, 120, Duration::millis(150));
      const TimePoint release = TimePoint::origin() + Duration::seconds(120);
      cfg.adversary = [release](const proto::Participants& parts,
                                const proto::TimelockSchedule&)
          -> std::unique_ptr<net::Adversary> {
        auto adv = std::make_unique<net::RuleBasedAdversary>();
        for (auto escrow : parts.escrows) {
          adv->hold_until(
              net::RuleBasedAdversary::all_of(
                  {net::RuleBasedAdversary::kind_is(net::kinds::chi),
                   net::RuleBasedAdversary::to_process(escrow)}),
              release);
        }
        return adv;
      };
      cfg.extra_horizon = Duration::seconds(30);
      break;
    }
  }
  return proto::run_time_bounded(cfg);
}

proto::RunRecord run_weak_family(ProtocolKind protocol, Regime regime, int n,
                                 std::uint64_t seed,
                                 props::OnlineOptions online) {
  using proto::weak::TmKind;
  TmKind tm = TmKind::kTrustedParty;
  if (protocol == ProtocolKind::kWeakContract) tm = TmKind::kSmartContract;
  if (protocol == ProtocolKind::kWeakCommittee) tm = TmKind::kNotaryCommittee;

  proto::weak::WeakConfig cfg = exp::thm3_config(tm, n, seed);
  cfg.online = online;
  switch (regime) {
    case Regime::kSynchronyConforming:
    case Regime::kSynchronyHighDrift:
      cfg.env = exp::conforming_env(exp::default_timing());
      if (regime == Regime::kSynchronyHighDrift) {
        cfg.env.actual_rho = exp::default_timing().rho * 20.0;
      }
      break;
    case Regime::kPartialSynchrony:
      cfg.env = exp::partial_env(exp::default_timing(), 10,
                                 Duration::seconds(2));
      cfg.patience = Duration::seconds(60);
      break;
    case Regime::kPartialSynchronyAdversarial:
      cfg.env = exp::partial_env(exp::default_timing(), 20,
                                 Duration::millis(500));
      cfg.adversary = [](const proto::Participants&)
          -> std::unique_ptr<net::Adversary> {
        auto adv = std::make_unique<net::RuleBasedAdversary>();
        const TimePoint gst = TimePoint::origin() + Duration::seconds(20);
        adv->hold_until(net::RuleBasedAdversary::kind_is(net::kinds::tm_chi),
                        gst);
        adv->hold_until(
            net::RuleBasedAdversary::kind_is(net::kinds::tm_report), gst);
        adv->hold_until(net::RuleBasedAdversary::kind_is(net::kinds::tx), gst);
        return adv;
      };
      cfg.patience = Duration::seconds(90);
      cfg.horizon = Duration::seconds(300);
      break;
  }
  if (protocol == ProtocolKind::kInterledgerAtomic) {
    baselines::AtomicConfig acfg;
    acfg.weak = cfg;
    acfg.notary_deadline = Duration::seconds(3);
    return baselines::run_atomic(acfg);
  }
  return proto::weak::run_weak(cfg);
}

/// exp/runner.cpp's per-record fold, through the public checkers.
void fold_record(const proto::RunRecord& record, bool weak_family,
                 std::uint64_t seed, exp::CellAccum& acc) {
  std::vector<props::PropertyResult> safety;
  safety.push_back(props::check_conservation(record));
  safety.push_back(props::check_escrow_security(record));
  safety.push_back(props::check_cs1(record, weak_family));
  safety.push_back(props::check_cs2(record, weak_family));
  safety.push_back(props::check_cs3(record));
  if (weak_family) {
    safety.push_back(props::check_certificate_consistency(record));
  }
  bool violated = false;
  std::uint32_t ordinal = 0;
  for (const auto& res : safety) {
    if (res.applicable && !res.holds) {
      violated = true;
      if (acc.examples.size() < exp::CellAccum::kMaxExamples) {
        acc.examples.push_back({seed, ordinal, res.str()});
      }
      ++ordinal;
    }
  }
  if (violated) ++acc.safety_violations;
  bool term_failed = false;
  for (int i = 0; i <= record.spec.n; ++i) {
    if (!record.customer(i).terminated) term_failed = true;
  }
  if (term_failed) ++acc.termination_failures;
  if (!record.bob_paid()) ++acc.liveness_failures;
  if (record.online.attached && record.online.early_stopped) {
    ++acc.early_stops;
    acc.decided_at_total =
        acc.decided_at_total + (record.online.decided_at - TimePoint::origin());
  }
  acc.events_total += record.stats.events_executed;
}

// --- Per-worker measurement state of the traced pass. Pool threads persist
// across sweeps, so each keeps one slot for the whole run; the pool's
// completion guarantee makes the slots safe to read once a sweep returned.

struct WorkerStats {
  std::vector<double> seed_ns;
  std::int64_t busy_ns = 0;
  std::array<std::int64_t, kProtocols> run_ns{};
  std::array<std::uint64_t, kProtocols> runs{};
  std::int64_t check_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t drops = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t early_stops = 0;
  std::unique_ptr<SpanLog> spans;
};

class WorkerRegistry {
 public:
  WorkerStats& local() {
    thread_local WorkerStats* mine = nullptr;
    if (mine == nullptr) {
      const std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<WorkerStats>());
      mine = slots_.back().get();
      mine->spans = std::make_unique<SpanLog>(
          static_cast<std::uint32_t>(slots_.size()),
          SpanLog::kDefaultCapacity / 4);
    }
    return *mine;
  }
  /// Call only between sweeps.
  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : slots_) {
      auto spans = std::move(s->spans);
      *s = WorkerStats{};
      s->spans = std::move(spans);
    }
  }
  /// Call only between sweeps.
  template <typename Fn>
  void for_each(Fn&& fn) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& s : slots_) fn(*s);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<WorkerStats>> slots_;
};

WorkerRegistry& workers() {
  static WorkerRegistry r;
  return r;
}

struct Plan {
  int n = 2;
  unsigned workers = 1;
  std::size_t seeds_per_cell = 1;  // per batch and cell call
  std::uint64_t base_seed = 1;

  std::uint64_t first_seed(std::size_t batch) const {
    return base_seed + batch * seeds_per_cell;
  }
};

using Cells = std::vector<exp::CellAccum>;

/// One untraced batch: every cell, seeds_per_cell seeds each, through the
/// library's own streaming sweep (exp::run_matrix_cell_accum on the
/// SweepPool at its default worker count). Appends each cell call's wall
/// time to `cell_ns`.
void run_batch(const Plan& plan, std::size_t batch, Cells& cells,
               std::vector<double>& cell_ns) {
  for (std::size_t c = 0; c < kCells; ++c) {
    const std::int64_t t0 = now_ns();
    cells[c].merge(exp::run_matrix_cell_accum(
        kProtocolRows[c / kRegimes], kRegimeCols[c % kRegimes], plan.n,
        plan.seeds_per_cell, plan.first_seed(batch)));
    cell_ns.push_back(static_cast<double>(now_ns() - t0));
  }
}

/// The same batch through the rebuilt runner, timing each layer.
void run_batch_traced(const Plan& plan, std::size_t batch, Cells& cells) {
  const props::OnlineOptions online = exp::CellOptions{}.online;
  for (std::size_t c = 0; c < kCells; ++c) {
    const ProtocolKind p = kProtocolRows[c / kRegimes];
    const Regime r = kRegimeCols[c % kRegimes];
    const bool weak = is_weak_family(p);
    const std::size_t fam = family_index(p);
    cells[c].merge(exp::sweep_accumulate<exp::CellAccum>(
        plan.first_seed(batch), plan.seeds_per_cell,
        [&](std::uint64_t seed, exp::CellAccum& acc) {
          WorkerStats& w = workers().local();
          SpanLog& log = *w.spans;
          const std::uint64_t seed_span = log.open();
          const std::int64_t t0 = now_ns();
          const proto::RunRecord record =
              weak ? run_weak_family(p, r, plan.n, seed, online)
                   : run_time_bounded_family(p, r, plan.n, seed, online);
          const std::int64_t t1 = now_ns();
          fold_record(record, weak, seed, acc);
          const std::int64_t t2 = now_ns();
          log.close(log.open(), run_span_name(p), t0, t1, seed_span, seed);
          log.close(log.open(), "props.check", t1, t2, seed_span, seed);
          log.close(seed_span, "exp.seed", t0, t2, 0, seed);
          w.seed_ns.push_back(static_cast<double>(t2 - t0));
          w.busy_ns += t2 - t0;
          w.run_ns[fam] += t1 - t0;
          ++w.runs[fam];
          w.check_ns += t2 - t1;
          w.events += record.stats.events_executed;
          w.msgs += record.stats.messages_sent;
          w.drops += record.stats.messages_dropped;
          w.trace_events += record.trace.size();
          w.early_stops +=
              record.online.attached && record.online.early_stopped ? 1 : 0;
        },
        plan.workers));
  }
}

std::vector<exp::MatrixCell> finish(const Plan& plan, std::size_t batches,
                                    Cells cells) {
  std::vector<exp::MatrixCell> out;
  for (std::size_t c = 0; c < kCells; ++c) {
    out.push_back(exp::cell_from_accum(kProtocolRows[c / kRegimes],
                                       kRegimeCols[c % kRegimes],
                                       batches * plan.seeds_per_cell,
                                       std::move(cells[c])));
  }
  return out;
}

/// Set-up: pool start-up plus one warm-up batch of an eighth of the timed
/// batch's seeds, cross-checked against the library's own run_matrix_cell
/// over the same seeds.
bool set_up(const Plan& plan, std::uint64_t warm_first) {
  Plan warm = plan;
  warm.base_seed = warm_first;
  warm.seeds_per_cell = plan.seeds_per_cell / 8;
  Cells cells(kCells);
  std::vector<double> unused;
  run_batch(warm, 0, cells, unused);
  const std::vector<exp::MatrixCell> mine = finish(warm, 1, std::move(cells));
  bool same = true;
  for (std::size_t c = 0; c < kCells; ++c) {
    same = same &&
           mine[c] == exp::run_matrix_cell(kProtocolRows[c / kRegimes],
                                           kRegimeCols[c % kRegimes], plan.n,
                                           warm.seeds_per_cell, warm_first);
  }
  return same;
}

std::vector<std::string> verdicts(const std::vector<exp::MatrixCell>& cells) {
  std::vector<std::string> v;
  for (const auto& c : cells) v.push_back(verdict_of(c));
  return v;
}

}  // namespace

std::string verdict_of(const exp::MatrixCell& cell) {
  std::string v = "STL";
  if (!cell.safety_ok()) v[0] = 's';
  if (!cell.termination_ok()) v[1] = 't';
  if (!cell.liveness_ok()) v[2] = 'l';
  return v;
}

std::vector<std::string> recorded_verdicts(int n) {
  if (n == 2) return kVerdictsN2;
  if (n == 64) return kVerdictsN64;
  return {};
}

std::vector<std::string> verdict_failures(
    int n, const std::vector<std::string>& got) {
  std::vector<std::string> fails;
  const std::vector<std::string> want = recorded_verdicts(n);
  if (got.size() != kCells || want.size() != kCells) {
    fails.push_back("no recorded verdict table for n=" + std::to_string(n));
    return fails;
  }
  for (std::size_t c = 0; c < kCells; ++c) {
    const ProtocolKind p = kProtocolRows[c / kRegimes];
    const Regime r = kRegimeCols[c % kRegimes];
    const std::string& v = got[c];
    const bool s = v[0] == 'S', t = v[1] == 'T', l = v[2] == 'L';
    const bool partial = r == Regime::kPartialSynchrony ||
                         r == Regime::kPartialSynchronyAdversarial;
    std::string why;
    if (v != want[c]) why = "recorded " + want[c];
    // The cells the paper pins.
    if (p == ProtocolKind::kUniversalNaive &&
        r == Regime::kSynchronyHighDrift && t && l) {
      why += " naive must fail under drift";
    }
    if (p == ProtocolKind::kTimeBounded && !partial && !(s && t && l)) {
      why += " time-bounded keeps S+T+L under synchrony (Thm 1)";
    }
    if (p == ProtocolKind::kTimeBounded && partial && n == 2 &&
        (!s || t || l)) {
      why += " time-bounded loses T+L under partial synchrony (Thm 2)";
    }
    if (p == ProtocolKind::kInterledgerAtomic &&
        (!s || !t || (partial && l))) {
      why += " atomic loses only L";
    }
    if (is_weak_family(p) && p != ProtocolKind::kInterledgerAtomic &&
        !(s && t && l)) {
      why += " weak keeps S+T+L everywhere (Thm 3)";
    }
    if (!why.empty()) {
      fails.push_back(std::string(exp::protocol_kind_name(p)) + " / " +
                      exp::regime_name(r) + ": got " + v + ";" + why);
    }
  }
  return fails;
}

int run_sweep_workload(const SweepOptions& opts) {
  Plan plan;
  plan.n = opts.n;
  // The library's default: one worker per hardware thread (nproc).
  plan.workers = exp::detail::SweepPool::resolved_workers(1u << 20, 0);
  // Enough seeds that one cell call takes ~20 ms on four workers (~10 us
  // per seed at n = 2, ~1.4 ms at n = 64), so waking and joining the pool
  // is a small share of what a call measures. At 64 seeds per call (under
  // 1 ms) that share set the figures, and their quartile spread across
  // seeds reached 26%.
  plan.seeds_per_cell = opts.n <= 2 ? 2048 : 64;
  plan.base_seed = 1 + mix(opts.seed, static_cast<std::uint64_t>(opts.n)) %
                           1'000'000'000ull;

  // Set-up, repeated; the first pays pool start-up. A set-up is ~0.1 s,
  // so it takes nine to keep the median steady on a shared host (with
  // five, matrix set-up times spread by 32% across runs).
  constexpr int kSetups = 9;
  std::vector<double> setup_s;
  bool setup_ok = true;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    setup_ok = set_up(plan, 1 + static_cast<std::uint64_t>(i) * 1000) &&
               setup_ok;
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Timed untraced batches. A traced run spends half its time here and
  // replays the same batches traced afterwards.
  const double untraced_s = opts.traced ? opts.seconds / 2 : opts.seconds;
  Cells cells(kCells);
  std::size_t batches = 0;
  const std::int64_t start = now_ns();
  std::vector<double> batch_s;
  std::vector<double> cell_ns;
  do {
    const std::int64_t b0 = now_ns();
    run_batch(plan, batches, cells, cell_ns);
    batch_s.push_back(static_cast<double>(now_ns() - b0) / 1e9);
    ++batches;
  } while (static_cast<double>(now_ns() - start) / 1e9 < untraced_s);
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
  const double peak_mb = peak_rss_mb();
  const std::vector<exp::MatrixCell> untraced =
      finish(plan, batches, std::move(cells));
  const double seeds = static_cast<double>(batches * plan.seeds_per_cell *
                                           kCells);

  // Gates: one per cell verdict, the warm-up cross-check, and (traced)
  // one per traced cell plus the probes.
  std::vector<std::string> fails = verdict_failures(opts.n, verdicts(untraced));
  std::size_t attempted = kCells + 1;
  if (!setup_ok) {
    fails.push_back("warm-up cells differ from exp::run_matrix_cell");
  }

  std::printf("workload=%s n=%d workers=%u seeds=%.0f batches=%zu "
              "seeds_per_cell_per_batch=%zu first_seed=%llu\n",
              opts.workload.c_str(), opts.n, plan.workers, seeds, batches,
              plan.seeds_per_cell,
              static_cast<unsigned long long>(plan.base_seed));
  std::printf("verdicts:");
  for (const auto& v : verdicts(untraced)) std::printf(" %s", v.c_str());
  std::printf("\n");

  // Every batch runs the same number of seeds of every cell, so the median
  // batch time gives the typical throughput, robust to bursts in which the
  // host takes the CPUs away.
  const double batch_seeds =
      static_cast<double>(plan.seeds_per_cell * kCells);
  const double seeds_per_s = batch_seeds / median_of(batch_s);
  const Tail tail = tail_of(cell_ns);
  Result result;
  if (!opts.traced) {
    std::printf("deal_latency_ms_* time one cell call (%zu seeds); the tail "
                "is p%.4f of %zu calls\n",
                plan.seeds_per_cell, tail.percentile, tail.samples);
    MetricValues m;
    m["seeds_per_s"] = seeds_per_s;
    m["deal_latency_ms_iqm"] = interquartile_mean(cell_ns) / 1e6;
    m["deal_latency_ms_tail"] = tail.value / 1e6;
    m["peak_rss_mb"] = peak_mb;
    m["setup_s"] = median_of(setup_s);
    result.add_all(kEndToEndMetrics, m);
  } else {
    workers().reset();
    Cells traced_cells(kCells);
    const std::int64_t t0 = now_ns();
    for (std::size_t b = 0; b < batches; ++b) {
      run_batch_traced(plan, b, traced_cells);
    }
    const double traced_wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    const std::vector<exp::MatrixCell> traced =
        finish(plan, batches, std::move(traced_cells));
    attempted += kCells + 1;
    for (std::size_t c = 0; c < kCells; ++c) {
      if (!(traced[c] == untraced[c])) {
        fails.push_back(std::string("traced cell differs from untraced: ") +
                        exp::protocol_kind_name(traced[c].protocol) + " / " +
                        exp::regime_name(traced[c].regime));
      }
    }

    WorkerStats sum;
    SpanLog spans(0, SpanLog::kDefaultCapacity * 4);
    workers().for_each([&](WorkerStats& w) {
      sum.seed_ns.insert(sum.seed_ns.end(), w.seed_ns.begin(),
                         w.seed_ns.end());
      sum.busy_ns += w.busy_ns;
      for (std::size_t f = 0; f < kProtocols; ++f) {
        sum.run_ns[f] += w.run_ns[f];
        sum.runs[f] += w.runs[f];
      }
      sum.check_ns += w.check_ns;
      sum.events += w.events;
      sum.msgs += w.msgs;
      sum.drops += w.drops;
      sum.trace_events += w.trace_events;
      sum.early_stops += w.early_stops;
      spans.merge(std::move(*w.spans));
    });
    std::int64_t run_ns = 0;
    for (std::int64_t r : sum.run_ns) run_ns += r;

    MetricValues m;
    // The tail is capped at p99, which it reaches from 1001 samples on; a
    // traced sweep records tens of thousands of seeds.
    const Tail seed_tail = tail_of(sum.seed_ns);
    std::printf("exp.seed_us_p99 is p%.4f of %zu seeds\n",
                seed_tail.percentile, seed_tail.samples);
    m["exp.seed_us_p50"] = median_of(sum.seed_ns) / 1e3;
    m["exp.seed_us_p99"] = seed_tail.value / 1e3;
    m["exp.pool_busy_frac"] = static_cast<double>(sum.busy_ns) / 1e9 /
                              (traced_wall_s * plan.workers);
    for (std::size_t f = 0; f < kProtocols; ++f) {
      m[std::string("proto.run_us.") + family_name(kProtocolRows[f])] =
          sum.runs[f] ? static_cast<double>(sum.run_ns[f]) / 1e3 /
                            static_cast<double>(sum.runs[f])
                      : 0;
    }
    m["sim.events_per_seed"] = static_cast<double>(sum.events) / seeds;
    m["sim.events_per_s"] =
        static_cast<double>(sum.events) / (static_cast<double>(run_ns) / 1e9);
    m["net.msgs_per_seed"] = static_cast<double>(sum.msgs) / seeds;
    m["net.drops_per_seed"] = static_cast<double>(sum.drops) / seeds;
    m["props.check_us"] = static_cast<double>(sum.check_ns) / 1e3 / seeds;
    m["props.trace_events_per_seed"] =
        static_cast<double>(sum.trace_events) / seeds;
    m["props.early_stop_frac"] = static_cast<double>(sum.early_stops) / seeds;

    const ProbeResults probes = run_layer_probes(opts.work_dir, &spans);
    if (!probes.error.empty()) fails.push_back("probe: " + probes.error);
    m["crypto.make_keys_us"] = probes.make_keys_us;
    m["crypto.verify_quorum_us"] = probes.verify_quorum_us;
    m["consensus.sim_reference_us"] = probes.sim_reference_us;
    m["consensus.cert_signers"] = probes.cert_signers;
    m["wire.cert_bytes"] = probes.cert_bytes;
    m["wire.cert_roundtrip_us"] = probes.cert_roundtrip_us;
    m["wal.append_us"] = probes.wal_append_us;
    // Time added by tracing the same batches, against the untraced half.
    m["trace.overhead_pct"] = 100.0 * (traced_wall_s / wall_s - 1.0);
    result.add_all(kPerLayerMetrics, m);

    if (!opts.trace_out.empty() && !spans.write_chrome_json(opts.trace_out)) {
      fails.push_back("cannot write " + opts.trace_out);
    }
    std::printf("spans: %zu kept, %llu over the cap, in %s\n", spans.size(),
                static_cast<unsigned long long>(spans.dropped()),
                opts.trace_out.c_str());
    std::error_code ec;
    std::filesystem::remove_all(opts.work_dir, ec);  // the probe journal's dir
  }

  for (const std::string& f : fails) std::fprintf(stderr, "FAIL %s\n", f.c_str());
  std::printf("fail_frac %zu/%zu (gates: cell verdicts against the recorded "
              "table and the paper, warm-up and traced cells against the "
              "untraced ones, probes)\n",
              fails.size(), attempted);
  result.print(fails.empty(), attempted, fails.size());
  return fails.empty() ? 0 : 1;
}

}  // namespace perfbench
