#include "committee.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/inotify.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "consensus/standalone.hpp"
#include "crypto/certificate.hpp"
#include "mix.hpp"
#include "net/node_runtime.hpp"
#include "net/socket_transport.hpp"
#include "net/wal.hpp"
#include "net/wire.hpp"
#include "probes.hpp"
#include "report.hpp"

extern char** environ;

namespace perfbench {

using namespace xcp;

namespace {

// xcp_node's defaults, which the hosted client mirrors.
constexpr int kNotaries = 4;
constexpr long kHeartbeatMs = 50;
constexpr long kPeerTimeoutMs = 600;
constexpr long kWallLimitMs = 15'000;
constexpr long kLingerMs = 300;
// How long the client keeps reading after the last notary exited.
constexpr std::int64_t kExitGraceNs = 100'000'000;

// The default schedule's grid points whose deals may go uncertified today
// (known defect 1: every notary's next redial to the client falls after
// its 300 ms linger). Recorded by probing every point twice at its offset
// and at +/-1.5%: points 22 (~396 ms) and 24 (~476 ms) never certified;
// point 23 (~435 ms) certified 288-300 ms after its evidence, at the edge
// of the linger, so it may go either way.
constexpr std::array<std::size_t, 3> kKnownUncertified = {22, 23, 24};

std::string node_sock(const std::string& dir, int node) {
  return "unix:" + dir + "/node-" + std::to_string(node) + ".sock";
}

/// Starts one notary; returns its pid or -1.
pid_t spawn_notary(const DealPlan& plan, int node) {
  std::vector<std::string> args = {
      plan.node_bin,     "--node-id",  std::to_string(node),
      "--sock-dir",      plan.dir,     "--notaries",
      std::to_string(kNotaries),       "--deal",
      std::to_string(plan.deal_id),    "--seed",
      std::to_string(plan.scenario_seed),
      "--value",         "commit",     "--state-dir",
      plan.dir};
  args.insert(args.end(), plan.notary_extra_args.begin(),
              plan.notary_extra_args.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const std::string log = plan.dir + "/node-" + std::to_string(node) + ".log";
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, plan.node_bin.c_str(), &fa, nullptr, argv.data(),
                  environ);
  posix_spawn_file_actions_destroy(&fa);
  return rc == 0 ? pid : -1;
}

/// The started notary processes of one deal. Reaps them without blocking
/// while the client runs, and kills and reaps any left on destruction, so
/// no process outlives its deal.
class Notaries {
 public:
  Notaries() = default;
  Notaries(const Notaries&) = delete;
  Notaries& operator=(const Notaries&) = delete;
  ~Notaries() { finish(Clock::now()); }

  void add(pid_t pid) {
    pids_.push_back(pid);
    codes_.push_back(-1);
    reaped_.push_back(false);
  }
  std::size_t size() const { return pids_.size(); }

  /// Reaps whatever has exited; true once every notary has.
  bool poll() {
    bool all = true;
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (reaped_[i]) continue;
      int status = 0;
      const pid_t r = ::waitpid(pids_[i], &status, WNOHANG);
      if (r == pids_[i] || r < 0) {
        reaped_[i] = true;
        if (r == pids_[i] && WIFEXITED(status)) codes_[i] = WEXITSTATUS(status);
      } else {
        all = false;
      }
    }
    return all;
  }

  /// Waits for every notary until `deadline`, then kills the rest. Returns
  /// each exit code (-1 for killed or abnormal exits).
  std::vector<int> finish(Clock::time_point deadline) {
    while (!poll() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (reaped_[i]) continue;
      ::kill(pids_[i], SIGKILL);
      int status = 0;
      ::waitpid(pids_[i], &status, 0);
      reaped_[i] = true;
    }
    return codes_;
  }

 private:
  std::vector<pid_t> pids_;
  std::vector<int> codes_;
  std::vector<bool> reaped_;
};

/// Watches a deal directory from outside, with inotify, for writes to the
/// notaries' journals, and keeps the time of each notary's last one. A
/// notary's last journal write is its decide record: the workload does not
/// pass --journal-compact, and nothing else is journaled after a decision.
/// So the last write is when the notary journaled its decision, just
/// before that record's fdatasync. A thread blocks on the watch so each
/// write is timed when it happens, not when the client next polls.
class JournalWatch {
 public:
  explicit JournalWatch(const std::string& dir)
      : last_ns_(kNotaries, -1) {
    fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ < 0 || ::inotify_add_watch(fd_, dir.c_str(), IN_MODIFY) < 0 ||
        ::pipe2(stop_, O_CLOEXEC) != 0) {
      close_fds();
      throw std::runtime_error("cannot watch " + dir);
    }
    thread_ = std::thread([this] { loop(); });
  }
  JournalWatch(const JournalWatch&) = delete;
  JournalWatch& operator=(const JournalWatch&) = delete;
  ~JournalWatch() {
    stop();
    close_fds();
  }

  /// Stops watching; returns each notary's last journal write (now_ns
  /// clock; -1 for none).
  const std::vector<std::int64_t>& stop() {
    if (thread_.joinable()) {
      const char byte = 0;
      while (::write(stop_[1], &byte, 1) < 0 && errno == EINTR) {
      }
      thread_.join();
    }
    return last_ns_;
  }

 private:
  void loop() {
    alignas(inotify_event) char buf[4096];
    for (;;) {
      pollfd fds[2] = {{fd_, POLLIN, 0}, {stop_[0], POLLIN, 0}};
      if (::poll(fds, 2, -1) < 0 && errno != EINTR) return;
      const std::int64_t now = now_ns();
      if (fds[0].revents & POLLIN) {
        ssize_t n;
        while ((n = ::read(fd_, buf, sizeof buf)) > 0) {
          for (ssize_t i = 0; i < n;) {
            const auto* ev = reinterpret_cast<const inotify_event*>(buf + i);
            record(ev->len ? ev->name : "", now);
            i += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
          }
        }
      }
      if (fds[1].revents & POLLIN) return;
    }
  }

  void close_fds() {
    for (int fd : {fd_, stop_[0], stop_[1]}) {
      if (fd >= 0) ::close(fd);
    }
  }

  void record(const std::string& name, std::int64_t now) {
    for (int node = 0; node < kNotaries; ++node) {
      if (name == "node-" + std::to_string(node) + ".wal") {
        last_ns_[static_cast<std::size_t>(node)] = now;
      }
    }
  }

  int fd_ = -1;
  int stop_[2] = {-1, -1};
  std::vector<std::int64_t> last_ns_;  // written by thread_ until stop()
  std::thread thread_;
};

/// The client node, as tools/xcp_node.cpp builds it: hosts every
/// participant, sends the evidence, waits for a verified certificate at
/// every participant, then lingers to serve catch-up requests.
///
/// One departure from xcp_node's client: once every notary has exited (and
/// a grace period for frames already in the socket buffers has passed) no
/// certificate can arrive any more, so the client stops waiting instead of
/// sitting out the rest of its wall limit. Returns when the evidence was
/// handed to the network (now_ns clock; -1 if never).
std::int64_t run_client(const DealPlan& plan,
                        const consensus::StandaloneCommittee& sc,
                        std::int64_t arrival_ns, Notaries& notaries,
                        DealResult& out, SpanLog* spans,
                        std::uint64_t deal_span) {
  const int client_node = kNotaries;
  crypto::KeyRegistry keys = sc.make_keys();
  auto config = sc.make_config(keys);

  sim::Simulator sim(sc.seed ^ (0x9e3779b97f4a7c15ull *
                                (static_cast<std::uint64_t>(client_node) + 1)));
  net::Network network(sim, net::DelayModel::synchronous(Duration::millis(1)));
  net::SocketTransportOptions topts;
  topts.heartbeat_interval = std::chrono::milliseconds(kHeartbeatMs);
  topts.peer_timeout = std::chrono::milliseconds(kPeerTimeoutMs);
  topts.jitter_seed = sc.seed;
  topts.wire.roster = &config->members;
  net::SocketTransport transport(static_cast<std::uint32_t>(client_node),
                                 node_sock(plan.dir, client_node), topts);
  for (int node = 0; node < kNotaries; ++node) {
    transport.add_peer(static_cast<std::uint32_t>(node),
                       node_sock(plan.dir, node));
  }
  for (int i = 0; i < kNotaries; ++i) {
    transport.map_pid(sc.notary_pid(i), static_cast<std::uint32_t>(i));
  }
  for (int i = 0; i < sc.participant_count(); ++i) {
    transport.map_pid(sim::ProcessId(static_cast<std::uint32_t>(i)),
                      static_cast<std::uint32_t>(client_node));
  }
  net::NodeRuntime runtime(sim, network, transport);

  std::vector<std::int64_t> hello_ns(kNotaries, -1);
  std::set<std::uint32_t> pending_catchup;
  std::function<bool(std::uint32_t)> respond;
  auto serve_catchups = [&] {
    if (!respond) return;
    for (auto it = pending_catchup.begin(); it != pending_catchup.end();) {
      it = respond(*it) ? pending_catchup.erase(it) : std::next(it);
    }
  };
  transport.set_catchup_handler(
      [&](std::uint32_t node, std::uint64_t instance, std::uint64_t) {
        if (instance != config->instance) return;
        pending_catchup.insert(node);
        serve_catchups();
      });
  transport.set_peer_status_handler(
      [&](std::uint32_t node, std::uint64_t status) {
        if (node < hello_ns.size() && hello_ns[node] < 0) {
          hello_ns[node] = now_ns();
        }
        if (net::hello_status_recovered(status) &&
            net::hello_status_tier(status) < 2) {
          pending_catchup.insert(node);
          serve_catchups();
        }
      });

  std::vector<consensus::DecisionCollector*> collectors;
  for (int i = 0; i < sc.participant_count(); ++i) {
    auto& c = sim.spawn<consensus::DecisionCollector>(
        "participant_" + std::to_string(i), config, keys);
    network.attach(c);
    collectors.push_back(&c);
  }
  respond = [&](std::uint32_t node) {
    if (!collectors[0]->done()) return false;
    if (static_cast<int>(node) < kNotaries) {
      auto body = net::make_body<consensus::DecisionMsg>();
      body->cert = collectors[0]->cert();
      network.send(collectors[0]->id(), sc.notary_pid(static_cast<int>(node)),
                   net::kinds::bft_decision, body);
    }
    return true;
  };

  auto msgs = sc.client_messages(keys);
  std::int64_t sent_ns = -1;
  sim.schedule_at(TimePoint::origin(), [&] {
    sent_ns = now_ns();
    for (const auto& msg : msgs) {
      network.send(msg.from, msg.to, msg.kind, msg.body);
    }
  });

  std::int64_t dialed_ns = -1;
  std::int64_t first_cert_ns = -1;
  std::int64_t done_ns = -1;
  std::int64_t all_exited_ns = -1;
  // The done predicate runs after every simulator slice: it doubles as the
  // observation point for the transport's link state.
  const bool all_done = runtime.run(
      std::chrono::milliseconds(kWallLimitMs), [&] {
        const std::int64_t now = now_ns();
        if (all_exited_ns < 0 && notaries.poll()) all_exited_ns = now;
        if (dialed_ns < 0) {
          bool up = true;
          for (int i = 0; i < kNotaries; ++i) {
            up = up && transport.peer_connected(static_cast<std::uint32_t>(i));
          }
          if (up) dialed_ns = now;
        }
        bool all_certified = true;
        for (const auto* c : collectors) {
          if (c->done()) {
            if (first_cert_ns < 0) first_cert_ns = now;
          } else {
            all_certified = false;
          }
        }
        if (all_certified) done_ns = now;
        return all_certified ||
               (all_exited_ns >= 0 && now - all_exited_ns > kExitGraceNs);
      });
  out.certified = all_done && done_ns >= 0 && sent_ns >= 0;
  if (out.certified) {
    out.latency_ms = ns_to_ms(done_ns - sent_ns);
    out.first_cert_ms = ns_to_ms(first_cert_ns - sent_ns);
    out.client_dial_ms = dialed_ns < 0 ? 0 : ns_to_ms(dialed_ns - arrival_ns);
    if (spans) {
      spans->close(spans->open(), "client.request_to_cert", sent_ns, done_ns,
                   deal_span, plan.ordinal);
      spans->close(spans->open(), "net.first_cert", sent_ns, first_cert_ns,
                   deal_span, plan.ordinal);
      if (dialed_ns >= 0) {
        spans->close(spans->open(), "net.client_dial", arrival_ns, dialed_ns,
                     deal_span, plan.ordinal);
      }
    }

    transport.set_hello_status(net::hello_status_word(2, false));
    serve_catchups();
    const std::int64_t t = now_ns();
    runtime.linger(std::chrono::milliseconds(kLingerMs));
    if (spans) {
      spans->close(spans->open(), "client.linger", t, now_ns(), deal_span,
                   plan.ordinal);
    }

    // The notaries' dials back to the client often land after it is
    // certified (the first one to arrive delivers the certificate), so the
    // dial-back time is read after the linger. -1 = some notary never
    // dialed back while the client was up.
    const bool all_hellos =
        std::all_of(hello_ns.begin(), hello_ns.end(),
                    [](std::int64_t t) { return t >= 0; });
    out.dialback_ms =
        all_hellos
            ? ns_to_ms(std::max(*std::max_element(hello_ns.begin(),
                                                  hello_ns.end()),
                                sent_ns) -
                       sent_ns)
            : -1;

    consensus::CommitteeOutcome outcome;
    outcome.value = collectors[0]->value();
    outcome.cert = collectors[0]->cert();
    outcome.cert_valid = crypto::verify_quorum_cert(
        keys, outcome.cert, config->members,
        static_cast<std::size_t>(config->quorum()));
    out.cert_valid = outcome.cert_valid;
    out.outcome = outcome.canonical();
  }
  const net::SocketTransportStats& st = transport.stats();
  out.frames = st.frames_sent + st.frames_received;
  out.dial_attempts = st.dial_attempts;
  out.reconnects = st.reconnects;
  out.sends_dropped = st.sends_dropped;
  return sent_ns;
}

}  // namespace

double DealSchedule::offset_ms(std::size_t point, double u) const {
  const double frac = (static_cast<double>(point) + 0.5 + jitter * u) /
                      static_cast<double>(points);
  return lo_ms * std::pow(hi_ms / lo_ms, frac);
}

DealSchedule::Slot DealSchedule::slot(std::size_t deal) const {
  const std::size_t k = static_cast<std::size_t>(std::max(1, points));
  const std::size_t cycle = deal / k;
  // Seeded Fisher-Yates order of the points for this cycle.
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::uint64_t state = mix(seed, 0x6f66667365747321ull + cycle);
  for (std::size_t i = k - 1; i > 0; --i) {
    std::swap(order[i], order[next_u64(state) % (i + 1)]);
  }
  Slot s;
  s.point = order[deal % k];
  s.offset_ms = offset_ms(s.point, unit_double(mix(state, s.point)) - 0.5);
  return s;
}

bool uncertified_expected(std::size_t point) {
  return std::find(kKnownUncertified.begin(), kKnownUncertified.end(),
                   point) != kKnownUncertified.end();
}

bool deal_wrong(const DealResult& r, bool uncertified_ok) {
  if (!r.error.empty()) return true;
  if (!r.certified && !uncertified_ok) return true;
  if (r.certified && (!r.cert_valid || r.outcome != r.reference)) return true;
  return std::any_of(r.notary_exits.begin(), r.notary_exits.end(),
                     [](int code) { return code != 0; });
}

bool deal_failed(const DealResult& r) {
  return !r.certified || deal_wrong(r, true);
}

DealResult run_deal(const DealPlan& plan, SpanLog* spans) {
  DealResult out;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(plan.dir, ec);
  fs::create_directories(plan.dir, ec);
  if (ec) {
    out.error = "cannot create " + plan.dir + ": " + ec.message();
    return out;
  }

  consensus::StandaloneCommittee sc;
  sc.seed = plan.scenario_seed;
  sc.deal_id = plan.deal_id;
  sc.notaries = kNotaries;
  sc.evidence = consensus::Value::kCommit;

  // The in-sim reference the socket outcome must equal; it runs before the
  // notaries start, outside the latency window.
  out.reference = consensus::run_standalone_sim(sc).canonical();

  const std::uint64_t deal_span = spans ? spans->open() : 0;
  std::optional<JournalWatch> journals;
  try {
    journals.emplace(plan.dir);
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  const std::int64_t deal_start = now_ns();
  Notaries notaries;
  for (int node = 0; node < kNotaries; ++node) {
    const pid_t pid = spawn_notary(plan, node);
    if (pid < 0) {
      out.error = "posix_spawn failed for " + plan.node_bin;
      break;
    }
    notaries.add(pid);
  }
  const std::int64_t spawned = now_ns();
  out.spawn_ms = ns_to_ms(spawned - deal_start);
  const Clock::time_point reap_deadline =
      Clock::now() + std::chrono::milliseconds(kWallLimitMs + 2000);
  std::int64_t sent_ns = -1;

  if (out.error.empty()) {
    std::this_thread::sleep_until(
        Clock::now() + std::chrono::nanoseconds(static_cast<std::int64_t>(
                           plan.offset_ms * 1e6) -
                       (now_ns() - deal_start)));
    const std::int64_t arrival = now_ns();
    try {
      sent_ns = run_client(plan, sc, arrival, notaries, out, spans, deal_span);
    } catch (const std::exception& e) {
      out.error = std::string("client: ") + e.what();
    }
  }
  const std::int64_t reap_start = now_ns();
  out.notary_exits = notaries.finish(reap_deadline);
  const std::int64_t reaped = now_ns();

  // The decision path: evidence -> the last notary's decide record.
  const std::vector<std::int64_t>& decided = journals->stop();
  const std::int64_t last_decided =
      *std::max_element(decided.begin(), decided.end());
  const bool all_decided =
      sent_ns >= 0 && std::all_of(decided.begin(), decided.end(),
                                  [&](std::int64_t t) { return t > sent_ns; });
  const bool exits_clean =
      std::all_of(out.notary_exits.begin(), out.notary_exits.end(),
                  [](int code) { return code == 0; });
  if (!all_decided && exits_clean && out.error.empty()) {
    // Every notary exits 0 only once decided, so its decide record must
    // have been seen; without it the decision time cannot be trusted.
    out.error = "no decide record seen in some notary's journal";
  }
  if (all_decided) {
    out.decision_ms = ns_to_ms(last_decided - sent_ns);
    if (spans) {
      spans->close(spans->open(), "notary.decisions_journaled", sent_ns,
                   last_decided, deal_span, plan.ordinal);
    }
  }

  if (plan.traced) {
    double open_ns = 0;
    for (int node = 0; node < kNotaries; ++node) {
      const std::string path =
          plan.dir + "/node-" + std::to_string(node) + ".wal";
      if (!fs::exists(path)) continue;
      const std::int64_t w0 = now_ns();
      net::WriteAheadLog wal(path);
      const net::WalRecoverResult rec = wal.open();
      const std::int64_t w1 = now_ns();
      open_ns += static_cast<double>(w1 - w0);
      out.wal_records += static_cast<double>(rec.records.size());
      out.wal_bytes += static_cast<double>(rec.valid_bytes);
      if (spans) {
        spans->close(spans->open(), "wal.open", w0, w1, deal_span,
                     plan.ordinal);
      }
    }
    const double live = static_cast<double>(notaries.size());
    if (live > 0) {
      out.wal_open_us = open_ns / live / 1e3;
      out.wal_records /= live;
      out.wal_bytes /= live;
    }
  }
  if (spans) {
    spans->close(spans->open(), "proc.spawn", deal_start, spawned, deal_span,
                 plan.ordinal);
    spans->close(spans->open(), "proc.reap", reap_start, reaped, deal_span,
                 plan.ordinal);
    spans->close(deal_span, "deal", deal_start, reaped, 0, plan.ordinal);
  }
  if (!deal_failed(out)) fs::remove_all(plan.dir, ec);
  return out;
}

namespace {

/// Per-deal observations folded for the metrics.
struct DealSamples {
  std::vector<double> latency_ms, decision_ms, spawn_ms, client_dial_ms,
      dialback_ms, first_cert_ms, frames, dial_attempts, reconnects,
      sends_dropped, wal_open_us, wal_records, wal_bytes;
  std::size_t exits_nonzero = 0;
  std::size_t certified = 0;

  void add(const DealResult& r) {
    for (int code : r.notary_exits) exits_nonzero += code != 0 ? 1 : 0;
    // A deal that never certified missed every latency limit: it counts at
    // the client's wall limit.
    latency_ms.push_back(r.certified ? r.latency_ms
                                     : static_cast<double>(kWallLimitMs));
    // Known-uncertified deals decided too; only the delivery failed.
    if (r.decision_ms >= 0) decision_ms.push_back(r.decision_ms);
    if (!r.certified) return;
    ++certified;
    spawn_ms.push_back(r.spawn_ms);
    client_dial_ms.push_back(r.client_dial_ms);
    if (r.dialback_ms >= 0) dialback_ms.push_back(r.dialback_ms);
    first_cert_ms.push_back(r.first_cert_ms);
    frames.push_back(static_cast<double>(r.frames));
    dial_attempts.push_back(static_cast<double>(r.dial_attempts));
    reconnects.push_back(static_cast<double>(r.reconnects));
    sends_dropped.push_back(static_cast<double>(r.sends_dropped));
    wal_open_us.push_back(r.wal_open_us);
    wal_records.push_back(r.wal_records);
    wal_bytes.push_back(r.wal_bytes);
  }
};

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

int run_committee_workload(const CommitteeOptions& opts) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(opts.work_dir, ec);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t wrong = 0;
  auto judge = [&](const DealResult& r, const DealPlan& plan,
                   bool uncertified_ok) {
    ++attempted;
    if (!deal_failed(r)) return;
    ++failed;
    const bool fatal = deal_wrong(r, uncertified_ok);
    wrong += fatal ? 1 : 0;
    std::fprintf(stderr,
                 "%s deal %llu offset=%.1fms certified=%d valid=%d "
                 "outcome='%s' reference='%s' error='%s' exits:",
                 fatal ? "FAIL" : "UNCERTIFIED",
                 static_cast<unsigned long long>(plan.deal_id), plan.offset_ms,
                 r.certified, r.cert_valid, r.outcome.c_str(),
                 r.reference.c_str(), r.error.c_str());
    for (int code : r.notary_exits) std::fprintf(stderr, " %d", code);
    std::fprintf(stderr, fatal ? " (logs kept in %s)\n" : "\n",
                 plan.dir.c_str());
  };
  auto plan_for = [&](std::uint64_t deal_id, std::uint64_t scenario_seed,
                      double offset_ms, bool traced) {
    DealPlan plan;
    plan.node_bin = opts.node_bin;
    plan.dir = opts.work_dir + "/warm" + std::to_string(deal_id);
    plan.deal_id = deal_id;
    plan.scenario_seed = scenario_seed;
    plan.offset_ms = offset_ms;
    plan.traced = traced;
    return plan;
  };

  // Set-up, repeated: the in-sim reference plus one warm-up deal on a
  // fixed scenario. Its arrival (700 ms) is in the flat part of the
  // latency curve, so set-up time does not jump with dial races.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const DealPlan plan = plan_for(1 + static_cast<std::uint64_t>(i), 7, 700,
                                   false);
    const std::int64_t t0 = now_ns();
    judge(run_deal(plan, nullptr), plan, false);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Timed deals, in whole cycles of the schedule so every run covers the
  // arrival window evenly. A traced run visits every other grid point,
  // first untraced and then traced, so the two halves time the same deals
  // and their difference is the tracing overhead.
  DealSchedule schedule;
  schedule.seed = opts.seed;
  const std::size_t cycle = static_cast<std::size_t>(schedule.points);
  SpanLog spans;
  DealSamples untraced, traced;
  std::size_t deal = 0;
  double untraced_wall_s = 0;
  const std::int64_t start = now_ns();
  const std::size_t stride = opts.traced ? 2 : 1;
  auto run_cycles = [&](double until_s, bool trace, DealSamples& into) {
    const std::int64_t begin = now_ns();
    std::size_t cycles = 0;
    for (;;) {
      // Start another whole cycle while at least half of one still fits.
      const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
      const double per_cycle =
          cycles ? static_cast<double>(now_ns() - begin) / 1e9 /
                       static_cast<double>(cycles)
                 : 0;
      if (cycles > 0 && elapsed + per_cycle / 2 > until_s) break;
      for (std::size_t i = 0; i < cycle; ++i, ++deal) {
        const DealSchedule::Slot slot = schedule.slot(deal);
        if (slot.point % stride != 0) continue;
        DealPlan plan = plan_for(100 + slot.point, 7 + slot.point,
                                 slot.offset_ms, trace);
        plan.dir = opts.work_dir + "/d" + std::to_string(deal);
        plan.ordinal = deal;
        const DealResult r = run_deal(plan, trace ? &spans : nullptr);
        std::printf("deal %llu offset_ms=%.1f certified=%d latency_ms=%.3f "
                    "decision_ms=%.3f dial_attempts=%llu\n",
                    static_cast<unsigned long long>(plan.deal_id),
                    plan.offset_ms, r.certified ? 1 : 0, r.latency_ms,
                    r.decision_ms,
                    static_cast<unsigned long long>(r.dial_attempts));
        judge(r, plan, uncertified_expected(slot.point));
        into.add(r);
      }
      ++cycles;
    }
    return static_cast<double>(now_ns() - begin) / 1e9;
  };
  untraced_wall_s =
      run_cycles(opts.traced ? opts.seconds / 2 : opts.seconds, false, untraced);
  const double peak_mb = peak_rss_mb();

  std::printf("workload=committee deals=%zu (timed %zu, window %.0f-%.0f ms, "
              "%d points)\n",
              attempted, untraced.latency_ms.size(), schedule.lo_ms,
              schedule.hi_ms, schedule.points);

  Result result;
  const Tail tail = tail_of(untraced.latency_ms);
  if (!opts.traced) {
    std::printf("deal_latency_ms_tail is p%.2f of %zu deals%s\n",
                tail.percentile, tail.samples,
                tail.supported ? "" : " (too few deals: the maximum)");
    MetricValues m;
    m["seeds_per_s"] = static_cast<double>(untraced.certified) /
                       untraced_wall_s;
    m["deal_latency_ms_iqm"] = interquartile_mean(untraced.latency_ms);
    m["deal_latency_ms_tail"] = tail.value;
    m["peak_rss_mb"] = peak_mb;
    m["setup_s"] = median_of(setup_s);
    result.add_all(kEndToEndMetrics, m);
  } else {
    run_cycles(opts.seconds, true, traced);
    const ProbeResults probes = run_layer_probes(opts.work_dir, &spans);
    ++attempted;
    if (!probes.error.empty()) {
      ++failed;
      ++wrong;
      std::fprintf(stderr, "FAIL probe: %s\n", probes.error.c_str());
    }
    MetricValues m;
    m["crypto.make_keys_us"] = probes.make_keys_us;
    m["crypto.verify_quorum_us"] = probes.verify_quorum_us;
    m["consensus.sim_reference_us"] = probes.sim_reference_us;
    m["consensus.cert_signers"] = probes.cert_signers;
    // Timed on the untraced half: tracing adds client-side spans only.
    m["consensus.decision_ms_p25"] = quantile_of(untraced.decision_ms, 0.25);
    m["wire.cert_bytes"] = probes.cert_bytes;
    m["wire.cert_roundtrip_us"] = probes.cert_roundtrip_us;
    m["wal.append_us"] = probes.wal_append_us;
    m["net.client_dial_ms"] = median_of(traced.client_dial_ms);
    m["net.dialback_ms"] = median_of(traced.dialback_ms);
    m["net.first_cert_ms"] = median_of(traced.first_cert_ms);
    m["net.frames"] = mean_of(traced.frames);
    m["net.dial_attempts"] = mean_of(traced.dial_attempts);
    m["net.reconnects"] = mean_of(traced.reconnects);
    m["net.sends_dropped"] = mean_of(traced.sends_dropped);
    m["wal.open_us"] = median_of(traced.wal_open_us);
    m["wal.records_per_notary"] = mean_of(traced.wal_records);
    m["wal.bytes_per_notary"] = mean_of(traced.wal_bytes);
    m["proc.spawn_ms"] = median_of(traced.spawn_ms);
    m["proc.notary_exit_nonzero"] =
        static_cast<double>(untraced.exits_nonzero + traced.exits_nonzero);
    // Latency added by tracing, against the untraced half of this run.
    const double iqm = interquartile_mean(untraced.latency_ms);
    m["trace.overhead_pct"] =
        iqm > 0 ? 100.0 * (interquartile_mean(traced.latency_ms) / iqm - 1.0)
                : 0;
    result.add_all(kPerLayerMetrics, m);
    if (!opts.trace_out.empty() && !spans.write_chrome_json(opts.trace_out)) {
      ++attempted;
      ++failed;
      ++wrong;
      std::fprintf(stderr, "FAIL cannot write %s\n", opts.trace_out.c_str());
    }
  }
  std::printf("fail_frac %zu/%zu (deals not certified, differing from "
              "run_standalone_sim, failing verify_quorum_cert, or with a "
              "notary exiting nonzero); %zu of them fail the run (all but "
              "uncertified deals at the recorded points)\n",
              failed, attempted, wrong);
  result.print(wrong == 0, attempted, failed);
  if (wrong == 0) fs::remove_all(opts.work_dir, ec);
  return wrong == 0 ? 0 : 1;
}

}  // namespace perfbench
