// lsd_perfbench — the browsing-session benchmark.
//
//   lsd_perfbench --workload browse|write|mixed --seed N --seconds S
//                 --trace 0|1 [--dir DIR]
//
// Each workload generates a seeded store (generator.h), snapshots it,
// opens it durably in an in-process SharedStore (WAL at
// WalSync::kFlush, background compaction on), starts an LsdServer on a
// loopback port, and drives it from closed-loop client threads that
// send only generated command lines:
//
//   browse  3 text sessions replaying browsing traces (read-only)
//   write   4 text writer sessions: single-fact asserts, 1 in 8 a retract
//           of a fact the same writer asserted earlier
//   mixed   3 binary browsing sessions (window 1), one of which also
//           poses, reads and clears hypothetical retractions, plus 1
//           binary writer sending single-fact kMutation asserts
//
// --trace 0 measures the end-to-end metrics with no tracing and runs
// the output checks. --trace 1 runs the same load recording one client
// span per request, then replays the work at three levels — TCP,
// in-process ServerSession::Execute, and direct library calls on the
// pinned epoch — with and without span recording (the difference is
// the tracing overhead), and replays commits stage by stage, to report
// the per-layer metrics. The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Human-readable lines before it give every metric with its unit and
// sample count, the failure counts, and the run's stamp (build type,
// hardware concurrency, seed, threads and connections).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "core/loose_db.h"
#include "generator.h"
#include "server/server.h"
#include "server/session.h"
#include "server/shared_store.h"
#include "store/persistence.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {
namespace {

#ifdef NDEBUG
constexpr bool kReleaseBuild = true;
#else
constexpr bool kReleaseBuild = false;
#endif

// ---- Configuration --------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_build/run";
};

// Set-ups per untraced run: at least kMinSetups, and more while they
// have taken less than kSetupBudget in all (small stores set up in
// well under a second). setup_s is their median. The first one serves
// the load; the others run after it, so that the engine under load
// shares the heap with no earlier engine's leftovers.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 7;
constexpr std::chrono::seconds kSetupBudget{2};

struct WorkloadConfig {
  std::string name;
  size_t facts = 25'000;  // asserted entity-to-entity facts
  int browsers = 0;
  Wire browse_wire = Wire::kText;
  size_t hypo_every = 0;  // steps between hypothetical cycles; 0 = none
  int hypo_sessions = 0;  // browsers that pose hypotheticals
  int writers = 0;
  Wire write_wire = Wire::kText;
  int retract_every = 0;  // 1 op in N is a retract; 0 = none
  int connections() const { return browsers + writers; }
};

std::optional<WorkloadConfig> ConfigFor(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  if (name == "browse") {
    c.facts = 200'000;
    c.browsers = 3;
  } else if (name == "write") {
    c.writers = 4;
    c.retract_every = 8;
  } else if (name == "mixed") {
    c.browsers = 3;
    c.browse_wire = Wire::kBinary;
    c.hypo_every = 16;
    c.hypo_sessions = 1;
    c.writers = 1;
    c.write_wire = Wire::kBinary;
  } else {
    return std::nullopt;
  }
  return c;
}

// ---- Small helpers --------------------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// Nearest-rank percentile of an unsorted sample (copied, so callers
// keep their order). 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}
double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double part, double whole) {
  return whole == 0 ? 0 : part / whole;
}

// Host CPU time stolen by the hypervisor so far, in seconds (the
// eighth field of /proc/stat's cpu line, in clock ticks).
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {0};
  in >> cpu;
  for (double& f : fields) in >> f;
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return ticks > 0 ? fields[7] / static_cast<double>(ticks) : 0;
}

// A /proc/self/status field in MiB ("VmHWM:" peak, "VmRSS:" current).
double StatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Normalizes a response body for comparison: text payloads always end
// in a newline.
std::string Normalized(std::string body) {
  if (!body.empty() && body.back() != '\n') body += '\n';
  return body;
}

// What ServerSession::Execute's outcome looks like on the text wire.
std::string ExpectedReply(const lsd::StatusOr<std::string>& out) {
  if (out.ok()) return Normalized(*out);
  std::string text = out.status().ToString();
  return text.substr(0, text.find('\n'));
}

struct Metric {
  std::string name, unit;
  double value = 0;
  size_t samples = 0;  // 0 for counters and ratios of counters
};

// ---- The running system ---------------------------------------------------

struct System {
  Store gen;
  // One browsing trace per browser (one for a workload without any, for
  // the traced run's read replay).
  std::vector<std::vector<Step>> traces;
  // Resident set with the generated inputs in memory and the engine not
  // yet opened: the benchmark's own share of the process.
  double baseline_rss_mb = 0;
  std::string prefix;
  std::unique_ptr<lsd::SharedStore> store;
  std::unique_ptr<lsd::LsdServer> server;
  uint16_t port = 0;
  // Closure shape of the bootstrap epoch.
  size_t asserted = 0, derived = 0, candidates = 0;
};

void StopSystem(System* sys) {
  if (sys->server != nullptr) sys->server->Stop();
  sys->server.reset();
  sys->store.reset();
}

// generate (store and traces) + snapshot + OpenDurable (recover +
// warm) + compaction + server start + the first request's reply.
bool SetUp(const WorkloadConfig& cfg, uint64_t seed, const std::string& dir,
           System* sys, std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  sys->gen = GenerateStore(cfg.facts, seed);
  sys->prefix = dir + "/store";
  {
    lsd::LooseDb db;
    LoadInto(sys->gen, &db);
    lsd::Status s = db.Save(sys->prefix);
    if (!s.ok()) {
      *error = "snapshot: " + s.ToString();
      return false;
    }
  }
  // Only the indexes of the generated store are used from here on.
  std::vector<Triple>().swap(sys->gen.facts);
  sys->traces.clear();
  for (int b = 0; b < std::max(cfg.browsers, 1); ++b) {
    sys->traces.push_back(BrowseTrace(
        sys->gen, seed, static_cast<size_t>(b), 60'000,
        b < cfg.hypo_sessions ? cfg.hypo_every : 0));
  }
  // Hand the freed memory back to the system, so that the resident set
  // above this baseline is the engine's.
  ::malloc_trim(0);
  sys->baseline_rss_mb = StatusMb("VmRSS:");
  sys->store = std::make_unique<lsd::SharedStore>();
  lsd::SharedStoreDurability durability;
  durability.sync = lsd::WalSync::kFlush;
  lsd::Status s = sys->store->OpenDurable(sys->prefix, durability);
  if (!s.ok()) {
    *error = "OpenDurable: " + s.ToString();
    return false;
  }
  // A lower overlay trigger than the default, so that merges run several
  // times within one run of `mixed`. The timed load of `write` stays
  // below it; a lower trigger there made its retract latency jump
  // between two levels (about 0.33 and 0.52 s) from run to run.
  lsd::CompactionOptions compaction;
  compaction.overlay_ratio = 0.02;
  s = sys->store->EnableCompaction(compaction);
  if (!s.ok()) {
    *error = "EnableCompaction: " + s.ToString();
    return false;
  }
  lsd::ServerOptions options;
  options.port = 0;
  sys->server = std::make_unique<lsd::LsdServer>(sys->store.get(), options);
  s = sys->server->Start();
  if (!s.ok()) {
    *error = "server start: " + s.ToString();
    return false;
  }
  sys->port = sys->server->port();
  Client ping(sys->port, Wire::kText);
  if (!ping.Connect()) {
    *error = "cannot connect to the server";
    return false;
  }
  Reply pong = ping.Request("ping");
  if (!pong.ok || pong.body != "pong\n") {
    *error = "ping failed: " + pong.body;
    return false;
  }
  lsd::EpochPtr tip = sys->store->snapshot();
  sys->asserted = tip->db().store().size();
  if (const lsd::ClosureStats* cs = tip->db().closure_stats()) {
    sys->derived = cs->derived_facts;
    sys->candidates = cs->candidate_facts;
  }
  return true;
}

// ---- Load ---------------------------------------------------------------

// Per-connection tallies. Latencies are split by request class.
struct ConnResult {
  uint64_t sent = 0, succeeded = 0, failed = 0, governance = 0;
  uint64_t reconnects = 0;
  std::vector<double> read_ms, hypo_ms, commit_ms;
  // Subsets of read_ms / commit_ms: relationship probes, retracts.
  std::vector<double> probe_ms, retract_ms;
  // Browsers: the lines sent and the replies received, for the
  // in-process replay check (a prefix of the session).
  std::vector<std::pair<std::string, std::string>> replies;
  // Writers: facts whose assert / retract was acked.
  std::vector<Triple> acked_asserts, acked_retracts;
  double worst_ms = 0;  // slowest request and its line
  std::string worst_line;
  std::vector<std::string> errors;  // correctness failures (first few)
  void Error(std::string e) {
    if (errors.size() < 5) errors.push_back(std::move(e));
  }
};

bool IsGovernanceError(const std::string& body) {
  return body.find("DeadlineExceeded") != std::string::npos ||
         body.find("ResourceExhausted") != std::string::npos ||
         body.find("Cancelled") != std::string::npos;
}

struct LoadControl {
  Clock::time_point start, deadline;
  // Trace runs record one client span per request during the load; the
  // per-layer spans come from the replays after it.
  bool trace = false;
  Tracer* tracer = nullptr;
  size_t replay_prefix = 0;  // browser replies kept for the replay check
};

const char* SpanName(Step::Kind kind) {
  switch (kind) {
    case Step::Kind::kRead:
      return "tcp.read";
    case Step::Kind::kHypoRead:
      return "tcp.hypo_read";
    case Step::Kind::kHypo:
      return "tcp.hypo";
    case Step::Kind::kCommit:
      return "tcp.commit";
  }
  return "tcp";
}

// Accounts one reply. Returns false when the connection must be
// re-established (the request is not resent).
bool Account(ConnResult* r, const LoadControl& ctl, Tracer::Log* log,
             Step::Kind cls, bool signature, Clock::time_point t0,
             Clock::time_point t1, const Reply& reply, uint64_t request_id) {
  ++r->sent;
  const double ms = Ms(t1 - t0);
  if (ctl.trace) log->Add(SpanName(cls), t0, t1, 0, request_id);
  if (reply.transport) {
    ++r->failed;
    return false;
  }
  if (!reply.ok) {
    ++r->failed;
    if (IsGovernanceError(reply.body)) ++r->governance;
    return true;
  }
  ++r->succeeded;
  switch (cls) {
    case Step::Kind::kRead:
      r->read_ms.push_back(ms);
      if (signature) r->probe_ms.push_back(ms);
      break;
    case Step::Kind::kHypoRead:
      r->hypo_ms.push_back(ms);
      break;
    case Step::Kind::kCommit:
      r->commit_ms.push_back(ms);
      if (signature) r->retract_ms.push_back(ms);
      break;
    case Step::Kind::kHypo:
      break;
  }
  return true;
}

void Reconnect(Client* client, ConnResult* r,
               const LoadControl& ctl) {
  while (Clock::now() < ctl.deadline) {
    if (client->Connect()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  r->reconnects = client->reconnects();
}

void RunBrowser(uint16_t port, Wire wire, const std::vector<Step>& trace,
                const LoadControl& ctl, ConnResult* r) {
  Tracer::Log* log = ctl.trace ? ctl.tracer->NewLog() : nullptr;
  Client client(port, wire);
  if (!client.Connect()) {
    r->Error("browser could not connect");
    return;
  }
  uint64_t request_id = 0;
  for (size_t i = 0; Clock::now() < ctl.deadline; ++i) {
    const Step& step = trace[i % trace.size()];
    const Clock::time_point t0 = Clock::now();
    Reply reply = client.Request(step.line);
    const Clock::time_point t1 = Clock::now();
    if (Ms(t1 - t0) > r->worst_ms) {
      r->worst_ms = Ms(t1 - t0);
      r->worst_line = step.line;
    }
    if (!Account(r, ctl, log, step.kind, step.relationship_probe, t0, t1,
                 reply,
                 ++request_id)) {
      Reconnect(&client, r, ctl);
      continue;
    }
    if (i < ctl.replay_prefix && i < trace.size()) {
      r->replies.emplace_back(step.line, reply.ok ? Normalized(reply.body)
                                                  : reply.body);
    }
    if (!reply.ok) {
      r->Error("'" + step.line + "' failed: " + reply.body);
      continue;
    }
    if (step.line == kMenuProbe) {
      for (size_t k = 0; k < kMenuLineCount; ++k) {
        if (reply.body.find(kMenuLines[k]) == std::string::npos) {
          r->Error("Sec 5.2 menu lacks '" + std::string(kMenuLines[k]) + "'");
        }
      }
    }
    if (step.kind == Step::Kind::kHypoRead && reply.body != "false\n") {
      r->Error("hypothetically retracted " + step.probe_fact +
               " still visible to its own session: " + reply.body);
    }
  }
  r->reconnects = client.reconnects();
}

// Fresh facts for writers: a new source entity per write, so every
// assert really adds a fact (and its derived facts).
Triple FreshFact(uint64_t seed, int writer, uint64_t n, const Store& gen,
                 lsd::Rng* rng) {
  return Triple{"W" + std::to_string(seed) + "-" + std::to_string(writer) +
                    "-" + std::to_string(n),
                RelationshipName(rng->Uniform(kRelationships)),
                EntityName(rng->Uniform(gen.entities()))};
}

void RunWriter(uint16_t port, const WorkloadConfig& cfg, uint64_t seed,
               int writer, const Store& gen, const LoadControl& ctl,
               ConnResult* r) {
  Tracer::Log* log = ctl.trace ? ctl.tracer->NewLog() : nullptr;
  Client client(port, cfg.write_wire);
  if (!client.Connect()) {
    r->Error("writer could not connect");
    return;
  }
  lsd::Rng rng(seed * 7919 + static_cast<uint64_t>(writer) + 17);
  std::vector<Triple> live;  // acked asserts not yet retracted
  uint64_t request_id = 0;
  for (uint64_t n = 0; Clock::now() < ctl.deadline; ++n) {
    const uint64_t every = static_cast<uint64_t>(cfg.retract_every);
    const bool retract = every > 0 && n % every == every - 1 &&
                         !live.empty();
    Triple fact;
    size_t victim = 0;
    if (retract) {
      victim = rng.Uniform(live.size());
      fact = live[victim];
    } else {
      fact = FreshFact(seed, writer, n, gen, &rng);
    }
    const Clock::time_point t0 = Clock::now();
    Reply reply;
    if (cfg.write_wire == Wire::kBinary) {
      reply = client.Mutate(lsd::MutationOp{retract, fact.source,
                                            fact.relationship, fact.target});
    } else {
      reply = client.Request((retract ? "retract " : "assert ") +
                             FactText(fact));
    }
    const Clock::time_point t1 = Clock::now();
    if (!Account(r, ctl, log, Step::Kind::kCommit, retract, t0, t1, reply,
                 ++request_id)) {
      // Never resent: the write's fate is unknown, so it is neither
      // expected present nor expected absent afterwards.
      if (retract) live.erase(live.begin() + static_cast<long>(victim));
      Reconnect(&client, r, ctl);
      continue;
    }
    if (!reply.ok) {
      r->Error("write failed: " + reply.body);
      continue;
    }
    std::string expect;
    if (cfg.write_wire == Wire::kBinary) {
      expect = retract ? "added 0, present 0, removed 1, missing 0\n"
                       : "added 1, present 0, removed 0, missing 0\n";
    } else {
      expect = retract ? "removed\n" : "added\n";
    }
    if (Normalized(reply.body) != expect) {
      r->Error("write of " + FactText(fact) + " answered " + reply.body);
      continue;
    }
    if (retract) {
      r->acked_retracts.push_back(fact);
      live.erase(live.begin() + static_cast<long>(victim));
    } else {
      r->acked_asserts.push_back(fact);
      live.push_back(fact);
    }
  }
  r->reconnects = client.reconnects();
}

struct LoadResult {
  std::vector<ConnResult> browsers, writers;
  double seconds = 0;
  std::vector<double> rss_mb;  // resident set, sampled every 50 ms
  template <typename F>
  void ForEach(F f) const {
    for (const ConnResult& r : browsers) f(r);
    for (const ConnResult& r : writers) f(r);
  }
};

LoadResult RunLoad(const System& sys, const WorkloadConfig& cfg,
                   uint64_t seed, double seconds, const LoadControl& base) {
  LoadResult result;
  result.browsers.resize(static_cast<size_t>(cfg.browsers));
  result.writers.resize(static_cast<size_t>(cfg.writers));
  LoadControl ctl = base;
  ctl.start = Clock::now();
  ctl.deadline =
      ctl.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int b = 0; b < cfg.browsers; ++b) {
    threads.emplace_back(RunBrowser, sys.port, cfg.browse_wire,
                         std::cref(sys.traces[static_cast<size_t>(b)]),
                         std::cref(ctl), &result.browsers[static_cast<size_t>(b)]);
  }
  for (int w = 0; w < cfg.writers; ++w) {
    threads.emplace_back(RunWriter, sys.port, std::cref(cfg), seed, w,
                         std::cref(sys.gen), std::cref(ctl),
                         &result.writers[static_cast<size_t>(w)]);
  }
  while (Clock::now() < ctl.deadline) {
    result.rss_mb.push_back(StatusMb("VmRSS:"));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (std::thread& t : threads) t.join();
  result.seconds = Seconds(Clock::now() - ctl.start);
  return result;
}

// ---- Output checks --------------------------------------------------------

// browse: the TCP replies equal an in-process ServerSession's Execute
// output for the same lines on the same (unchanging) epoch.
void CheckReplay(const System& sys, const LoadResult& load,
                 std::vector<std::string>* errors) {
  std::vector<std::thread> threads;
  std::vector<std::vector<std::string>> errs(load.browsers.size());
  for (size_t b = 0; b < load.browsers.size(); ++b) {
    threads.emplace_back([&, b] {
      lsd::ServerSession session(1000 + b, sys.store.get());
      for (const auto& [line, wire_reply] : load.browsers[b].replies) {
        if (ExpectedReply(session.Execute(line)) != wire_reply && errs[b].size() < 3) {
          errs[b].push_back("TCP reply to '" + line +
                            "' differs from in-process Execute");
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& e : errs) errors->insert(errors->end(), e.begin(), e.end());
}

// Every fact of `db`'s closure by name, sorted, so that databases whose
// entity ids differ compare by content. Empty when View() fails.
std::vector<std::string> ClosureByName(const lsd::LooseDb& db) {
  std::vector<std::string> facts;
  auto view = db.View();
  if (!view.ok()) return facts;
  const lsd::EntityTable& e = db.entities();
  (*view)->ForEach(lsd::Pattern{}, [&](const lsd::Fact& f) {
    facts.push_back(e.Name(f.source) + "|" + e.Name(f.relationship) + "|" +
                    e.Name(f.target));
    return true;
  });
  std::sort(facts.begin(), facts.end());
  return facts;
}

bool Asserted(const lsd::LooseDb& db, const Triple& t) {
  const lsd::EntityTable& e = db.entities();
  auto s = e.Lookup(t.source);
  auto r = e.Lookup(t.relationship);
  auto g = e.Lookup(t.target);
  return s && r && g && db.store().Contains(lsd::Fact(*s, *r, *g));
}

// write (and mixed): acked asserts present, acked retracts absent, in
// the final epoch and after a fresh Recover of the snapshot + WAL; the
// final epoch's closure, maintained commit by commit (extended after
// asserts, recomputed after retracts), equals the closure computed from
// scratch over the recovered base facts (neither the snapshot nor the
// WAL holds derived facts).
void CheckWrites(const System& sys, const LoadResult& load,
                 std::vector<std::string>* errors) {
  lsd::EpochPtr tip = sys.store->snapshot();
  lsd::LooseDb recovered(sys.store->options());
  lsd::Status s = recovered.Recover(sys.prefix);
  if (!s.ok()) {
    errors->push_back("Recover failed: " + s.ToString());
    return;
  }
  const lsd::LooseDb* dbs[] = {&tip->db(), &recovered};
  const char* names[] = {"final epoch", "recovered store"};
  for (int k = 0; k < 2; ++k) {
    size_t missing = 0, resurrected = 0;
    load.ForEach([&](const ConnResult& r) {
      auto key = [](const Triple& t) {
        return t.source + "|" + t.relationship + "|" + t.target;
      };
      std::vector<std::string> gone;
      for (const Triple& t : r.acked_retracts) gone.push_back(key(t));
      std::sort(gone.begin(), gone.end());
      for (const Triple& t : r.acked_asserts) {
        const bool was_retracted =
            std::binary_search(gone.begin(), gone.end(), key(t));
        if (!was_retracted && !Asserted(*dbs[k], t)) ++missing;
      }
      for (const Triple& t : r.acked_retracts) {
        if (Asserted(*dbs[k], t)) ++resurrected;
      }
    });
    if (missing > 0 || resurrected > 0) {
      errors->push_back(std::string(names[k]) + ": " +
                        std::to_string(missing) + " acked asserts missing, " +
                        std::to_string(resurrected) +
                        " acked retracts present");
    }
  }
  if (recovered.store().size() != tip->db().store().size()) {
    errors->push_back("recovered store holds " +
                      std::to_string(recovered.store().size()) +
                      " facts, the final epoch " +
                      std::to_string(tip->db().store().size()));
  }
  const std::vector<std::string> maintained = ClosureByName(tip->db());
  const std::vector<std::string> recomputed = ClosureByName(recovered);
  if (maintained.empty() || maintained != recomputed) {
    errors->push_back("final epoch's closure (" +
                      std::to_string(maintained.size()) +
                      " facts) differs from the one recomputed over the "
                      "recovered store (" +
                      std::to_string(recomputed.size()) + " facts)");
  }
}

// mixed: a hypothetical retraction is absent for its own session and
// still visible to another one, and gone once cleared.
void CheckHypoIsolation(const System& sys, std::vector<std::string>* errors) {
  const auto& out = sys.gen.out;
  size_t a = 0;
  while (a < out.size() && out[a].empty()) ++a;
  if (a == out.size()) return;
  const std::string fact = FactText(Triple{
      EntityName(a), RelationshipName(out[a][0].first),
      EntityName(out[a][0].second)});
  Client own(sys.port, Wire::kBinary), other(sys.port, Wire::kBinary);
  if (!own.Connect() || !other.Connect()) {
    errors->push_back("isolation check could not connect");
    return;
  }
  struct Expect {
    Client* client;
    std::string line, reply;
  };
  const Expect script[] = {
      {&own, "hypo retract " + fact, "hypothetical recorded"},
      {&own, "query " + fact, "false\n"},
      {&other, "query " + fact, "true\n"},
      {&own, "hypo clear", "dropped 1 hypothetical(s)\n"},
      {&own, "query " + fact, "true\n"},
  };
  for (const Expect& e : script) {
    Reply r = e.client->Request(e.line);
    if (!r.ok || r.body.rfind(e.reply, 0) != 0) {
      errors->push_back("isolation: '" + e.line + "' answered '" + r.body +
                        "', expected '" + e.reply + "'");
      return;
    }
  }
}

// ---- Reporting ------------------------------------------------------------

void PrintMetric(const Metric& m) {
  std::printf("metric %-34s %14.6f %-6s n=%zu\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::vector<double> Concat(const LoadResult& load,
                           std::vector<double> ConnResult::*field) {
  std::vector<double> all;
  load.ForEach([&](const ConnResult& r) {
    all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  });
  return all;
}

// ---- Traced run: replays ------------------------------------------------

struct Samples {
  std::vector<double> v;
  void Add(double x) { v.push_back(x); }
  double P(double p) const { return Percentile(v, p); }
  size_t n() const { return v.size(); }
};

struct LayerSamples {
  Samples wire_us, commands_us;                  // server
  Samples parse_us, run_us;                      // query
  Samples nav_us, probe_us, dist_us;             // browse
  uint64_t probe_queries = 0, probe_successes = 0;
  uint64_t planner_hits = 0, planner_misses = 0;
  Samples overlay_build_ms;                      // hypotheticals
  Samples clone_ms, extend_ms, recompute_ms, warm_ms, wal_us;
  Samples commit_ms, commit_wait_ms, commit_tail_ms;  // real commits
  // Tracing overhead: recorded minus unrecorded replay of one line, by
  // which of the two ran first.
  Samples overhead_recorded_first_us, overhead_recorded_second_us;
};

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// What one library-level call did: its timed parts (one or two) and,
// for a failing probe, how many queries it tried and how many succeeded.
struct LibraryResult {
  bool ok = false;  // false also for verbs it does not map
  struct Part {
    const char* name = "";
    Clock::time_point start, end;
  } parts[2];
  int n_parts = 0;
  uint64_t probe_queries = 0, probe_successes = 0;
};

// The library-level equivalent of one read line on `db`, with a
// navigation trail of its own. Only takes the time: the caller decides
// whether to record it.
LibraryResult LibraryCall(lsd::LooseDb& db, const std::string& line,
                          std::vector<std::string>* trail, size_t* pos) {
  LibraryResult r;
  auto part = [&r](const char* name, Clock::time_point a,
                   Clock::time_point b) {
    r.parts[r.n_parts++] = {name, a, b};
  };
  const size_t sp = line.find(' ');
  const std::string cmd = line.substr(0, sp);
  const std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);
  if (cmd == "query") {
    const Clock::time_point t0 = Clock::now();
    auto q = db.Parse(rest);
    const Clock::time_point t1 = Clock::now();
    if (!q.ok()) return r;
    auto out = db.Run(*q);
    const Clock::time_point t2 = Clock::now();
    part("query.parse", t0, t1);
    part("query.run", t1, t2);
    r.ok = out.ok();
    return r;
  }
  if (cmd == "probe") {
    const Clock::time_point t0 = Clock::now();
    auto p = db.Probe(rest);
    const Clock::time_point t1 = Clock::now();
    part("browse.probe", t0, t1);
    if (p.ok() && !p->original_succeeded) {
      r.probe_queries = p->queries_attempted;
      r.probe_successes = p->successes.size();
    }
    r.ok = p.ok();
    return r;
  }
  if (cmd == "dist") {
    const size_t sp2 = rest.find(' ');
    const Clock::time_point t0 = Clock::now();
    auto d = db.SemanticDistance(rest.substr(0, sp2), rest.substr(sp2 + 1), 4);
    const Clock::time_point t1 = Clock::now();
    part("browse.dist", t0, t1);
    r.ok = d.ok();
    return r;
  }
  std::string entity;
  if (cmd == "nav" || cmd == "visit") {
    entity = rest;
  } else if (cmd == "back" && *pos > 0) {
    entity = (*trail)[*pos - 1];
  } else if (cmd == "forward" && *pos + 1 < trail->size()) {
    entity = (*trail)[*pos + 1];
  } else {
    return r;
  }
  const Clock::time_point t0 = Clock::now();
  auto hood = db.Navigate(entity);
  std::string rendered;
  if (hood.ok()) rendered = hood->Render(db.entities());
  const Clock::time_point t1 = Clock::now();
  part("browse.nav", t0, t1);
  if (cmd == "visit") {
    trail->resize(trail->empty() ? 0 : *pos + 1);
    trail->push_back(entity);
    *pos = trail->size() - 1;
  } else if (cmd == "back") {
    --*pos;
  } else if (cmd == "forward") {
    ++*pos;
  }
  r.ok = hood.ok();
  return r;
}

Samples* LibrarySamples(LayerSamples* s, const std::string& name) {
  if (name == "query.parse") return &s->parse_us;
  if (name == "query.run") return &s->run_us;
  if (name == "browse.probe") return &s->probe_us;
  if (name == "browse.dist") return &s->dist_us;
  return &s->nav_us;
}

// One session per level, fed every read line once and in order, so that
// the navigation trails of the three levels agree.
struct ReplaySessions {
  ReplaySessions(const System& sys, Wire wire, uint64_t id)
      : client(sys.port, wire), session(id, sys.store.get()) {}
  Client client;
  lsd::ServerSession session;
  std::vector<std::string> trail;
  size_t pos = 0;
};

// Replays the read lines of `trace` at three levels on the quiescent
// store: over TCP, through an in-process ServerSession, and as direct
// library calls on the pinned epoch. The level that runs a line first
// pays its cold-cache cost, so which level goes first rotates from line
// to line. Every line runs on two sets of sessions: one records spans
// and layer samples, the other only takes the time. Which set goes
// first alternates every three lines; the recorded minus unrecorded
// time of a line is the tracing overhead, and averaging the two orders
// cancels the advantage of going second. The planner counters are read
// around the library calls that ran a line first. Runs until the trace
// is exhausted or `budget` ends.
void ReplayReads(const System& sys, Wire wire, const std::vector<Step>& trace,
                 Clock::duration budget, Tracer::Log* log, LayerSamples* s,
                 std::string* error) {
  ReplaySessions recorded(sys, wire, 900), unrecorded(sys, wire, 901);
  if (!recorded.client.Connect() || !unrecorded.client.Connect()) {
    *error = "replay could not connect";
    return;
  }
  lsd::EpochPtr epoch = sys.store->snapshot();
  lsd::LooseDb& db = epoch->db();
  const Clock::time_point end = Clock::now() + budget;
  uint64_t request = 1u << 30;
  size_t n = 0;  // read lines replayed
  for (const Step& step : trace) {
    if (Clock::now() >= end) break;
    if (step.kind != Step::Kind::kRead) continue;
    ++request;
    const size_t first_level = n % 3;
    const bool recorded_first = (n / 3) % 2 == 0;
    ++n;
    double pass_us[2] = {0, 0};  // [unrecorded, recorded]
    for (int pass = 0; pass < 2; ++pass) {
      const bool record = (pass == 0) == recorded_first;
      ReplaySessions& set = record ? recorded : unrecorded;
      Clock::time_point start[3], finish[3];
      bool ok = true;
      LibraryResult lib;
      const Clock::time_point pass_start = Clock::now();
      for (size_t j = 0; j < 3; ++j) {
        const size_t level = (first_level + j) % 3;
        const bool first_call = pass == 0 && j == 0;
        start[level] = Clock::now();
        if (level == 0) {
          ok = set.client.Request(step.line).ok && ok;
        } else if (level == 1) {
          ok = set.session.Execute(step.line).ok() && ok;
        } else {
          const uint64_t hits = db.planner_hits();
          const uint64_t misses = db.planner_misses();
          lib = LibraryCall(db, step.line, &set.trail, &set.pos);
          ok = lib.ok && ok;
          if (first_call) {
            s->planner_hits += db.planner_hits() - hits;
            s->planner_misses += db.planner_misses() - misses;
          }
        }
        finish[level] = Clock::now();
      }
      if (!ok) {
        *error = "replay of '" + step.line + "' failed";
        return;
      }
      if (record) {
        const uint64_t tcp =
            log->Add("replay.tcp", start[0], finish[0], 0, request);
        // A replayed level is the child of the level above it, so span
        // self times give each layer's own cost.
        const uint64_t exec =
            log->Add("replay.execute", start[1], finish[1], tcp, request);
        double lib_us = 0;
        for (int k = 0; k < lib.n_parts; ++k) {
          const LibraryResult::Part& p = lib.parts[k];
          log->Add(p.name, p.start, p.end, exec, request);
          LibrarySamples(s, p.name)->Add(Us(p.start, p.end));
          lib_us += Us(p.start, p.end);
        }
        s->probe_queries += lib.probe_queries;
        s->probe_successes += lib.probe_successes;
        const double exec_us = Us(start[1], finish[1]);
        s->wire_us.Add(Us(start[0], finish[0]) - exec_us);
        s->commands_us.Add(exec_us - lib_us);
      }
      pass_us[record ? 1 : 0] = Us(pass_start, Clock::now());
    }
    (recorded_first ? s->overhead_recorded_first_us
                    : s->overhead_recorded_second_us)
        .Add(pass_us[1] - pass_us[0]);
  }
}

// Hypothetical retractions in-process: the first read after the
// hypothesis pays the overlay build; the same read again does not.
void ReplayHypo(const System& sys, int count, Clock::duration budget,
                Tracer::Log* log, LayerSamples* s) {
  lsd::ServerSession session(902, sys.store.get());
  const auto& out = sys.gen.out;
  lsd::Rng rng(4242);
  const Clock::time_point end = Clock::now() + budget;
  for (int i = 0; i < count && Clock::now() < end; ++i) {
    size_t a = rng.Uniform(out.size());
    while (out[a].empty()) a = (a + 1) % out.size();
    const auto& edge = out[a][rng.Uniform(out[a].size())];
    const std::string fact =
        FactText(Triple{EntityName(a), RelationshipName(edge.first),
                        EntityName(edge.second)});
    (void)session.Execute("hypo retract " + fact);
    const Clock::time_point t0 = Clock::now();
    (void)session.Execute("query " + fact);
    const Clock::time_point t1 = Clock::now();
    (void)session.Execute("query " + fact);
    const Clock::time_point t2 = Clock::now();
    (void)session.Execute("hypo clear");
    const uint64_t first = log->Add("hypo.first_read", t0, t1, 0, 0);
    log->Add("hypo.steady_read", t1, t2, first, 0);
    s->overlay_build_ms.Add(Ms((t1 - t0) - (t2 - t1)));
  }
}

// The stages SharedStore::Commit runs, replayed one by one through
// their public calls on a copy of the tip: CloneInto, the mutation,
// View (closure extension after an assert, full recompute after a
// retract), Warm, and a WAL batch append to a throwaway log.
void ReplayCommitStages(const System& sys, const std::string& wal_base,
                        int count, Clock::duration budget, Tracer::Log* log,
                        LayerSamples* s, std::string* error) {
  lsd::Wal wal;
  lsd::WalOptions wal_options;
  wal_options.sync = lsd::WalSync::kFlush;
  lsd::Status st = wal.Open(wal_base, wal_options, 1);
  if (!st.ok()) {
    *error = "throwaway WAL: " + st.ToString();
    return;
  }
  lsd::Rng rng(777);
  const Clock::time_point end = Clock::now() + budget;
  for (int i = 0; i < 2 * count && Clock::now() < end; ++i) {
    const bool retract = i % 2 == 1;
    lsd::EpochPtr tip = sys.store->snapshot();
    lsd::LooseDbOptions options = sys.store->options();
    options.standard_rules = false;
    const Clock::time_point t0 = Clock::now();
    lsd::LooseDb copy(options);
    st = tip->db().CloneInto(&copy);
    const Clock::time_point t1 = Clock::now();
    std::vector<lsd::WalRecord> records;
    copy.set_mutation_capture(&records);
    if (retract) {
      size_t a = rng.Uniform(sys.gen.out.size());
      while (sys.gen.out[a].empty()) a = (a + 1) % sys.gen.out.size();
      const auto& edge = sys.gen.out[a][0];
      st = copy.Retract(EntityName(a), RelationshipName(edge.first),
                        EntityName(edge.second));
    } else {
      copy.Assert("STAGE-" + std::to_string(i),
                  RelationshipName(static_cast<size_t>(i) % kRelationships),
                  EntityName(rng.Uniform(sys.gen.entities())));
    }
    copy.set_mutation_capture(nullptr);
    const Clock::time_point t2 = Clock::now();
    auto view = copy.View();
    const Clock::time_point t3 = Clock::now();
    lsd::Status warm = copy.Warm();
    const Clock::time_point t4 = Clock::now();
    lsd::Status appended = wal.AppendBatch(records);
    const Clock::time_point t5 = Clock::now();
    if (!st.ok() || !view.ok() || !warm.ok() || !appended.ok()) {
      *error = "commit stage replay failed";
      return;
    }
    const uint64_t root = log->Add(retract ? "stages.retract" : "stages.assert",
                                   t0, t5, 0, 0);
    log->Add("core.clone", t0, t1, root, 0);
    log->Add("core.apply", t1, t2, root, 0);
    log->Add(retract ? "rules.recompute" : "rules.extend", t2, t3, root, 0);
    log->Add("core.warm", t3, t4, root, 0);
    log->Add("store.wal_append", t4, t5, root, 0);
    s->clone_ms.Add(Ms(t1 - t0));
    (retract ? s->recompute_ms : s->extend_ms).Add(Ms(t3 - t2));
    s->warm_ms.Add(Ms(t4 - t3));
    s->wal_us.Add(std::chrono::duration<double, std::micro>(t5 - t4).count());
  }
}

// Real commits through SharedStore::Commit with the benchmark's own
// mutation closure, which marks its start and end: the wait before it
// runs (queueing behind the group leader, then the group's clone) and
// the tail after it (extend, warm, WAL, publish, wake-up) are measured
// directly. `threads` writers commit concurrently, as the workload's
// writers would; with one thread nothing queues and the commit's
// latency can be set against the replayed stages.
void ReplayRealCommits(const System& sys, int threads, int per_thread,
                       Clock::duration budget, Tracer* tracer,
                       LayerSamples* s, Samples* single) {
  std::vector<LayerSamples> parts(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  const Clock::time_point end = Clock::now() + budget;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      Tracer::Log* log = tracer->NewLog();
      LayerSamples& p = parts[static_cast<size_t>(w)];
      lsd::Rng rng(99 + static_cast<uint64_t>(w));
      for (int i = 0; i < per_thread && Clock::now() < end; ++i) {
        const std::string source =
            "TRACE-" + std::to_string(w) + "-" + std::to_string(i);
        const std::string rel = RelationshipName(rng.Uniform(kRelationships));
        const std::string target = EntityName(rng.Uniform(sys.gen.entities()));
        Clock::time_point m0, m1;
        const Clock::time_point t0 = Clock::now();
        auto epoch = sys.store->Commit([&](lsd::LooseDb& db) {
          m0 = Clock::now();
          db.Assert(source, rel, target);
          m1 = Clock::now();
          return lsd::Status::OK();
        });
        const Clock::time_point t1 = Clock::now();
        if (!epoch.ok()) continue;
        const uint64_t root = log->Add("commit", t0, t1, 0, 0);
        log->Add("commit.mutate", m0, m1, root, 0);
        p.commit_ms.Add(Ms(t1 - t0));
        p.commit_wait_ms.Add(Ms(m0 - t0));
        p.commit_tail_ms.Add(Ms(t1 - m1));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const LayerSamples& p : parts) {
    if (threads == 1) {
      for (double v : p.commit_ms.v) single->Add(v);
      continue;
    }
    for (double v : p.commit_wait_ms.v) s->commit_wait_ms.Add(v);
    for (double v : p.commit_tail_ms.v) s->commit_tail_ms.Add(v);
  }
}

uint64_t WalBytes(const lsd::SharedStore& store) {
  uint64_t bytes = 0;
  for (const lsd::WalSegmentInfo& seg : store.wal().SegmentInventory()) {
    if (seg.bytes > lsd::Wal::kSegmentHeaderSize) {
      bytes += seg.bytes - lsd::Wal::kSegmentHeaderSize;
    }
  }
  return bytes;
}

// ---- Main -----------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

int Run(const Args& args) {
  if (!kReleaseBuild) {
    std::fprintf(stderr, "refusing to report numbers from a non-Release build\n");
    return 2;
  }
  std::optional<WorkloadConfig> maybe = ConfigFor(args.workload);
  if (!maybe) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadConfig& cfg = *maybe;
  const std::string dir = args.dir + "/" + cfg.name;
  std::printf("stamp build=release hardware_concurrency=%u workload=%s "
              "seed=%llu seconds=%g trace=%d connections=%d "
              "client_threads=%d server_workers=%u\n",
              std::thread::hardware_concurrency(), cfg.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, cfg.connections(), cfg.connections(),
              std::max(1u, std::thread::hardware_concurrency()));

  System sys;
  std::vector<double> setup_s;
  auto set_up = [&] {
    StopSystem(&sys);
    std::string error;
    const Clock::time_point t0 = Clock::now();
    if (!SetUp(cfg, args.seed, dir, &sys, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      StopSystem(&sys);
      return false;
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
    return true;
  };
  if (!set_up()) return 1;
  std::printf("store asserted=%zu derived=%zu derived_per_asserted=%.3f "
              "entities=%zu protocol_browse=%s protocol_write=%s "
              "wal_sync=flush compaction=on\n",
              sys.asserted, sys.derived,
              Ratio(static_cast<double>(sys.derived),
                    static_cast<double>(sys.asserted)),
              sys.gen.entities(),
              cfg.browse_wire == Wire::kText ? "text" : "binary",
              cfg.write_wire == Wire::kText ? "text" : "binary");

  Tracer tracer(Clock::now());
  LoadControl ctl;
  ctl.trace = args.trace;
  ctl.tracer = &tracer;
  ctl.replay_prefix = (cfg.name == "browse" && !args.trace) ? 1500 : 0;
  const lsd::GroupCommitStats g0 = sys.store->group_stats();
  const double steal0 = StealSeconds();
  // A read-only load (browse) runs every read on the epoch it starts
  // on, unless compaction replaces it: its planner counters then count
  // exactly the load's plans. (Pinned only then: a pin held through a
  // write load would keep its storage alive.)
  lsd::EpochPtr load_epoch = cfg.writers == 0 ? sys.store->snapshot() : nullptr;
  const uint64_t load_hits0 = load_epoch ? load_epoch->db().planner_hits() : 0;
  const uint64_t load_misses0 =
      load_epoch ? load_epoch->db().planner_misses() : 0;
  LoadResult load = RunLoad(sys, cfg, args.seed, args.seconds, ctl);
  const bool load_on_one_epoch =
      load_epoch != nullptr && sys.store->snapshot().get() == load_epoch.get();
  const uint64_t load_hits =
      load_epoch ? load_epoch->db().planner_hits() - load_hits0 : 0;
  const uint64_t load_misses =
      load_epoch ? load_epoch->db().planner_misses() - load_misses0 : 0;
  load_epoch.reset();
  const lsd::GroupCommitStats g1 = sys.store->group_stats();
  // The engine's resident set: the median sampled over the load, less
  // the baseline taken with the benchmark's own inputs in memory and the
  // engine not yet opened.
  const double engine_rss_mb = Median(load.rss_mb) - sys.baseline_rss_mb;
  const double peak_rss_mb = StatusMb("VmHWM:");
  std::printf("rss baseline_mb=%.1f (generated inputs, engine not open) "
              "engine_mb=%.1f process_peak_mb=%.1f\n",
              sys.baseline_rss_mb, engine_rss_mb, peak_rss_mb);
  std::printf("host cpu_steal_s=%.2f during the timed phase\n",
              StealSeconds() - steal0);

  uint64_t sent = 0, succeeded = 0, failed = 0, governance = 0;
  uint64_t reconnects = 0;
  std::vector<std::string> errors;
  const ConnResult* worst = nullptr;
  load.ForEach([&](const ConnResult& r) {
    if (worst == nullptr || r.worst_ms > worst->worst_ms) worst = &r;
    sent += r.sent;
    succeeded += r.succeeded;
    failed += r.failed;
    governance += r.governance;
    reconnects += r.reconnects;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  });
  const std::vector<double> read_ms = Concat(load, &ConnResult::read_ms);
  const std::vector<double> probe_ms = Concat(load, &ConnResult::probe_ms);
  const std::vector<double> hypo_ms = Concat(load, &ConnResult::hypo_ms);
  const std::vector<double> commit_ms = Concat(load, &ConnResult::commit_ms);
  const std::vector<double> retract_ms = Concat(load, &ConnResult::retract_ms);
  uint64_t acked_facts = 0;
  load.ForEach([&](const ConnResult& r) {
    acked_facts += r.acked_asserts.size() + r.acked_retracts.size();
  });
  {
    const lsd::CompactionStats cs = sys.store->compaction_stats();
    std::printf("store epochs_published=%llu commit_groups=%llu "
                "compaction_merges=%llu compaction_bytes=%llu\n",
                static_cast<unsigned long long>(sys.store->commits()),
                static_cast<unsigned long long>(g1.groups - g0.groups),
                static_cast<unsigned long long>(cs.merges),
                static_cast<unsigned long long>(cs.bytes_merged));
  }
  if (worst != nullptr && !worst->worst_line.empty()) {
    std::printf("slowest %.3f ms: %s\n", worst->worst_ms,
                worst->worst_line.c_str());
  }
  std::printf("requests sent=%llu succeeded=%llu failed=%llu "
              "governance_errors=%llu reconnects=%llu\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(succeeded),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(governance),
              static_cast<unsigned long long>(reconnects));

  if (!args.trace) {
    if (cfg.name == "browse") CheckReplay(sys, load, &errors);
    if (cfg.writers > 0) CheckWrites(sys, load, &errors);
    if (cfg.hypo_every > 0) CheckHypoIsolation(sys, &errors);
    while (static_cast<int>(setup_s.size()) < kMaxSetups &&
           (static_cast<int>(setup_s.size()) < kMinSetups ||
            std::accumulate(setup_s.begin(), setup_s.end(), 0.0) <
                Seconds(kSetupBudget))) {
      if (!set_up()) return 1;
    }
  }

  std::vector<Metric> e2e, layer;
  const double secs = load.seconds;
  e2e.push_back({"setup_s", "s", Median(setup_s), setup_s.size()});
  if (!read_ms.empty()) {
    e2e.push_back({"read_p50_ms", "ms", Percentile(read_ms, 0.5), read_ms.size()});
    e2e.push_back({"read_p99_ms", "ms", Percentile(read_ms, 0.99), read_ms.size()});
    e2e.push_back({"reads_per_s", "1/s", read_ms.size() / secs, read_ms.size()});
  }
  if (!commit_ms.empty()) {
    e2e.push_back({"commit_p50_ms", "ms", Percentile(commit_ms, 0.5), commit_ms.size()});
    e2e.push_back({"commit_p90_ms", "ms", Percentile(commit_ms, 0.9), commit_ms.size()});
    e2e.push_back({"commits_per_s", "1/s", commit_ms.size() / secs, commit_ms.size()});
  }
  if (!hypo_ms.empty()) {
    e2e.push_back({"hypo_p50_ms", "ms", Percentile(hypo_ms, 0.5), hypo_ms.size()});
    e2e.push_back({"hypo_p90_ms", "ms", Percentile(hypo_ms, 0.9), hypo_ms.size()});
  }
  e2e.push_back({"error_ratio", "ratio", Ratio(static_cast<double>(failed),
                                               static_cast<double>(sent)), sent});
  e2e.push_back({"peak_rss_mb", "MiB", peak_rss_mb, 0});
  e2e.push_back({"engine_rss_mb", "MiB", engine_rss_mb, load.rss_mb.size()});
  // The role-named metrics every workload reports (BENCHMARK.json): the
  // workload's primary request class (reads for browse and mixed,
  // commits for write) and its signature request kind (failing
  // relationship probes, retracts, first reads after a hypothetical).
  // Each signature class is one kind of request: the median of a mix of
  // two kinds with different costs jumps between them from run to run.
  // The two-atom taxonomy probes are left out of it: the plan cache keys
  // their plan by relationship only and plans it from whichever probe of
  // that shape arrives first, so their median moved between ~0.6 and
  // ~1.1 ms from run to run with the race between browsers.
  const bool writes_first = cfg.browsers == 0;
  const std::vector<double>& primary = writes_first ? commit_ms : read_ms;
  const std::vector<double>& signature =
      writes_first ? retract_ms : (cfg.hypo_every > 0 ? hypo_ms : probe_ms);
  const double tail = writes_first ? 0.9 : 0.99;
  e2e.push_back({"p50_ms", "ms", Percentile(primary, 0.5), primary.size()});
  e2e.push_back({"tail_ms", "ms", Percentile(primary, tail), primary.size()});
  e2e.push_back({"ops_per_s", "1/s", primary.size() / secs, primary.size()});
  e2e.push_back({"signature_p50_ms", "ms", Percentile(signature, 0.5),
                 signature.size()});

  if (args.trace) {
    LayerSamples s;
    Tracer::Log* log = tracer.NewLog();
    std::string error;
    // Reads at three levels: the workload's own browsing trace, or a
    // browsing trace over the writers' store for `write`.
    ReplayReads(sys, cfg.browse_wire, sys.traces[0], std::chrono::seconds(8),
                log, &s, &error);
    const char* planner_source = "replay first calls";
    if (load_on_one_epoch) {
      s.planner_hits = load_hits;
      s.planner_misses = load_misses;
      planner_source = "timed load";
    }
    if (error.empty()) {
      ReplayHypo(sys, 12, std::chrono::seconds(6), log, &s);
      ReplayCommitStages(sys, dir + "/stages.wal", 6, std::chrono::seconds(10),
                         log, &s, &error);
    }
    Samples single_commit_ms;
    if (error.empty()) {
      ReplayRealCommits(sys, std::max(cfg.writers, 2), 40,
                        std::chrono::seconds(4), &tracer, &s, nullptr);
      ReplayRealCommits(sys, 1, 20, std::chrono::seconds(3), &tracer, &s,
                        &single_commit_ms);
    }
    if (!error.empty()) errors.push_back(error);

    const lsd::EpochPtr tip = sys.store->snapshot();
    lsd::LooseDb& db = tip->db();
    const lsd::CompactionStats cs = sys.store->compaction_stats();
    const lsd::GroupCommitStats g2 = sys.store->group_stats();
    auto mem = db.MemoryUsage();
    size_t closure_facts = db.store().size();
    if (const lsd::ClosureStats* c = db.closure_stats()) closure_facts += c->derived_facts;
    const double stage_sum = Median(s.clone_ms.v) + Median(s.extend_ms.v) +
                             Median(s.warm_ms.v) + Median(s.wal_us.v) / 1e3;
    auto L = [&](const char* name, const char* unit, double v, size_t n) {
      layer.push_back({name, unit, v, n});
    };
    L("server.wire_p50_us", "us", s.wire_us.P(0.5), s.wire_us.n());
    L("server.commands_p50_us", "us", s.commands_us.P(0.5), s.commands_us.n());
    L("server.commit_wait_p50_ms", "ms", s.commit_wait_ms.P(0.5), s.commit_wait_ms.n());
    L("server.commit_tail_p50_ms", "ms", s.commit_tail_ms.P(0.5), s.commit_tail_ms.n());
    L("server.commit_unattributed_ms", "ms",
      single_commit_ms.P(0.5) - stage_sum, single_commit_ms.n());
    L("server.group_mean", "slots", g1.groups > g0.groups
          ? Ratio(static_cast<double>((g1.slots_acked + g1.slots_rejected) -
                                      (g0.slots_acked + g0.slots_rejected)),
                  static_cast<double>(g1.groups - g0.groups))
          : g2.mean_group(), 0);
    L("server.overlay_build_p50_ms", "ms", s.overlay_build_ms.P(0.5),
      s.overlay_build_ms.n());
    L("core.clone_p50_ms", "ms", s.clone_ms.P(0.5), s.clone_ms.n());
    L("core.warm_p50_ms", "ms", s.warm_ms.P(0.5), s.warm_ms.n());
    L("rules.extend_p50_ms", "ms", s.extend_ms.P(0.5), s.extend_ms.n());
    L("rules.recompute_p50_ms", "ms", s.recompute_ms.P(0.5), s.recompute_ms.n());
    L("rules.derived_per_asserted", "ratio",
      Ratio(static_cast<double>(sys.derived), static_cast<double>(sys.asserted)), 0);
    L("rules.candidates_per_derived", "ratio",
      Ratio(static_cast<double>(sys.candidates), static_cast<double>(sys.derived)), 0);
    L("query.parse_p50_us", "us", s.parse_us.P(0.5), s.parse_us.n());
    L("query.run_p50_us", "us", s.run_us.P(0.5), s.run_us.n());
    L("query.run_p99_us", "us", s.run_us.P(0.99), s.run_us.n());
    L("query.planner_hit_ratio", "ratio",
      Ratio(static_cast<double>(s.planner_hits),
            static_cast<double>(s.planner_hits + s.planner_misses)),
      s.planner_hits + s.planner_misses);
    L("browse.nav_p50_us", "us", s.nav_us.P(0.5), s.nav_us.n());
    L("browse.nav_p99_us", "us", s.nav_us.P(0.99), s.nav_us.n());
    L("browse.probe_p50_us", "us", s.probe_us.P(0.5), s.probe_us.n());
    L("browse.probe_p99_us", "us", s.probe_us.P(0.99), s.probe_us.n());
    L("browse.dist_p50_us", "us", s.dist_us.P(0.5), s.dist_us.n());
    L("browse.probe_queries_per_success", "ratio",
      Ratio(static_cast<double>(s.probe_queries),
            static_cast<double>(s.probe_successes)), s.probe_successes);
    L("store.bytes_per_fact", "B", mem.ok() ? Ratio(static_cast<double>(mem->total()),
                                                    static_cast<double>(closure_facts))
                                            : 0, 0);
    L("store.segments", "count", mem.ok() ? static_cast<double>(mem->base.runs + mem->derived.runs) : 0, 0);
    L("store.overlay_bytes", "B", mem.ok() ? static_cast<double>(mem->base.overlay_bytes + mem->derived.overlay_bytes) : 0, 0);
    L("store.wal_records_per_batch", "ratio",
      Ratio(static_cast<double>(g2.wal_records), static_cast<double>(g2.wal_batches)), 0);
    L("store.wal_bytes_per_fact", "B",
      Ratio(static_cast<double>(WalBytes(*sys.store)), static_cast<double>(g2.wal_records)), 0);
    L("store.wal_append_p50_us", "us", s.wal_us.P(0.5), s.wal_us.n());
    L("store.compaction_merges", "count", static_cast<double>(cs.merges), 0);
    L("store.compaction_bytes_per_fact", "B",
      Ratio(static_cast<double>(cs.bytes_merged), static_cast<double>(g2.wal_records)), 0);
    L("store.compaction_backpressure_hits", "count",
      static_cast<double>(cs.backpressure_hits), 0);
    L("trace.overhead_us", "us",
      (s.overhead_recorded_first_us.P(0.5) +
       s.overhead_recorded_second_us.P(0.5)) / 2,
      s.overhead_recorded_first_us.n() + s.overhead_recorded_second_us.n());

    // The bases of every ratio above.
    std::printf("bases asserted=%zu derived=%zu candidates=%zu "
                "planner_hits=%llu planner_misses=%llu (%s) probe_queries=%llu "
                "probe_successes=%llu wal_records=%llu wal_batches=%llu "
                "wal_bytes=%llu compaction_bytes=%llu closure_facts=%zu "
                "storage_bytes=%zu\n",
                sys.asserted, sys.derived, sys.candidates,
                static_cast<unsigned long long>(s.planner_hits),
                static_cast<unsigned long long>(s.planner_misses),
                planner_source,
                static_cast<unsigned long long>(s.probe_queries),
                static_cast<unsigned long long>(s.probe_successes),
                static_cast<unsigned long long>(g2.wal_records),
                static_cast<unsigned long long>(g2.wal_batches),
                static_cast<unsigned long long>(WalBytes(*sys.store)),
                static_cast<unsigned long long>(cs.bytes_merged),
                closure_facts, mem.ok() ? mem->total() : size_t{0});
    std::vector<Span> spans = tracer.Merged();
    const std::string path = dir + "/spans.jsonl";
    if (!Tracer::WriteJsonLines(spans, path)) {
      errors.push_back("cannot write " + path);
    }
    std::printf("spans %zu written to %s\n", spans.size(), path.c_str());
    // Self time per span name, from the recorded parent links.
    std::map<uint64_t, int64_t> self = Tracer::SelfTimes(spans);
    std::map<std::string, std::vector<double>> by_name;
    for (const Span& sp : spans) by_name[sp.name].push_back(self[sp.id] / 1e3);
    for (const auto& [name, v] : by_name) {
      std::printf("self %-22s p50 %12.3f us  n=%zu\n", name.c_str(), Median(v),
                  v.size());
    }
    const double commit_p50 = single_commit_ms.P(0.5);
    std::printf("single-writer commit p50 %.3f ms; stage spans cover %.3f ms; "
                "unattributed %.3f ms (%.1f%%)\n",
                commit_p50, stage_sum, commit_p50 - stage_sum,
                100.0 * Ratio(commit_p50 - stage_sum, commit_p50));
  }

  for (const Metric& m : e2e) PrintMetric(m);
  for (const Metric& m : layer) PrintMetric(m);
  for (const std::string& e : errors) std::printf("check FAILED: %s\n", e.c_str());
  std::printf("acked_writes %llu\n", static_cast<unsigned long long>(acked_facts));

  StopSystem(&sys);
  std::error_code ec;
  std::filesystem::remove(sys.prefix + ".snap", ec);

  // The machine-readable line carries the metrics BENCHMARK.json names.
  std::vector<Metric> out;
  const char* wanted_e2e[] = {"setup_s",   "p50_ms",           "tail_ms",
                              "ops_per_s", "signature_p50_ms", "engine_rss_mb"};
  if (args.trace) {
    out = layer;
  } else {
    for (const char* w : wanted_e2e) {
      for (const Metric& m : e2e) {
        if (m.name == w) out.push_back(m);
      }
    }
  }
  const bool correct = errors.empty();
  PrintResult(correct, sent, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lsd_perfbench --workload browse|write|mixed "
                 "--seed N --seconds S --trace 0|1 [--dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
