// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>] [--oracle-offset <k>] [--spans-out <path>]
//
// --trace 0 (end to end): kClients closed-loop client threads drive one
// MatchService through the Frontend API (Submit/Wait, plus ApplyDelta on the
// churn workload) with the service's request tracing off, for --seconds of
// timed wall time. Prints qps, latency percentiles, modeled device time per
// read, set-up time and peak RSS.
//
// --trace 1 (per layer): a fixed seeded request sequence runs through
// MatchService one read at a time, then the same per-client sequences run
// kClients at once (queueing and device batching only act under
// concurrency), then the sequence runs three times as the benchmark's
// replay (replay.h: every layer called directly): untraced, traced,
// untraced. Prints per-layer self times and counts from the traced replay's
// spans, replay fidelity against the service's own results, and the
// reconciliation between replay and service.
//
// Every read is checked against the DAF baseline's count on the graph it
// ran on; the oracle runs outside timed phases and outside set-up. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exit status: 0 correct, 1 a check failed (result still
// printed), 2 bad arguments or a run that could not complete (no result).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ldbc/ldbc.h"
#include "obs/trace.h"
#include "perfbench/replay.h"
#include "perfbench/workload.h"
#include "service/match_service.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using fast::service::MatchService;
using fast::service::RequestResult;

constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  double scale = 1.0;
  std::int64_t oracle_offset = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  char* end = nullptr;
  const auto number = [&](const char* key, double* out) {
    auto it = kv.find(key);
    if (it == kv.end()) return false;
    *out = std::strtod(it->second.c_str(), &end);
    return end != it->second.c_str() && *end == '\0' && std::isfinite(*out);
  };
  double seed = 0, trace = 0, offset = 0;
  if (!number("seed", &seed) || !number("seconds", &a->seconds) ||
      !number("trace", &trace) || seed < 0 || seed > 1e18 || a->seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return false;
  }
  a->seed = static_cast<std::uint64_t>(seed);
  a->trace = static_cast<int>(trace);
  if (kv.count("scale") != 0 && (!number("scale", &a->scale) || a->scale <= 0)) {
    return false;
  }
  if (kv.count("oracle-offset") != 0) {
    if (!number("oracle-offset", &offset) || std::fabs(offset) > 1e9) return false;
    a->oracle_offset = static_cast<std::int64_t>(offset);
  }
  a->workload = kv["workload"];
  a->spans_out = kv.count("spans-out") != 0 ? kv["spans-out"] : "";
  return true;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Pass/fail tally of every checked operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (failed < 8) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    ++failed;
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

// Reports a run that could not complete; the caller returns its value, 2,
// without printing a result.
int Abort(const char* what, const fast::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, status.ToString().c_str());
  return 2;
}

std::string ReadDescription(int q, const RequestResult& r, std::uint64_t want) {
  return "q" + std::to_string(q) + ": status " + r.status.ToString() +
         ", embeddings " + std::to_string(r.status.ok() ? r.run.embeddings : 0) +
         ", oracle " + std::to_string(want);
}

struct Service {
  std::unique_ptr<MatchService> service;
  double setup_seconds = 0;
  double generate_seconds = 0;
  std::vector<std::pair<int, RequestResult>> warm;
};

// Set-up: graph generation, service construction and one warm pass over
// q0-q8 that fills the plan cache.
fast::StatusOr<Service> SetUp(const WorkloadSpec& spec, const Args& args,
                              const std::vector<fast::QueryGraph>& queries,
                              bool service_tracing) {
  Service s;
  fast::Timer total;
  fast::Timer gen;
  FAST_ASSIGN_OR_RETURN(fast::Graph g, fast::GenerateLdbcGraph(
                                           MakeGraphConfig(spec, args.scale)));
  s.generate_seconds = gen.ElapsedSeconds();
  s.service = std::make_unique<MatchService>(std::move(g),
                                             MakeServiceOptions(spec, service_tracing));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    fast::StatusOr<RequestResult> r = s.service->SubmitAndWait(queries[q]);
    FAST_RETURN_IF_ERROR(r.status());
    s.warm.emplace_back(static_cast<int>(q), std::move(*r));
  }
  s.setup_seconds = total.ElapsedSeconds();
  return s;
}

void CheckWarm(const Service& s, const QueryCounts& oracle, Tally* tally) {
  for (const auto& [q, r] : s.warm) {
    const std::uint64_t want = oracle[static_cast<std::size_t>(q)];
    tally->Check(r.status.ok() && r.run.embeddings == want,
                 "warm " + ReadDescription(q, r, want));
  }
}

struct ClientLog {
  std::vector<int> query;
  std::vector<double> latency_seconds;
  std::vector<double> modeled_seconds;
  double busy_seconds = 0;  // first Submit to last result
  double queue_seconds = 0;  // Σ Submit -> dispatch
  double device_wait_seconds = 0;  // Σ device_wait span (traced service only)
  Tally tally;
};

// One closed-loop client: submits its next read only after the previous one
// returned. It runs whole blocks of q0-q8, starting another block while
// fewer than `max_blocks` are done and `deadline` has not passed, so the
// reads it completes are exactly uniform over the nine queries.
void RunClient(MatchService& service, const std::vector<fast::QueryGraph>& queries,
               QuerySequence& seq, const QueryCounts& oracle,
               std::uint64_t expected_epoch, std::size_t max_blocks,
               Clock::time_point deadline, ClientLog* log) {
  fast::Timer busy;
  const std::size_t n_max = max_blocks * fast::kNumLdbcQueries;
  for (std::size_t n = 0; n < n_max; ++n) {
    if (n % fast::kNumLdbcQueries == 0 && Clock::now() >= deadline) break;
    const int q = seq.Next();
    const std::uint64_t want = oracle[static_cast<std::size_t>(q)];
    fast::Timer t;
    fast::StatusOr<fast::service::Frontend::RequestId> id =
        service.Submit(queries[static_cast<std::size_t>(q)]);
    fast::StatusOr<RequestResult> r =
        id.ok() ? service.Wait(*id) : fast::StatusOr<RequestResult>(id.status());
    const double latency = t.ElapsedSeconds();
    if (!r.ok()) {
      log->tally.Check(false, "q" + std::to_string(q) + ": " + r.status().ToString());
      continue;
    }
    const bool ok = r->status.ok() && r->run.embeddings == want &&
                    (expected_epoch == 0 || r->graph_epoch == expected_epoch);
    log->tally.Check(ok, ReadDescription(q, *r, want) + ", epoch " +
                             std::to_string(r->graph_epoch));
    if (!ok) continue;
    log->query.push_back(q);
    log->latency_seconds.push_back(latency);
    log->modeled_seconds.push_back(r->run.kernel_seconds + r->run.pcie_seconds);
    log->queue_seconds += r->queue_seconds;
    if (r->trace != nullptr) {
      log->device_wait_seconds += r->trace->SpanSeconds(fast::obs::Span::kDeviceWait);
    }
  }
  log->busy_seconds += busy.ElapsedSeconds();
}

// The kClients closed-loop clients: their seeded query sequences and logs.
// Run starts one thread per client and joins them all.
struct Clients {
  explicit Clients(std::uint64_t seed) : logs(kClients) {
    for (std::size_t c = 0; c < kClients; ++c) seqs.emplace_back(seed, c);
  }
  void Run(MatchService& service, const std::vector<fast::QueryGraph>& queries,
           const QueryCounts& oracle, std::uint64_t expected_epoch,
           std::size_t max_blocks, Clock::time_point deadline) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, std::ref(service), std::cref(queries),
                           std::ref(seqs[c]), std::cref(oracle), expected_epoch,
                           max_blocks, deadline, &logs[c]);
    }
    for (std::thread& t : threads) t.join();
  }

  std::vector<QuerySequence> seqs;
  std::vector<ClientLog> logs;
};

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].second.first) ? metrics[i].second.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), v, metrics[i].second.second);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintTable(const Metrics& metrics) {
  for (const auto& [name, value] : metrics) {
    std::printf("  %-30s %14.4f %s\n", name.c_str(), value.first, value.second);
  }
}

// ---------------------------------------------------------------------------
// End-to-end run.

int RunEndToEnd(const WorkloadSpec& spec, const Args& args,
                const std::vector<fast::QueryGraph>& queries) {
  Tally tally;
  // Set-up is timed kSetupRepeats times before the timed phase and as many
  // times after it, so its median spans the run rather than its first
  // seconds. The last set-up before the timed phase is the one served.
  std::vector<double> setup_seconds;
  Service svc;
  const auto set_up = [&]() -> fast::Status {
    svc = Service();  // the previous repeat's service shuts down first
    fast::StatusOr<Service> s = SetUp(spec, args, queries, /*service_tracing=*/false);
    if (!s.ok()) return s.status();
    svc = std::move(*s);
    setup_seconds.push_back(svc.setup_seconds);
    return fast::Status::OK();
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    const fast::Status st = set_up();
    if (!st.ok()) return Abort("set-up failed", st);
  }
  MatchService& service = *svc.service;
  std::shared_ptr<const fast::Graph> graph = service.snapshot().graph;
  const double rss_before_oracle_mb = PeakRssMb();
  const fast::StatusOr<QueryCounts> oracle =
      OracleCounts(*graph, queries, args.oracle_offset);
  if (!oracle.ok()) return Abort("oracle failed", oracle.status());
  const double rss_after_oracle_mb = PeakRssMb();
  CheckWarm(svc, *oracle, &tally);

  Clients clients(args.seed);
  std::vector<double> write_seconds;
  double timed_seconds = 0;
  double qps = 0;

  if (!spec.churn) {
    // Each client's rate over its own timed wall, summed: the client whose
    // last block ends first is not counted idle while the other finishes.
    fast::Timer timed;
    clients.Run(service, queries, *oracle, 0, SIZE_MAX,
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(args.seconds)));
    timed_seconds = timed.ElapsedSeconds();
    for (const ClientLog& log : clients.logs) {
      qps += static_cast<double>(log.latency_seconds.size()) / log.busy_seconds;
    }
  } else {
    // Epochs: one write, then one block of q0-q8 per client on the graph it
    // published, then a barrier. The next delta and its oracle are computed
    // between epochs, with the clock stopped.
    fast::Rng rng(ChurnSeed(args.seed));
    while (timed_seconds < args.seconds) {
      fast::StatusOr<Epoch> next = NextEpoch(*graph, queries, rng, args.oracle_offset);
      if (!next.ok()) return Abort("churn epoch failed", next.status());
      fast::Timer timed;
      fast::Timer write;
      fast::StatusOr<std::uint64_t> epoch = service.ApplyDelta(next->delta);
      write_seconds.push_back(write.ElapsedSeconds());
      tally.Check(epoch.ok(), "ApplyDelta: " + epoch.status().ToString());
      if (!epoch.ok()) break;
      clients.Run(service, queries, next->oracle, *epoch, 1, Clock::time_point::max());
      timed_seconds += timed.ElapsedSeconds();
      graph = next->graph;
    }
  }

  std::vector<double> latency, modeled;
  std::vector<std::vector<double>> by_query(fast::kNumLdbcQueries);
  for (const ClientLog& log : clients.logs) {
    tally.Merge(log.tally);
    for (std::size_t i = 0; i < log.query.size(); ++i) {
      by_query[static_cast<std::size_t>(log.query[i])].push_back(log.latency_seconds[i]);
    }
    latency.insert(latency.end(), log.latency_seconds.begin(), log.latency_seconds.end());
    modeled.insert(modeled.end(), log.modeled_seconds.begin(), log.modeled_seconds.end());
  }
  double modeled_sum = 0;
  for (double m : modeled) modeled_sum += m;
  // The median latency of each query, summed over q0-q8: the typical time
  // to serve one read of every query in the mix. The 50th percentile of all
  // reads is not reported: on fit-sf1 it falls near the top of the 6-10 ms
  // cluster of q0, q2 and q6, just below the gap to q8 at ~20 ms, so it
  // follows the width of that cluster's tail, not a typical latency, and
  // spread 21-25% across runs of the same code.
  std::vector<double> query_p50(by_query.size());
  double mix_p50 = 0;
  for (std::size_t q = 0; q < by_query.size(); ++q) {
    query_p50[q] = Percentile(by_query[q], 0.5);
    mix_p50 += query_p50[q];
  }

  // The remaining set-up repeats, after the timed phase, on fresh services
  // over the same generated graph; their warm reads are checked against the
  // same oracle.
  const double rss_timed_mb = PeakRssMb();
  for (int i = 0; i < kSetupRepeats; ++i) {
    const fast::Status st = set_up();
    if (!st.ok()) return Abort("set-up failed", st);
    CheckWarm(svc, *oracle, &tally);
  }

  const Metrics metrics = {
      {"qps", {spec.churn ? static_cast<double>(latency.size()) / timed_seconds : qps,
               "1/s"}},
      {"mix_p50_ms", {mix_p50 * 1e3, "ms"}},
      {"latency_p90_ms", {Percentile(latency, 0.9) * 1e3, "ms"}},
      {"modeled_device_ms",
       {modeled.empty() ? 0.0 : modeled_sum / static_cast<double>(modeled.size()) * 1e3,
        "ms"}},
      {"setup_s", {Percentile(setup_seconds, 0.5), "s"}},
      {"peak_rss_mb", {rss_timed_mb, "MB"}},
  };
  std::printf("workload %s seed %llu: %zu reads in %.3f s timed, %zu writes\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              latency.size(), timed_seconds, write_seconds.size());
  std::printf("  latency samples %zu (p90 has %zu beyond it); error_rate %.6f (%llu of %llu)\n",
              latency.size(), latency.size() / 10,
              tally.attempted > 0
                  ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
                  : 0.0,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  std::printf("  latency p50 over all reads %.4f ms; per-query p50 ms:",
              Percentile(latency, 0.5) * 1e3);
  for (std::size_t q = 0; q < by_query.size(); ++q) {
    std::printf(" q%zu %.2f", q, query_p50[q] * 1e3);
  }
  std::printf("\n");
  std::printf("  peak RSS before / after the first oracle pass: %.2f / %.2f MB\n",
              rss_before_oracle_mb, rss_after_oracle_mb);
  if (!write_seconds.empty()) {
    std::printf("  write_p50_ms %.4f over %zu ApplyDelta calls\n",
                Percentile(write_seconds, 0.5) * 1e3, write_seconds.size());
  }
  PrintTable(metrics);
  PrintResult(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run.

struct ServiceRead {
  RequestResult result;
  double latency_seconds = 0;
};

int RunTraced(const WorkloadSpec& spec, const Args& args,
              const std::vector<fast::QueryGraph>& queries) {
  Tally tally;
  // The service's own request tracing is on in the traced run only, to read
  // the device-wait span no outside caller can see.
  fast::StatusOr<Service> s = SetUp(spec, args, queries, /*service_tracing=*/true);
  if (!s.ok()) return Abort("set-up failed", s.status());
  MatchService& service = *s->service;

  // The script: replay_blocks blocks of q0-q8 per client, the clients'
  // sequences interleaved read by read; on churn each block follows a write.
  ReplayScript script;
  script.graph = service.snapshot().graph;
  fast::StatusOr<QueryCounts> oracle0 = OracleCounts(*script.graph, queries, args.oracle_offset);
  if (!oracle0.ok()) return Abort("oracle failed", oracle0.status());
  script.oracle.push_back(*oracle0);
  CheckWarm(*s, *oracle0, &tally);
  std::vector<QuerySequence> seqs;
  for (std::size_t c = 0; c < kClients; ++c) seqs.emplace_back(args.seed, c);
  fast::Rng rng(ChurnSeed(args.seed));
  std::shared_ptr<const fast::Graph> last = script.graph;
  for (std::size_t b = 0; b < spec.replay_blocks; ++b) {
    if (spec.churn) {
      fast::StatusOr<Epoch> e = NextEpoch(*last, queries, rng, args.oracle_offset);
      if (!e.ok()) return Abort("churn epoch failed", e.status());
      script.deltas.push_back(std::move(e->delta));
      last = e->graph;
      script.oracle.push_back(e->oracle);
      script.ops.push_back({.write = true, .query = 0});
    }
    for (std::size_t j = 0; j < fast::kNumLdbcQueries; ++j) {
      for (QuerySequence& seq : seqs) script.ops.push_back({.write = false, .query = seq.Next()});
    }
  }

  // Pass 1: the service, one read at a time.
  const fast::service::ServiceStats before = service.stats();
  std::vector<ServiceRead> served;
  std::vector<double> write_seconds;
  std::size_t epoch = 0;
  for (const ReplayOp& op : script.ops) {
    if (op.write) {
      fast::Timer w;
      fast::StatusOr<std::uint64_t> published = service.ApplyDelta(script.deltas[epoch]);
      write_seconds.push_back(w.ElapsedSeconds());
      ++epoch;
      tally.Check(published.ok() && *published == epoch + 1,
                  "ApplyDelta: " + published.status().ToString());
      continue;
    }
    const std::uint64_t want = script.oracle[epoch][static_cast<std::size_t>(op.query)];
    fast::Timer t;
    fast::StatusOr<RequestResult> r =
        service.SubmitAndWait(queries[static_cast<std::size_t>(op.query)]);
    const double latency = t.ElapsedSeconds();
    if (!r.ok()) return Abort("service read failed", r.status());
    tally.Check(r->status.ok() && r->run.embeddings == want,
                "service " + ReadDescription(op.query, *r, want));
    served.push_back({std::move(*r), latency});
  }
  const fast::service::ServiceStats after = service.stats();

  // Pass 2: the same per-client read sequences, kClients at once, for the
  // layers that only act under concurrency: queueing and device batching.
  // Reads only; on churn they run on the last epoch's graph.
  Clients concurrent(args.seed);
  concurrent.Run(service, queries, script.oracle.back(), 0, spec.replay_blocks,
                 Clock::time_point::max());
  const fast::service::ServiceStats after_concurrent = service.stats();
  service.Shutdown();
  double concurrent_reads = 0, queue_wait = 0, device_wait = 0;
  for (const ClientLog& c : concurrent.logs) {
    tally.Merge(c.tally);
    concurrent_reads += static_cast<double>(c.latency_seconds.size());
    queue_wait += c.queue_seconds;
    device_wait += c.device_wait_seconds;
  }
  concurrent_reads = std::max(1.0, concurrent_reads);

  // The replay, in rounds of three passes (untraced, traced, untraced) until
  // --seconds of replay time have passed. Bracketing each traced pass keeps
  // warm-up order out of the recording-overhead estimate.
  const fast::service::ServiceOptions options = MakeServiceOptions(spec, false);
  SpanLog log(true);
  std::vector<ReplayResult> traced;
  double traced_wall = 0, untraced_wall = 0;
  fast::Timer replay_clock;
  while (traced.empty() || replay_clock.ElapsedSeconds() < args.seconds) {
    for (bool record : {false, true, false}) {
      SpanLog quiet(false);
      // Request ids stay unique across rounds: round r's op i is r * |ops| + i + 1.
      fast::StatusOr<ReplayResult> r =
          Replay(options, queries, script, traced.size() * script.ops.size() + 1,
                 record ? log : quiet);
      if (!r.ok()) return Abort("replay failed", r.status());
      // Oracle for every replay; fidelity of each traced replay against the
      // FastRunResult the service returned for the same read.
      for (const ReadRecord& rec : r->reads) {
        const std::uint64_t want = script.oracle[rec.epoch][static_cast<std::size_t>(rec.query)];
        tally.Check(rec.embeddings == want,
                    "replay q" + std::to_string(rec.query) + ": embeddings " +
                        std::to_string(rec.embeddings) + ", oracle " + std::to_string(want));
      }
      if (!record) {
        untraced_wall += r->wall_seconds / 2;
        continue;
      }
      traced_wall += r->wall_seconds;
      traced.push_back(std::move(*r));
    }
  }
  std::size_t fidelity_mismatches = 0;
  for (const ReplayResult& rr : traced) {
    tally.Check(served.size() == rr.reads.size(), "replay read count");
    for (std::size_t i = 0; i < served.size() && i < rr.reads.size(); ++i) {
      const fast::FastRunResult& sr = served[i].result.run;
      const ReadRecord& rec = rr.reads[i];
      const fast::KernelCounters& a = sr.counters;
      const fast::KernelCounters& b = rec.counters;
      const bool same =
          sr.partition_stats.num_partitions == rec.partitions &&
          sr.partition_stats.total_size_words == rec.partition_words &&
          a.partial_results == b.partial_results && a.edge_tasks == b.edge_tasks &&
          a.visited_tasks == b.visited_tasks && a.rounds == b.rounds &&
          a.results == b.results && a.max_buffer_entries == b.max_buffer_entries &&
          sr.kernel_seconds == rec.kernel_seconds && sr.pcie_seconds == rec.pcie_seconds;
      if (!same) ++fidelity_mismatches;
      tally.Check(same, "replay fidelity, read " + std::to_string(i) + " q" +
                            std::to_string(rec.query));
    }
  }

  // Per-layer numbers: span self times and counts per read (per write for
  // the write path), over every traced round.
  const SelfTimes self = ComputeSelfTimes(log);
  const auto self_s = [&](const char* name) {
    auto it = self.by_name_seconds.find(name);
    return it == self.by_name_seconds.end() ? 0.0 : it->second;
  };
  double partitions = 0, words = 0, calls = 0, rounds = 0, partials = 0, built = 0,
         stalls = 0, kernel = 0, pcie = 0;
  std::size_t n_reads = 0;
  for (const ReplayResult& rr : traced) {
    for (const ReadRecord& rec : rr.reads) {
      ++n_reads;
      partitions += static_cast<double>(rec.partitions);
      words += static_cast<double>(rec.partition_words);
      calls += static_cast<double>(rec.partition_calls);
      rounds += static_cast<double>(rec.counters.rounds);
      partials += static_cast<double>(rec.counters.partial_results);
      built += static_cast<double>(rec.built_cst_words);
      stalls += rec.stall_cycles;
      kernel += rec.kernel_seconds;
      pcie += rec.pcie_seconds;
    }
  }
  const double reads = static_cast<double>(std::max<std::size_t>(1, n_reads));
  const auto per_read_ms = [&](double seconds) { return seconds / reads * 1e3; };
  double reported_partition = 0;
  for (const ServiceRead& r : served) reported_partition += r.result.run.partition_seconds;
  reported_partition /= static_cast<double>(std::max<std::size_t>(1, served.size()));
  // Each traced read against the pass-1 latency of the same script read.
  std::vector<double> unexplained;
  for (std::size_t round = 0; round < traced.size(); ++round) {
    for (std::size_t i = 0, read = 0; i < script.ops.size() && read < served.size(); ++i) {
      if (script.ops[i].write) continue;
      auto it = self.layers_by_request_seconds.find(round * script.ops.size() + i + 1);
      const double layers = it == self.layers_by_request_seconds.end() ? 0.0 : it->second;
      unexplained.push_back(served[read++].latency_seconds - layers);
    }
  }
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double lookups = hits + static_cast<double>(after.cache.misses - before.cache.misses);
  const double dev_rounds =
      static_cast<double>(after_concurrent.device.rounds - after.device.rounds);
  const double dev_items =
      static_cast<double>(after_concurrent.device.items - after.device.items);
  const double writes = static_cast<double>(write_seconds.size() * traced.size());

  const Metrics metrics = {
      {"cst.partition_self_ms", {per_read_ms(self_s("cst.partition")), "ms"}},
      {"cst.partition_reported_ms", {reported_partition * 1e3, "ms"}},
      {"cst.partitions", {partitions / reads, "count"}},
      {"cst.partition_words", {words / reads, "words"}},
      {"cst.partition_calls", {calls / reads, "count"}},
      {"cst.workload_estimate_ms", {per_read_ms(self_s("cst.workload_estimate")), "ms"}},
      {"core.kernel_emulation_ms", {per_read_ms(self_s("core.kernel")), "ms"}},
      {"core.kernel_rounds", {rounds / reads, "count"}},
      {"core.kernel_partials", {partials / reads, "count"}},
      {"cst.deserialize_ms", {per_read_ms(self_s("cst.deserialize")), "ms"}},
      {"query.order_ms", {per_read_ms(self_s("query.order")), "ms"}},
      {"cst.build_ms", {per_read_ms(self_s("cst.build")), "ms"}},
      {"cst.serialize_ms", {per_read_ms(self_s("cst.serialize")), "ms"}},
      {"cst.words", {built / reads, "words"}},
      {"service.canonicalize_ms", {per_read_ms(self_s("service.canonicalize")), "ms"}},
      {"service.plan_cache_ms",
       {per_read_ms(self_s("service.plan_lookup") + self_s("service.plan_insert")), "ms"}},
      {"service.plan_cache.hit_rate", {lookups > 0 ? hits / lookups : 0.0, "ratio"}},
      {"service.queue_wait_ms", {queue_wait / concurrent_reads * 1e3, "ms"}},
      {"graph.apply_delta_ms",
       {writes > 0 ? self_s("graph.apply_delta") / writes * 1e3 : 0.0, "ms"}},
      {"graph.generate_s", {s->generate_seconds, "s"}},
      {"fpga.modeled_kernel_ms", {per_read_ms(kernel), "ms"}},
      {"fpga.modeled_pcie_ms", {per_read_ms(pcie), "ms"}},
      {"fpga.cycle_model_ms", {per_read_ms(self_s("fpga.cycle_model")), "ms"}},
      {"fpga.pipeline_sim_ms", {per_read_ms(self_s("fpga.pipeline_sim")), "ms"}},
      {"fpga.pipeline_stall_cycles", {stalls / reads, "cycles"}},
      {"device.rounds", {dev_rounds / concurrent_reads, "count"}},
      {"device.items_per_round", {dev_rounds > 0 ? dev_items / dev_rounds : 0.0, "count"}},
      {"device.wait_ms", {device_wait / concurrent_reads * 1e3, "ms"}},
      {"trace.unexplained_ms", {Percentile(unexplained, 0.5) * 1e3, "ms"}},
      {"trace.overhead_pct",
       {(traced_wall - untraced_wall) / untraced_wall * 100.0,
        "%"}},
      {"trace.fidelity_mismatches", {static_cast<double>(fidelity_mismatches), "count"}},
  };
  if (!args.spans_out.empty()) {
    const fast::Status w = log.WriteJsonl(args.spans_out);
    if (!w.ok()) return Abort("writing spans failed", w);
  }
  std::printf("workload %s seed %llu: %zu traced replays of %zu reads and %zu writes, "
              "%zu spans\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), traced.size(),
              served.size(), write_seconds.size(), log.spans().size());
  std::printf("  layer self time per read, largest first:\n");
  std::vector<std::pair<double, std::string>> layers;
  for (const auto& [name, seconds] : self.by_name_seconds) {
    if (name != "request" && name != "write" && name != "graph.apply_delta") {
      layers.emplace_back(seconds / reads * 1e3, name);
    }
  }
  std::sort(layers.rbegin(), layers.rend());
  for (const auto& [ms, name] : layers) std::printf("    %-24s %12.4f ms\n", name.c_str(), ms);
  PrintTable(metrics);
  PrintResult(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale <f>] [--oracle-offset <k>] "
                 "[--spans-out <path>]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& n : perfbench::WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:%s\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  const std::vector<fast::QueryGraph> queries = fast::AllLdbcQueries();
  return args.trace == 0 ? perfbench::RunEndToEnd(*spec, args, queries)
                         : perfbench::RunTraced(*spec, args, queries);
}
