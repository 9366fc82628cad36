#ifndef FAST_PERFBENCH_REPLAY_H_
#define FAST_PERFBENCH_REPLAY_H_

// The traced replay: one thread runs a fixed request sequence by calling each
// layer's public function directly (the same calls, in the same order, that
// GraphState + RunFastWithCst or RunCstOnDevice make inside MatchService),
// with a span around every call. Spans live in memory and are written out
// when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.h"
#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "perfbench/workload.h"
#include "query/query_graph.h"
#include "service/match_service.h"
#include "util/status.h"

namespace perfbench {

// In-memory span recorder. A span's parent is the innermost span open when it
// began; every span carries the id of the request it belongs to. Disabled, it
// records nothing (the untraced replay used to price the recording itself).
class SpanLog {
 public:
  struct Span {
    const char* name = "";  // string literal
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };

  explicit SpanLog(bool enabled);

  void set_request(std::uint64_t id) { request_ = id; }
  int Begin(const char* name);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: name, start_ns, end_ns, parent, request.
  fast::Status WriteJsonl(const std::string& path) const;

 private:
  std::int64_t Now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), index_(log.Begin(name)) {}
  ~ScopedSpan() { log_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// A fixed, seeded operation sequence: reads of q0-q8 and (churn) writes.
struct ReplayOp {
  bool write = false;
  int query = 0;  // reads
};

struct ReplayScript {
  // `graph` is the generated graph (epoch 0); deltas[e] turns epoch e's graph
  // into epoch e + 1's; oracle[e] holds the reference counts on epoch e.
  std::shared_ptr<const fast::Graph> graph;
  std::vector<fast::GraphDelta> deltas;
  std::vector<QueryCounts> oracle;
  std::vector<ReplayOp> ops;
};

// What a read produced, in the terms the service reports in FastRunResult.
struct ReadRecord {
  int query = 0;
  std::size_t epoch = 0;  // index into ReplayScript::oracle
  std::uint64_t embeddings = 0;
  std::size_t partitions = 0;
  std::size_t partition_words = 0;   // Σ|CST_i|
  std::size_t partition_calls = 0;   // Alg. 2 recursive calls
  fast::KernelCounters counters;
  double kernel_seconds = 0;  // modeled
  double pcie_seconds = 0;    // modeled
  double stall_cycles = 0;       // pipeline sim (device mode)
  std::size_t built_cst_words = 0;  // CST built on a miss
};

struct ReplayResult {
  std::vector<ReadRecord> reads;
  double wall_seconds = 0;  // the scripted ops, after the warm pass
};

// Runs the script single-threaded. The plan cache is warmed with one pass
// over q0-q8 before `log` records anything, as the service's set-up does.
// Op i records its spans under request id first_request + i.
fast::StatusOr<ReplayResult> Replay(const fast::service::ServiceOptions& options,
                                    const std::vector<fast::QueryGraph>& queries,
                                    const ReplayScript& script,
                                    std::uint64_t first_request, SpanLog& log);

// Sum of span self times (duration minus the time direct children cover) by
// span name, and per request the sum over the request's non-root spans.
struct SelfTimes {
  std::map<std::string, double> by_name_seconds;
  std::map<std::uint64_t, double> layers_by_request_seconds;
};
SelfTimes ComputeSelfTimes(const SpanLog& log);

}  // namespace perfbench

#endif  // FAST_PERFBENCH_REPLAY_H_
