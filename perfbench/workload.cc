#include "perfbench/workload.h"

#include <numeric>

#include "baseline/baseline.h"
#include "bench/bench_serve_common.h"

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the short form:
// fit-sf1 is emulation-bound (one partition per CST), split-sf3 is
// partition-bound (Port_max 512 splits q4 thousands of ways), churn-sf1 pays
// order + build + serialize after every publish, device-sf1 is the only one
// that runs the shared executor and the cycle-stepped pipeline sim.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "fit-sf1", .scale_factor = 1.0, .scaled_card = true,
       .device_mode = false, .churn = false, .replay_blocks = 2},
      {.name = "split-sf3", .scale_factor = 3.0, .scaled_card = false,
       .device_mode = false, .churn = false, .replay_blocks = 1},
      {.name = "churn-sf1", .scale_factor = 1.0, .scaled_card = true,
       .device_mode = false, .churn = true, .replay_blocks = 3},
      {.name = "device-sf1", .scale_factor = 1.0, .scaled_card = true,
       .device_mode = true, .churn = false, .replay_blocks = 2},
  };
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

fast::service::ServiceOptions MakeServiceOptions(const WorkloadSpec& spec,
                                                 bool tracing) {
  fast::service::ServiceOptions options;
  options.num_workers = kWorkers;
  options.run.fpga =
      spec.scaled_card ? fast::bench::ServeBenchFpgaConfig() : fast::AlveoU200Config();
  options.device_mode = spec.device_mode;
  options.tracing = tracing;
  return options;
}

fast::LdbcConfig MakeGraphConfig(const WorkloadSpec& spec, double scale) {
  fast::LdbcConfig config;
  config.scale_factor = spec.scale_factor * scale;
  return config;
}

QuerySequence::QuerySequence(std::uint64_t seed, std::size_t client)
    : rng_(seed * 0x9E3779B97F4A7C15ULL + 1000003ULL * (client + 1)),
      block_(fast::kNumLdbcQueries),
      pos_(block_.size()) {}

int QuerySequence::Next() {
  if (pos_ == block_.size()) {
    std::iota(block_.begin(), block_.end(), 0);
    rng_.Shuffle(&block_);
    pos_ = 0;
  }
  return block_[pos_++];
}

fast::StatusOr<QueryCounts> OracleCounts(const fast::Graph& g,
                                         const std::vector<fast::QueryGraph>& queries,
                                         std::int64_t offset) {
  const auto daf = fast::MakeBaseline(fast::BaselineKind::kDaf);
  QueryCounts counts{};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    FAST_ASSIGN_OR_RETURN(fast::BaselineRunResult r,
                          daf->Run(queries[i], g, fast::BaselineOptions{}));
    counts[i] = r.embeddings + static_cast<std::uint64_t>(offset);
  }
  return counts;
}

fast::StatusOr<Epoch> NextEpoch(const fast::Graph& base,
                                const std::vector<fast::QueryGraph>& queries,
                                fast::Rng& rng, std::int64_t oracle_offset) {
  Epoch e;
  e.delta = fast::RandomChurnDelta(base, kChurnEdges, rng);
  FAST_ASSIGN_OR_RETURN(fast::Graph next, fast::ApplyDelta(base, e.delta));
  e.graph = std::make_shared<const fast::Graph>(std::move(next));
  FAST_ASSIGN_OR_RETURN(e.oracle, OracleCounts(*e.graph, queries, oracle_offset));
  return e;
}

std::uint64_t ChurnSeed(std::uint64_t seed) { return seed ^ 0xC4A11ULL; }

}  // namespace perfbench
