#ifndef FAST_PERFBENCH_WORKLOAD_H_
#define FAST_PERFBENCH_WORKLOAD_H_

// Workload definitions shared by the end-to-end runs (main.cc) and the
// traced replay (replay.cc): which graph and card each workload serves, the
// seeded request and churn sequences, and the independent oracle the
// benchmark checks every read against.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_delta.h"
#include "ldbc/ldbc.h"
#include "query/query_graph.h"
#include "service/match_service.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

// Load shape shared by every workload.
inline constexpr std::size_t kClients = 2;
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kChurnEdges = 16;

using QueryCounts = std::array<std::uint64_t, fast::kNumLdbcQueries>;

struct WorkloadSpec {
  std::string name;
  double scale_factor = 1.0;
  // ServeBenchFpgaConfig (128 Ki-word BRAM, Port_max 65536) when true, the
  // shipped AlveoU200Config (Port_max 512) otherwise.
  bool scaled_card = true;
  bool device_mode = false;
  bool churn = false;
  // Blocks of q0-q8 per client in the traced replay (and, for churn, the
  // number of epochs it replays).
  std::size_t replay_blocks = 2;
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// The MatchService configuration every workload runs: fast_serve's shipped
// options (variant sep, delta 0, 64-entry plan cache) with the workload's
// card, kWorkers workers and, on device workloads, the shared executor.
fast::service::ServiceOptions MakeServiceOptions(const WorkloadSpec& spec,
                                                 bool tracing);

// The data graph is fixed per workload (LdbcConfig's default generator
// seed): graph-to-graph variation between generator seeds moves every
// end-to-end number by more than any regression bound could tolerate, so
// the run seed drives the request sequences and churn deltas only.
fast::LdbcConfig MakeGraphConfig(const WorkloadSpec& spec, double scale);

// Per-client query sequence: consecutive blocks, each a seeded shuffle of
// q0-q8, so every prefix of whole blocks is exactly uniform over the nine
// queries and the timed mix cannot drift between seeds.
class QuerySequence {
 public:
  QuerySequence(std::uint64_t seed, std::size_t client);
  int Next();

 private:
  fast::Rng rng_;
  std::vector<int> block_;
  std::size_t pos_;
};

// Reference embedding counts of q0-q8 on `g`, from the DAF baseline (an
// implementation independent of the FAST pipeline). `offset` is added to
// every count; a nonzero offset exists only so the self-test can check that
// the gate trips.
fast::StatusOr<QueryCounts> OracleCounts(const fast::Graph& g,
                                         const std::vector<fast::QueryGraph>& queries,
                                         std::int64_t offset);

// One churn epoch: the delta a writer publishes and the graph it produces.
struct Epoch {
  fast::GraphDelta delta;
  std::shared_ptr<const fast::Graph> graph;
  QueryCounts oracle{};
};

// Draws the next churn delta against `base` and applies it off-line so the
// oracle can run on the graph the service will publish.
fast::StatusOr<Epoch> NextEpoch(const fast::Graph& base,
                                const std::vector<fast::QueryGraph>& queries,
                                fast::Rng& rng, std::int64_t oracle_offset);

std::uint64_t ChurnSeed(std::uint64_t seed);

}  // namespace perfbench

#endif  // FAST_PERFBENCH_WORKLOAD_H_
