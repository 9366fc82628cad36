#include "perfbench/replay.h"

#include <cstdio>
#include <optional>

#include "core/kernel.h"
#include "core/result_collector.h"
#include "cst/cst_serialize.h"
#include "cst/partition.h"
#include "cst/workload.h"
#include "fpga/cycle_model.h"
#include "fpga/pipeline_sim.h"
#include "query/matching_order.h"
#include "service/plan_cache.h"
#include "service/query_signature.h"
#include "util/timer.h"

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  s.start_ns = Now();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = Now();
  open_.pop_back();
}

fast::Status SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return fast::Status::Internal("cannot write " + path);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  if (std::fclose(f) != 0) return fast::Status::Internal("cannot close " + path);
  return fast::Status::OK();
}

SelfTimes ComputeSelfTimes(const SpanLog& log) {
  const std::vector<SpanLog::Span>& spans = log.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      self[static_cast<std::size_t>(spans[i].parent)] -=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    }
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out.by_name_seconds[spans[i].name] += self[i];
    if (spans[i].parent >= 0) out.layers_by_request_seconds[spans[i].request] += self[i];
  }
  return out;
}

namespace {

using fast::Cst;
using fast::MatchingOrder;
using fast::Status;
using fast::StatusOr;

// Alg. 2 plus matching of every partition, as RunFastWithCst (inline) or
// RunCstOnDevice + DeviceExecutor::RunRound (device mode) run it.
Status RunPipeline(const fast::service::ServiceOptions& options, const Cst& cst,
                   const MatchingOrder& order, SpanLog& log, ReadRecord* rec) {
  const fast::FpgaConfig& fpga = options.run.fpga;
  const fast::FastVariant variant = options.run.variant;
  const bool device = options.device_mode;
  const std::size_t query_size = cst.layout().query().NumVertices();
  const fast::PartitionConfig pconfig =
      fast::DerivePartitionConfig(fpga, query_size, options.run.partition);
  fast::ResultCollector collector(0);
  std::vector<std::uint64_t> item_bytes;
  double pcie_seconds = 0.0;

  fast::PartitionStats stats;
  Status status;
  {
    ScopedSpan partition_span(log, "cst.partition");
    status = fast::PartitionCst(
        cst, order, pconfig,
        [&](Cst part) -> Status {
          if (!device) {
            ScopedSpan s(log, "cst.workload_estimate");
            (void)fast::EstimateWorkload(part);
          }
          std::vector<fast::RoundWork> round_trace;
          fast::KernelRunResult run;
          {
            ScopedSpan s(log, "core.kernel");
            FAST_ASSIGN_OR_RETURN(
                run, fast::RunKernel(part, order, fpga, &collector,
                                     device ? &round_trace : nullptr));
          }
          rec->counters += run.counters;
          rec->embeddings += run.embeddings;
          if (!device) {
            ScopedSpan s(log, "fpga.cycle_model");
            rec->kernel_seconds += fast::SimulatedKernelSeconds(
                fpga, variant, run, part.SizeWords(), query_size);
            pcie_seconds +=
                fpga.PcieSeconds(static_cast<double>(fast::CstWireBytes(part)));
            return Status::OK();
          }
          fast::PipelineSimResult sim;
          {
            ScopedSpan s(log, "fpga.pipeline_sim");
            FAST_ASSIGN_OR_RETURN(sim,
                                  fast::SimulatePipeline(fpga, variant, round_trace));
          }
          ScopedSpan s(log, "fpga.cycle_model");
          rec->stall_cycles += sim.stall_cycles;
          double cycles = sim.cycles;
          cycles += fast::ResultFlushCycles(fpga, run.embeddings,
                                            part.NumQueryVertices());
          if (variant != fast::FastVariant::kDram) {
            cycles += fast::CstLoadCycles(fpga, part.SizeWords());
          }
          rec->kernel_seconds += fpga.CyclesToSeconds(cycles);
          item_bytes.push_back(fast::CstWireBytes(part));
          return Status::OK();
        },
        &stats);
  }
  FAST_RETURN_IF_ERROR(status);

  if (device) {
    // The executor's per-round transfer attribution, for rounds holding only
    // this read's items (max_batch_items per round, in enqueue order): one
    // DMA transaction of payload + fixed overhead, shared by the items.
    ScopedSpan s(log, "fpga.cycle_model");
    const std::size_t per_round = std::max<std::size_t>(1, options.device.max_batch_items);
    const double overhead = static_cast<double>(options.device.transfer_overhead_bytes);
    for (std::size_t first = 0; first < item_bytes.size(); first += per_round) {
      const std::size_t last = std::min(item_bytes.size(), first + per_round);
      std::uint64_t payload = 0;
      for (std::size_t i = first; i < last; ++i) payload += item_bytes[i];
      const std::uint64_t wire = payload + options.device.transfer_overhead_bytes;
      const double round_pcie = fpga.PcieSeconds(static_cast<double>(wire));
      const double overhead_share = overhead / static_cast<double>(last - first);
      for (std::size_t i = first; i < last; ++i) {
        pcie_seconds += round_pcie * ((static_cast<double>(item_bytes[i]) + overhead_share) /
                                      static_cast<double>(wire));
      }
    }
  }
  rec->pcie_seconds = pcie_seconds;
  rec->partitions = stats.num_partitions;
  rec->partition_words = stats.total_size_words;
  rec->partition_calls = stats.num_recursive_calls;
  return Status::OK();
}

// One read, as GraphState::Execute runs it: canonicalize, plan-cache probe,
// then either decode the cached CST image or compute the order, build the
// CST and publish its image, then the pipeline.
StatusOr<ReadRecord> RunRead(const fast::service::ServiceOptions& options,
                             const fast::QueryGraph& query, const fast::Graph& g,
                             std::uint64_t service_epoch,
                             fast::service::PlanCache& cache, SpanLog& log) {
  ReadRecord rec;
  fast::service::CanonicalQuery canonical;
  {
    ScopedSpan s(log, "service.canonicalize");
    FAST_ASSIGN_OR_RETURN(canonical, fast::service::CanonicalizeQuery(query));
  }
  std::shared_ptr<const fast::service::CachedPlan> plan;
  {
    ScopedSpan s(log, "service.plan_lookup");
    plan = cache.Lookup(canonical.key, service_epoch);
  }
  std::optional<Cst> cst;
  MatchingOrder order;
  if (plan != nullptr) {
    ScopedSpan s(log, "cst.deserialize");
    FAST_ASSIGN_OR_RETURN(cst, fast::DeserializeCst(plan->layout, plan->cst_image));
    order = plan->order;
  } else {
    {
      ScopedSpan s(log, "query.order");
      FAST_ASSIGN_OR_RETURN(order, fast::ComputeMatchingOrder(
                                       canonical.query, g, options.run.order_policy));
    }
    {
      ScopedSpan s(log, "cst.build");
      FAST_ASSIGN_OR_RETURN(cst, fast::BuildCst(canonical.query, g, order.root,
                                                options.run.cst_build));
    }
    rec.built_cst_words = cst->SizeWords();
    auto fresh = std::make_shared<fast::service::CachedPlan>();
    fresh->order = order;
    fresh->layout = cst->layout_ptr();
    {
      ScopedSpan s(log, "cst.serialize");
      fresh->cst_image = fast::SerializeCst(*cst);
    }
    ScopedSpan s(log, "service.plan_insert");
    cache.Insert(canonical.key, service_epoch, std::move(fresh));
  }
  FAST_RETURN_IF_ERROR(RunPipeline(options, *cst, order, log, &rec));
  return rec;
}

}  // namespace

StatusOr<ReplayResult> Replay(const fast::service::ServiceOptions& options,
                              const std::vector<fast::QueryGraph>& queries,
                              const ReplayScript& script, std::uint64_t first_request,
                              SpanLog& log) {
  fast::service::PlanCache cache(options.plan_cache_capacity,
                                 options.plan_cache_byte_budget);
  std::shared_ptr<const fast::Graph> graph = script.graph;
  std::size_t epoch = 0;  // the service publishes epoch e's graph as epoch e + 1

  SpanLog quiet(false);
  for (const fast::QueryGraph& q : queries) {
    FAST_RETURN_IF_ERROR(RunRead(options, q, *graph, 1, cache, quiet).status());
  }

  ReplayResult out;
  fast::Timer wall;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    const ReplayOp& op = script.ops[i];
    log.set_request(first_request + i);
    if (op.write) {
      ScopedSpan root(log, "write");
      StatusOr<fast::Graph> next = fast::Status::Internal("unreachable");
      {
        ScopedSpan s(log, "graph.apply_delta");
        next = fast::ApplyDelta(*graph, script.deltas[epoch]);
      }
      FAST_RETURN_IF_ERROR(next.status());
      graph = std::make_shared<const fast::Graph>(std::move(*next));
      ++epoch;
      cache.InvalidateBefore(epoch + 1);
      continue;
    }
    ScopedSpan root(log, "request");
    FAST_ASSIGN_OR_RETURN(
        ReadRecord rec, RunRead(options, queries[static_cast<std::size_t>(op.query)],
                                *graph, epoch + 1, cache, log));
    rec.query = op.query;
    rec.epoch = epoch;
    out.reads.push_back(rec);
  }
  out.wall_seconds = wall.ElapsedSeconds();
  return out;
}

}  // namespace perfbench
