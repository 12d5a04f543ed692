/// \file bench_micro_framework.cc
/// \brief google-benchmark micro-suite for AutoComp's decision framework:
/// candidate generation, trait computation, MOOP ranking, selection, and
/// rewrite bin-packing. These bound the control-plane overhead of running
/// AutoComp over large fleets (21K-100K tables, §2).

#include <benchmark/benchmark.h>

#include <map>

#include "core/filters.h"
#include "core/observe.h"
#include "core/ranking.h"
#include "core/traits.h"
#include "format/binpack.h"
#include "common/random.h"
#include "common/units.h"

namespace autocomp {
namespace {

std::vector<core::ObservedCandidate> MakePool(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<core::ObservedCandidate> pool;
  pool.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    core::ObservedCandidate oc;
    oc.candidate.table = "db.t" + std::to_string(i);
    oc.stats.target_file_size_bytes = 512 * kMiB;
    const int files = static_cast<int>(rng.UniformInt(4, 400));
    std::vector<int64_t> sizes;
    std::map<std::string, std::vector<int64_t>> by_partition;
    for (int f = 0; f < files; ++f) {
      const int64_t size = static_cast<int64_t>(
          rng.LogNormal(std::log(16.0 * kMiB), 1.2));
      sizes.push_back(size);
      oc.stats.total_bytes += size;
      by_partition["p=" + std::to_string(f % 16)].push_back(size);
    }
    oc.stats.file_sizes = std::move(sizes);
    oc.stats.file_sizes_by_partition = std::make_shared<
        const core::PartitionSizes>(by_partition.begin(), by_partition.end());
    oc.stats.file_count = files;
    pool.push_back(std::move(oc));
  }
  return pool;
}

void BM_TraitComputation(benchmark::State& state) {
  const auto pool = MakePool(state.range(0), 1);
  std::vector<std::shared_ptr<const core::Trait>> traits = {
      std::make_shared<core::FileCountReductionTrait>(),
      std::make_shared<core::FileEntropyTrait>(),
      std::make_shared<core::ComputeCostTrait>(192, 48.0 * kGiB)};
  for (auto _ : state) {
    auto result = core::ComputeTraits(pool, traits);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraitComputation)->Arg(100)->Arg(1000)->Arg(10000);

void BM_PartitionAwareTrait(benchmark::State& state) {
  const auto pool = MakePool(state.range(0), 2);
  core::PartitionAwareFileCountReductionTrait trait;
  for (auto _ : state) {
    double total = 0;
    for (const auto& oc : pool) total += trait.Compute(oc);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionAwareTrait)->Arg(1000);

void BM_MoopRanking(benchmark::State& state) {
  const auto pool = MakePool(state.range(0), 3);
  std::vector<std::shared_ptr<const core::Trait>> traits = {
      std::make_shared<core::FileCountReductionTrait>(),
      std::make_shared<core::ComputeCostTrait>(192, 48.0 * kGiB)};
  const auto traited = core::ComputeTraits(pool, traits);
  const core::MoopRanker ranker = core::MoopRanker::PaperDefault();
  for (auto _ : state) {
    auto ranked = ranker.Rank(traited);
    benchmark::DoNotOptimize(ranked);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MoopRanking)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BudgetedSelection(benchmark::State& state) {
  const auto pool = MakePool(state.range(0), 4);
  std::vector<std::shared_ptr<const core::Trait>> traits = {
      std::make_shared<core::FileCountReductionTrait>(),
      std::make_shared<core::ComputeCostTrait>(192, 48.0 * kGiB)};
  const auto ranked =
      core::MoopRanker::PaperDefault().Rank(core::ComputeTraits(pool, traits));
  const core::BudgetedSelector selector(500.0, "compute_cost_gbhr");
  for (auto _ : state) {
    auto selected = selector.Select(ranked);
    benchmark::DoNotOptimize(selected);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BudgetedSelection)->Arg(1000)->Arg(10000);

void BM_KnapsackSelection(benchmark::State& state) {
  const auto pool = MakePool(state.range(0), 5);
  std::vector<std::shared_ptr<const core::Trait>> traits = {
      std::make_shared<core::FileCountReductionTrait>(),
      std::make_shared<core::ComputeCostTrait>(192, 48.0 * kGiB)};
  const auto ranked =
      core::MoopRanker::PaperDefault().Rank(core::ComputeTraits(pool, traits));
  const core::KnapsackSelector selector(500.0, "compute_cost_gbhr", 500);
  for (auto _ : state) {
    auto selected = selector.Select(ranked);
    benchmark::DoNotOptimize(selected);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KnapsackSelection)->Arg(1000);

void BM_FilterChain(benchmark::State& state) {
  const auto pool = MakePool(state.range(0), 6);
  std::vector<std::shared_ptr<const core::CandidateFilter>> filters = {
      std::make_shared<core::MinSmallFilesFilter>(8),
      std::make_shared<core::MinSizeFilter>(64 * kMiB),
      std::make_shared<core::RecentCreationFilter>(kHour)};
  for (auto _ : state) {
    auto kept = core::ApplyFilters(pool, filters, 10 * kHour);
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterChain)->Arg(10000);

void BM_BinPackFfd(benchmark::State& state) {
  Rng rng(7);
  std::vector<int64_t> sizes;
  for (int64_t i = 0; i < state.range(0); ++i) {
    sizes.push_back(rng.UniformInt(1 * kMiB, 256 * kMiB));
  }
  for (auto _ : state) {
    auto bins = format::FirstFitDecreasing(sizes, 512 * kMiB);
    benchmark::DoNotOptimize(bins);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinPackFfd)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace autocomp

BENCHMARK_MAIN();
