/// \file observe.h
/// \brief Observe phase: candidate generation and statistics collection.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/control_plane.h"
#include "common/clock.h"
#include "core/candidate.h"

namespace autocomp::core {

class IncrementalStatsIndex;

/// \brief Produces the raw candidate pool from the catalog (§4.1).
///
/// Implementations must be deterministic for a given catalog state (NFR2):
/// candidates come out sorted by id.
///
/// Generators that derive candidates from table contents (partition
/// lists, replace watermarks) optionally consult an IncrementalStatsIndex
/// so idle tables cost O(1) instead of a manifest walk; with no index
/// (or a stale one) they fall back to scanning the pinned metadata, and
/// the output is identical either way.
class CandidateGenerator {
 public:
  virtual ~CandidateGenerator() = default;
  virtual std::string name() const = 0;
  virtual Result<std::vector<Candidate>> Generate(
      catalog::Catalog* catalog) const = 0;
};

/// \brief One candidate per table (LinkedIn's initial deployment scope,
/// §7).
class TableScopeGenerator final : public CandidateGenerator {
 public:
  std::string name() const override { return "table-scope"; }
  Result<std::vector<Candidate>> Generate(
      catalog::Catalog* catalog) const override;
};

/// \brief One candidate per live partition of partitioned tables;
/// unpartitioned tables are skipped.
class PartitionScopeGenerator final : public CandidateGenerator {
 public:
  explicit PartitionScopeGenerator(
      std::shared_ptr<const IncrementalStatsIndex> index = nullptr);
  std::string name() const override { return "partition-scope"; }
  Result<std::vector<Candidate>> Generate(
      catalog::Catalog* catalog) const override;

 private:
  std::shared_ptr<const IncrementalStatsIndex> index_;
};

/// \brief Partition scope for partitioned tables, table scope otherwise —
/// the evaluation's "hybrid" strategy (§6).
class HybridScopeGenerator final : public CandidateGenerator {
 public:
  explicit HybridScopeGenerator(
      std::shared_ptr<const IncrementalStatsIndex> index = nullptr);
  std::string name() const override { return "hybrid-scope"; }
  Result<std::vector<Candidate>> Generate(
      catalog::Catalog* catalog) const override;

 private:
  std::shared_ptr<const IncrementalStatsIndex> index_;
};

/// \brief One candidate per table covering only files added after the
/// last compaction (replace) snapshot — fresh-data maintenance (§4.1).
class SnapshotScopeGenerator final : public CandidateGenerator {
 public:
  explicit SnapshotScopeGenerator(
      std::shared_ptr<const IncrementalStatsIndex> index = nullptr);
  std::string name() const override { return "snapshot-scope"; }
  Result<std::vector<Candidate>> Generate(
      catalog::Catalog* catalog) const override;

 private:
  std::shared_ptr<const IncrementalStatsIndex> index_;
};

/// \brief Collects the standardized statistics for a candidate from LST
/// metadata tables and catalog quota state.
///
/// This plain collector rescans the candidate's live files. Pipelines
/// observe through its subclass IndexedStatsCollector
/// (core/stats_index.h), which falls back to this rescan when the index
/// cannot serve a pinned version; tests use the rescan as the oracle.
///
/// `Collect` must be safe to call concurrently from multiple threads:
/// it only reads catalog/control-plane state. Subclasses adding mutable
/// state must synchronize internally.
///
/// Canonical ordering (NFR2): `file_sizes` and every list in
/// `file_sizes_by_partition` come out sorted ascending. Every collector
/// implementation must honor this — it is what makes rescans and
/// incrementally indexed aggregates bit-identical even through
/// order-sensitive float reductions (the entropy traits).
class StatsCollector {
 public:
  StatsCollector(catalog::Catalog* catalog,
                 const catalog::ControlPlane* control_plane,
                 const Clock* clock);
  virtual ~StatsCollector() = default;

  /// Fills a CandidateStats for `candidate` from the current table state.
  virtual Result<CandidateStats> Collect(const Candidate& candidate) const;

  /// Convenience: observe a whole candidate pool, in order; the first
  /// failing candidate aborts the call with its status.
  Result<std::vector<ObservedCandidate>> CollectAll(
      const std::vector<Candidate>& candidates) const;

  /// Stats-index telemetry; non-indexed collectors report 0.
  virtual int64_t index_hits() const { return 0; }
  virtual int64_t index_fallbacks() const { return 0; }

 protected:
  /// The full rescan path against a pinned metadata version: walks the
  /// candidate's live files and fills the canonical (sorted) stats.
  /// Subclasses use it as the fallback/cross-check reference.
  Result<CandidateStats> CollectFromMetadata(
      const Candidate& candidate, const lst::TableMetadataPtr& meta) const;

  /// Re-derives the fields that change *without* the table's snapshot
  /// moving (control-plane target size, database quota, access
  /// telemetry). The index hit path calls this so its output is
  /// byte-identical to a fresh collection.
  void RefreshVolatile(const Candidate& candidate,
                       const lst::TableMetadata& meta,
                       CandidateStats* stats) const;

  catalog::Catalog* catalog_;
  const catalog::ControlPlane* control_plane_;
  const Clock* clock_;
};

}  // namespace autocomp::core
