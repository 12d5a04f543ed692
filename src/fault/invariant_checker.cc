#include "fault/invariant_checker.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "catalog/catalog.h"
#include "lst/history_validator.h"
#include "storage/namenode.h"

namespace autocomp::fault {

InvariantChecker::InvariantChecker(InvariantCheckerOptions options)
    : options_(options) {}

std::vector<InvariantViolation> InvariantChecker::Check(
    catalog::Catalog& catalog) const {
  std::vector<InvariantViolation> out;
  storage::NameNode* dfs = catalog.filesystem();

  // Which table owns each live path (detects cross-table duplication),
  // and per-database live file tallies (for the quota lower bound).
  std::map<std::string, std::string, std::less<>> live_owner;
  std::map<std::string, int64_t> db_live_files;

  for (const std::string& name : catalog.ListAllTables()) {
    auto meta_or = catalog.LoadTable(name);
    if (!meta_or.ok()) {
      out.push_back({name, "LoadTable failed: " + meta_or.status().ToString()});
      continue;
    }
    const lst::TableMetadataPtr& meta = meta_or.value();

    // Per-table history invariants: linear acyclic lineage, replayable
    // live sets, consistent summary counters.
    for (const lst::HistoryViolation& v : lst::ValidateHistory(*meta)) {
      std::ostringstream msg;
      msg << "history invariant (snapshot " << v.snapshot_id
          << "): " << v.message;
      out.push_back({name, msg.str()});
    }

    const std::string db = name.substr(0, name.find('.'));
    meta->ForEachLiveFile([&](const lst::DataFileRef& f) {
      ++db_live_files[db];
      // No live-file loss: every referenced file must exist in storage
      // with the advertised size (Stat is const and RPC-free, so the
      // check cannot perturb the deterministic load model).
      const std::string path = f.path.str();
      auto info_or = dfs->Stat(path);
      if (!info_or.ok()) {
        out.push_back({name, "live file missing from storage: " + path});
      } else if (info_or.value().size_bytes != f.file_size_bytes) {
        std::ostringstream msg;
        msg << "live file size mismatch for " << path << ": metadata says "
            << f.file_size_bytes << " bytes, storage says "
            << info_or.value().size_bytes;
        out.push_back({name, msg.str()});
      }
      // Live-path uniqueness: DataFile::operator== keys on the path
      // alone (see data_file.h), so a path live twice — whether in two
      // tables or twice inside one table's current snapshot — would make
      // the metadata layer conflate distinct files. Assert both.
      auto [it, inserted] = live_owner.emplace(path, name);
      if (!inserted) {
        if (it->second == name) {
          out.push_back({name, "file " + path +
                                   " is live twice in the current snapshot"});
        } else {
          out.push_back({name, "file " + path + " is live in both " +
                                   it->second + " and " + name});
        }
      }
    });
  }

  // NameNode bookkeeping must agree with a from-scratch recount of its
  // own namespace (object counts, per-directory tallies).
  if (Status audit = dfs->AuditAccounting(); !audit.ok()) {
    out.push_back({"", "storage accounting audit: " + audit.ToString()});
  }

  // Quota accounting: a database's used_objects counts its files and
  // directories, so it can never undercount the catalog's live set.
  for (const std::string& db : catalog.ListDatabases()) {
    const storage::QuotaStatus quota = catalog.DatabaseQuota(db);
    const int64_t live = db_live_files[db];
    if (quota.used_objects < live) {
      std::ostringstream msg;
      msg << "database " << db << " quota usage " << quota.used_objects
          << " undercounts its " << live << " live files";
      out.push_back({"", msg.str()});
    }
  }

  if (options_.check_orphans) {
    for (const std::string& db : catalog.ListDatabases()) {
      const std::string root = catalog::Catalog::DatabaseLocation(db);
      dfs->ForEachFile([&](const std::string& path) {
        if (path.rfind(root + "/", 0) != 0) return;
        // Metadata objects are catalog-owned, not table-live.
        if (path.find("/metadata/") != std::string::npos) return;
        if (live_owner.find(path) == live_owner.end()) {
          out.push_back({"", "orphan data file in storage: " + path});
        }
      });
    }
  }

  return out;
}

Status InvariantChecker::CheckOrFail(catalog::Catalog& catalog) const {
  std::vector<InvariantViolation> violations = Check(catalog);
  if (violations.empty()) return Status::OK();
  std::ostringstream msg;
  msg << violations.size() << " invariant violation(s):";
  const size_t limit = std::min<size_t>(violations.size(), 5);
  for (size_t i = 0; i < limit; ++i) {
    msg << " [" << (violations[i].table.empty() ? "fleet" : violations[i].table)
        << "] " << violations[i].message << ";";
  }
  return Status::Internal(msg.str());
}

std::map<std::string, std::string> CatalogEndState(catalog::Catalog& catalog) {
  std::map<std::string, std::string> out;
  for (const std::string& name : catalog.ListAllTables()) {
    auto meta_or = catalog.LoadTable(name);
    if (!meta_or.ok()) {
      out[name] = "load-error: " + meta_or.status().ToString();
      continue;
    }
    const lst::TableMetadataPtr& meta = meta_or.value();
    // Multiset of (partition, size, records) — the query-visible content
    // shape, independent of output file naming.
    std::multiset<std::string> shapes;
    meta->ForEachLiveFile([&](const lst::DataFileRef& f) {
      std::ostringstream s;
      s << f.partition << "|" << f.file_size_bytes << "|" << f.record_count
        << "|" << (f.content == lst::FileContent::kData ? "d" : "x");
      shapes.insert(s.str());
    });
    std::ostringstream digest;
    digest << "files=" << meta->live_file_count()
           << " bytes=" << meta->live_bytes() << " [";
    for (const std::string& s : shapes) digest << s << ",";
    digest << "]";
    out[name] = digest.str();
  }
  return out;
}

std::string DiffEndStates(const std::map<std::string, std::string>& a,
                          const std::map<std::string, std::string>& b) {
  std::ostringstream why;
  for (const auto& [name, digest] : a) {
    auto it = b.find(name);
    if (it == b.end()) {
      why << "table " << name << " only in first state; ";
    } else if (it->second != digest) {
      why << "table " << name << " differs: '" << digest << "' vs '"
          << it->second << "'; ";
    }
  }
  for (const auto& [name, digest] : b) {
    if (a.find(name) == a.end()) {
      why << "table " << name << " only in second state; ";
    }
  }
  return why.str();
}

}  // namespace autocomp::fault
