#ifndef STARBURST_ENGINE_DATABASE_H_
#define STARBURST_ENGINE_DATABASE_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "engine/table.h"

namespace starburst {

/// An in-memory relational database over a Schema.
///
/// Value-copyable: copying a Database is how the snapshot-copy explorer
/// backend takes state snapshots. A copy is a logical snapshot — table
/// contents, rid counters, content hashes, and canonical caches carry over,
/// but open deltas do not (the copy starts outside any delta). The Schema
/// must outlive every Database (and every copy) created over it.
///
/// The delta API (BeginDelta/CommitDelta/RevertDelta) is the O(delta)
/// alternative to copying: mutations between BeginDelta and RevertDelta are
/// undone exactly, including per-table rid counters, so the undo-log
/// explorer backend and the rule processor backtrack without ever cloning
/// the database. The service's transition endpoint runs every request in
/// the processor's delta on the tenant database, so a dry run or an error
/// costs O(rows touched). Deltas nest (cascaded rule firings open one level
/// each).
class Database {
 public:
  explicit Database(const Schema* schema);

  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  const Schema& schema() const { return *schema_; }

  /// Storage for `table`; precondition: valid id. If tables were added to
  /// the schema after construction, call SyncWithSchema() first.
  TableStorage& storage(TableId table) { return storages_[table]; }
  const TableStorage& storage(TableId table) const { return storages_[table]; }

  /// Adds storages for schema tables created after this Database was
  /// constructed.
  void SyncWithSchema();

  /// Logical-equality fingerprint: concatenated canonical strings of all
  /// tables (rid-independent). Two databases with the same schema and equal
  /// CanonicalString() hold the same logical contents.
  std::string CanonicalString() const;

  /// Appends CanonicalString() to `*out`; the explorer builds one state
  /// key per visited state, so this avoids a temporary per table.
  void AppendCanonicalString(std::string* out) const;

  /// As above but restricted to `tables` (used by partial-confluence
  /// experiments: compare only the tables in T').
  std::string CanonicalStringFor(const std::vector<TableId>& tables) const;

  /// 128-bit logical-equality fingerprint: position-salted sum of the
  /// per-table incremental multiset hashes. Equal CanonicalString() implies
  /// equal ContentFingerprint(); the converse holds up to 128-bit hash
  /// collisions (cross-checked by the delta_equivalence fuzz oracle).
  /// O(num_tables) — the per-table hashes are maintained incrementally.
  Hash128 ContentFingerprint() const;

  /// Opens/commits/reverts one delta level across every table. RevertDelta
  /// restores the exact pre-BeginDelta contents, rid counters included.
  void BeginDelta();
  void CommitDelta();
  void RevertDelta();
  int delta_depth() const { return delta_depth_; }

 private:
  const Schema* schema_;
  std::vector<TableStorage> storages_;
  int delta_depth_ = 0;
};

}  // namespace starburst

#endif  // STARBURST_ENGINE_DATABASE_H_
