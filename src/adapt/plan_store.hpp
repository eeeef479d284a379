// spmv::adapt::PlanStore — persistent tuned-plan storage. Serializes plans
// keyed by (structural fingerprint, device config, model version) to a
// versioned on-disk JSON artifact so a restarted SpmvService warm-starts:
// a cache miss whose fingerprint is in the store rebuilds directly from
// the stored plan and skips the predictor-driven planning pass entirely.
//
// Robustness contract: load() never throws on a bad store file — a
// missing, truncated, corrupt, or future-schema file loads as empty with
// the reason logged and counted in stats(). Entries recorded for a
// different device configuration or predictor model version are skipped
// for lookup but preserved verbatim and re-emitted on flush(), so one
// store file can serve a heterogeneous fleet without machines destroying
// each other's tuning work. A plan for another backend than native (clsim,
// or any schema-1 plan) is skipped and kept the same way, counted in
// skipped_backend: this is where serving decides which stored plans run.
// flush() is crash-safe: write and fsync a temp file no other writer uses,
// atomically rename it over `path`, then fsync the directory. Concurrent
// flushes to one path each leave a complete file; the last rename wins.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "clsim/device.hpp"
#include "core/plan.hpp"
#include "prof/json.hpp"
#include "serve/fingerprint.hpp"

namespace spmv::adapt {

/// On-disk schema version written by flush(). Version 2 added the plan's
/// `backend` field (spmv::exec); version 3 added the per-bin `format`
/// field (spmv::fmt). Older files predate those fields and their plans
/// load with the defaults (Clsim backend, CSR everywhere), so load()
/// accepts the whole supported range below. Files outside it are skipped
/// wholesale (never migrated in place, never a crash).
inline constexpr std::int64_t kStoreSchemaVersion = 3;
/// Oldest schema load() still reads.
inline constexpr std::int64_t kStoreSchemaMinSupported = 1;

/// One stored tuned plan plus its provenance.
struct StoredPlan {
  core::Plan plan;
  double gflops = 0.0;           ///< best observed throughput (0 = unknown)
  std::uint64_t trials = 0;      ///< adapt trials that shaped this plan
  std::int64_t saved_unix_ms = 0;  ///< wall-clock save time (0 = unknown)
  /// Wall-clock time of the last lookup() or put() that touched this entry
  /// (0 = unknown). Drives gc_expired(): fingerprints that stop recurring
  /// age out instead of accumulating forever.
  std::int64_t last_used_unix_ms = 0;
};

/// Load/skip accounting, for `spmv_tool plan-store ls` and tests.
struct PlanStoreStats {
  std::uint64_t loaded = 0;            ///< usable entries loaded
  std::uint64_t skipped_schema = 0;    ///< whole-file schema mismatch
  std::uint64_t skipped_device = 0;    ///< entry for another device config
  std::uint64_t skipped_model = 0;     ///< entry for another model version
  std::uint64_t skipped_backend = 0;   ///< entry whose plan is not native
  std::uint64_t skipped_malformed = 0; ///< entry that failed to parse
  std::uint64_t erased = 0;            ///< unbuildable plans erase() dropped
};

class PlanStore {
 public:
  /// Canonical device-config string for scoping store entries, e.g.
  /// "cu=8 group=256 lds=32768".
  [[nodiscard]] static std::string device_config_string(
      const clsim::Device& device = clsim::default_device());

  /// A store bound to `path`. `device_config` and `model_version` scope
  /// lookups: only entries recorded under the same strings are visible.
  /// Construction does NOT read the file — call load().
  explicit PlanStore(std::string path,
                     std::string device_config = device_config_string(),
                     std::string model_version = "default");

  /// Read the store file. Never throws on bad input: a missing file is an
  /// empty store; corrupt/truncated/foreign-schema files log a warning and
  /// load as empty; per-entry damage skips just that entry. Returns the
  /// load accounting (also available via stats()).
  PlanStoreStats load();

  /// Write all entries (own + preserved foreign) to `path` via
  /// write-temp-then-rename, the temp named `path.tmp.<pid>.<n>`. Throws
  /// std::runtime_error when the temp file cannot be written or synced,
  /// or the rename fails; the temp file is removed either way.
  void flush() const;

  /// The stored plan for `key` under this store's device/model scope.
  /// Stamps the entry's last_used_unix_ms (recurring fingerprints stay
  /// fresh for gc_expired), hence non-const.
  [[nodiscard]] std::optional<StoredPlan> lookup(const serve::Fingerprint& key);

  /// Insert or update the entry for `key`. An existing entry is replaced
  /// only by an equal-or-higher plan revision (stale writers lose). Throws
  /// std::invalid_argument for a plan whose backend is not native.
  void put(const serve::Fingerprint& key, const StoredPlan& value);

  /// Drop the entry for `key`: a stored plan that failed to build.
  bool erase(const serve::Fingerprint& key);

  /// Entries visible under this store's device/model scope.
  [[nodiscard]] std::size_t size() const;

  /// Snapshot of the visible entries (unordered).
  [[nodiscard]] std::vector<std::pair<serve::Fingerprint, StoredPlan>>
  entries() const;

  /// Drop preserved foreign entries (other device/model/backend leftovers);
  /// returns how many were dropped. The next flush() writes only entries
  /// visible to this store.
  std::size_t gc();

  /// TTL eviction for fingerprints that stop recurring: drop own-scope
  /// entries not used (looked up or put) within the last `ttl_ms`
  /// milliseconds, judged against `now_ms` (0 = current wall clock).
  /// Entries with no usage timestamp fall back to their save time; ones
  /// with neither are treated as expired. Foreign entries are PRESERVED —
  /// unlike gc(), this prunes our own stale tuning work, not other
  /// machines'. Returns how many entries were dropped.
  std::size_t gc_expired(std::int64_t ttl_ms, std::int64_t now_ms = 0);

  [[nodiscard]] PlanStoreStats stats() const;
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& device_config() const { return device_; }
  [[nodiscard]] const std::string& model_version() const { return model_; }

 private:
  std::string path_;
  std::string device_;
  std::string model_;

  mutable std::mutex mutex_;
  std::unordered_map<serve::Fingerprint, StoredPlan, serve::FingerprintHash>
      map_;
  /// Entries for another device, model or backend, preserved verbatim so
  /// flush() is non-destructive for other machines' tuning work.
  std::vector<prof::Json> foreign_;
  PlanStoreStats stats_;
};

}  // namespace spmv::adapt
