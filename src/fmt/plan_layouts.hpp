// Lazy, reuse-amortized materialization of per-bin layouts.
//
// A format transformation only pays when the same matrix is multiplied
// enough times to amortize the build cost (Katagiri & Sato's run-time
// transformation argument, PAPERS.md). PlanLayouts tracks how many times
// each matrix instance has been executed and materializes a bin's layout
// only once that count reaches the amortization threshold — before that,
// acquire() returns nullptr and the caller falls back to the shared CSR
// arrays, so a one-shot multiplication never pays a transformation it
// cannot recoup. Failed builds (the builder's unsuitability throws) are
// negatively cached so a hopeless bin is attempted exactly once.
//
// Keying is by matrix *instance* (CsrMatrix::instance_id): the serving
// layer caches plans by structural fingerprint but executes each request
// against the request's own matrix object, whose values may differ — a
// layout embeds values, so it must be bound to the instance, not the
// fingerprint. The id is process-unique and never recycled (a raw buffer
// address is not: a freed matrix's allocation can be handed to a later
// same-shape matrix with different values, which would alias its slot and
// serve a stale layout), and vals_mutable() re-issues it, so a slot can
// never outlive the values it was built from. A small LRU of matrix slots
// bounds memory across instances.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "fmt/layout.hpp"
#include "sparse/value_pool.hpp"

namespace spmv::fmt {

/// When a bin layout is worth materializing.
struct AmortizationPolicy {
  /// Executions of the same matrix instance before a layout is built.
  /// 0 builds on first touch — tests and shadow trials.
  std::uint64_t min_reuse = 3;
};

/// Counters for provenance output (benches, spmv_tool).
struct LayoutStats {
  std::uint64_t builds = 0;         ///< successful materializations
  std::uint64_t build_failures = 0; ///< builder rejections (negative-cached)
  std::uint64_t hits = 0;           ///< acquire() served a built layout
  std::uint64_t deferrals = 0;      ///< acquire() deferred: not yet amortized
  std::uint64_t value_refreshes = 0; ///< layouts value-refreshed in place of
                                     ///< a rebuild (refresh_values)
  std::uint64_t recycled_values = 0; ///< refreshes that wrote into a retired
                                     ///< layout's value array
  double build_s = 0.0;             ///< total wall-clock spent building
};

template <typename T>
class PlanLayouts {
 public:
  explicit PlanLayouts(AmortizationPolicy policy = {})
      : policy_(policy),
        pool_(std::make_shared<ValuePool<util::Buffer<T>>>()) {}

  /// Record one execution of `a` (call once per whole-plan run). Returns
  /// the instance's updated reuse count.
  std::uint64_t note_run(const CsrMatrix<T>& a);

  /// The materialized layout for one bin of `a`, or nullptr when the bin
  /// executes from CSR — kind == Csr, reuse below the amortization
  /// threshold, or a previously failed build. The returned shared_ptr
  /// keeps the layout alive across the launch even if the slot is evicted
  /// concurrently.
  std::shared_ptr<const BinLayout<T>> acquire(const CsrMatrix<T>& a,
                                              std::span<const index_t> vrows,
                                              index_t unit, FormatKind kind,
                                              int bin_id);

  /// Carry the layouts built for instance `old_instance_id` over to `a`
  /// after a values-only mutation (CsrMatrix::update_values or
  /// with_values re-issue the instance id but keep the structure). The
  /// slot is re-keyed to a.instance_id() with its reuse count, LRU
  /// position, and negative caches intact; every built layout is replaced
  /// by a value-refreshed layout that shares its structure arrays and
  /// writes only values (in-flight launches may still hold the old
  /// shared_ptrs). A layout retires its value array to a one-deep spare
  /// when its last holder lets go, and the next refresh of the same
  /// layout writes into that spare. A layout built from another structure
  /// block than `a`'s is dropped so acquire() rebuilds it lazily. Returns
  /// the number of layouts refreshed; 0 when the old instance has no slot
  /// (nothing was materialized).
  std::uint64_t refresh_values(const CsrMatrix<T>& a,
                               std::uint64_t old_instance_id);

  [[nodiscard]] LayoutStats stats() const;

 private:
  struct BinKey {
    index_t unit;
    int bin_id;
    FormatKind kind;
    bool operator<(const BinKey& o) const {
      if (unit != o.unit) return unit < o.unit;
      if (bin_id != o.bin_id) return bin_id < o.bin_id;
      return static_cast<int>(kind) < static_cast<int>(o.kind);
    }
  };
  struct Slot {
    std::uint64_t key = 0;  ///< CsrMatrix::instance_id() — never recycled
    std::uint64_t uses = 0;
    std::uint64_t last_touch = 0;
    /// Built layouts; a present-but-null entry is a negative cache (the
    /// builder rejected this bin/format).
    std::map<BinKey, std::shared_ptr<const BinLayout<T>>> built;
  };

  static constexpr std::size_t kMaxSlots = 4;

  Slot& slot_for(std::uint64_t key);  // callers hold mu_
  /// `l` behind a deleter that retires its value array to pool_.
  std::shared_ptr<const BinLayout<T>> own(BinLayout<T> l) const;

  AmortizationPolicy policy_;
  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::uint64_t tick_ = 0;
  LayoutStats stats_;
  std::shared_ptr<ValuePool<util::Buffer<T>>> pool_;
};

extern template class PlanLayouts<float>;
extern template class PlanLayouts<double>;

}  // namespace spmv::fmt
