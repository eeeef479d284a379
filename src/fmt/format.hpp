// spmv::fmt — per-bin physical-format vocabulary.
//
// The paper tunes kernel choice and binning granularity *within* CSR; this
// subsystem adds the structure level the related work (Katagiri & Sato's
// run-time CRS→COO/ELL transformation, Elafrou et al.'s feature-based
// selection) argues often dominates: each bin of the virtual-row binning may
// carry its own physical layout. This header is deliberately lightweight —
// core/plan.hpp embeds FormatKind in every per-bin entry, so it must not
// drag in matrix or backend headers.
#pragma once

#include <span>
#include <stdexcept>
#include <string>

namespace spmv::fmt {

/// Per-bin physical layout. Csr means "execute straight from the shared CSR
/// arrays" (the default and the universal fallback); the others name a
/// bin-local materialized copy built by fmt::build_bin_layout.
enum class FormatKind : int {
  Csr = 0,   ///< shared CSR arrays, no transformation
  Ell = 1,   ///< ELL-packed: near-uniform short rows, column-major, padded
  Coo = 2,   ///< coordinate triples: scatter / mostly-empty bins
  Dcsr = 3,  ///< CSR with uint16 base-relative column offsets: banded rows
};

inline constexpr int kFormatCount = 4;

/// Widest row a Dcsr bin holds: every column of a row is stored as a
/// 16-bit offset from the row's smallest column, so (max col - min col)
/// must fit in 16 bits. The estimator offers Dcsr and the builder accepts
/// a row under this one rule.
inline constexpr int kDcsrMaxSpan = 65535;

/// Rows per slice of a sliced Dcsr bin: the kernel gives each row of a
/// slice its own SIMD lane (16 floats fill one 512-bit register).
inline constexpr int kDcsrSlice = 16;

/// Rows per sort window (σ) of a sliced Dcsr bin: rows are sorted by
/// descending length inside each window, so a slice holds rows of similar
/// length while the bin's row order moves at most a window away.
inline constexpr int kDcsrSortWindow = 256;

/// Lowest slice fill at which a Dcsr bin slices: nnz over the sum, per
/// slice, of kDcsrSlice times the slice's longest row. Below it too many
/// lanes would sit idle, and the bin keeps one row at a time.
inline constexpr double kDcsrMinSliceFill = 0.75;

/// Execution-wide format policy, the `--format csr|auto` CLI knob. Csr pins
/// every bin to the shared arrays (the original CSR-only behaviour); Auto
/// lets the estimator stamp per-bin formats.
enum class FormatMode : int {
  Csr = 0,
  Auto = 1,
};

[[nodiscard]] std::string format_name(FormatKind k);
[[nodiscard]] const char* format_cname(FormatKind k);

/// Parse a format name; returns false (leaving `out` untouched) on an
/// unknown name so persistence can count a skip instead of throwing.
[[nodiscard]] bool try_format_from_name(const std::string& name,
                                        FormatKind* out);

/// Parse a format name; throws std::invalid_argument on an unknown name.
[[nodiscard]] FormatKind format_from_name(const std::string& name);

/// All formats in enum order (Csr first).
[[nodiscard]] std::span<const FormatKind> all_formats();

[[nodiscard]] const char* format_mode_cname(FormatMode m);

/// Parse "csr"/"auto"; throws std::invalid_argument otherwise.
[[nodiscard]] FormatMode format_mode_from_name(const std::string& name);

}  // namespace spmv::fmt
