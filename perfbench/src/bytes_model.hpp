// Computed bytes-moved model of one bin execution, per physical format.
//
// Every figure is derived from array sizes, not measured: each stored array
// the kernel walks is counted once, x once per distinct column the bin
// references (the compulsory gather traffic; cache misses beyond it are not
// modelled) and y once per covered row. A width-w SpMM multiplies the x
// window and the y block by w while the matrix arrays are walked once.
// Results are labelled "computed" wherever they are printed.
#pragma once

#include <cstddef>
#include <span>

#include "fmt/layout.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

using Scalar = float;

/// Distinct column indices referenced by the rows the bin covers
/// (virtual rows `vrows` at granularity `unit`).
std::size_t distinct_columns(const spmv::CsrMatrix<Scalar>& a,
                             std::span<const spmv::index_t> vrows,
                             spmv::index_t unit);

/// CSR bin straight from the shared arrays: row_ptr (covered rows + one per
/// virtual row, 8 bytes each) + col_idx + values + x gathers + y writes.
double csr_bin_bytes(const spmv::CsrMatrix<Scalar>& a,
                     std::span<const spmv::index_t> vrows, spmv::index_t unit,
                     std::size_t distinct_cols, int width);

/// A materialised bin layout: ELL counts its padded col/val arrays, COO its
/// triples and chunk offsets, dcsr its packed row_ptr, base columns,
/// uint16 deltas and values; each adds its row list, x gathers and y
/// writes. Csr layouts do not exist (returns 0).
double layout_bytes(const spmv::fmt::BinLayout<Scalar>& l,
                    std::size_t distinct_cols, int width);

}  // namespace perfbench
