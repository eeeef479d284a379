// Matrix Market (.mtx) I/O — the interchange format of the UF/SuiteSparse
// collection the paper trains on. Supports the coordinate variants used in
// practice: real / integer / pattern values, general / symmetric /
// skew-symmetric structure.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "sparse/coo.hpp"

namespace spmv {

/// Every read failure: malformed or hostile input (sizes beyond the
/// index_t/offset_t range included) and unreadable files.
class MatrixMarketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parsed Matrix Market header fields.
struct MmHeader {
  std::string object;    ///< "matrix"
  std::string format;    ///< "coordinate" (array is rejected)
  std::string field;     ///< real | integer | pattern
  std::string symmetry;  ///< general | symmetric | skew-symmetric
};

/// Read a coordinate Matrix Market stream into COO. Symmetric and
/// skew-symmetric inputs are expanded to their general form (mirrored
/// entries materialized; diagonal kept once). Pattern values become 1.
/// Throws MatrixMarketError on malformed input, and on a size line whose
/// rows/cols exceed index_t or whose entry count (doubled when symmetric)
/// exceeds offset_t. The header's entry count is untrusted: storage is
/// reserved for at most 2^20 entries up front and grows as entries
/// actually arrive.
template <typename T>
CooMatrix<T> read_matrix_market(std::istream& in, MmHeader* header = nullptr);

/// Convenience file wrapper. Throws MatrixMarketError if unreadable.
template <typename T>
CooMatrix<T> read_matrix_market_file(const std::string& path,
                                     MmHeader* header = nullptr);

/// Write COO as a general real coordinate Matrix Market stream (1-based
/// indices per the format definition).
template <typename T>
void write_matrix_market(std::ostream& out, const CooMatrix<T>& coo);

/// Convenience file wrapper. Throws std::runtime_error if unwritable.
template <typename T>
void write_matrix_market_file(const std::string& path,
                              const CooMatrix<T>& coo);

extern template CooMatrix<float> read_matrix_market(std::istream&, MmHeader*);
extern template CooMatrix<double> read_matrix_market(std::istream&, MmHeader*);
extern template CooMatrix<float> read_matrix_market_file(const std::string&,
                                                         MmHeader*);
extern template CooMatrix<double> read_matrix_market_file(const std::string&,
                                                          MmHeader*);
extern template void write_matrix_market(std::ostream&,
                                         const CooMatrix<float>&);
extern template void write_matrix_market(std::ostream&,
                                         const CooMatrix<double>&);
extern template void write_matrix_market_file(const std::string&,
                                              const CooMatrix<float>&);
extern template void write_matrix_market_file(const std::string&,
                                              const CooMatrix<double>&);

}  // namespace spmv
