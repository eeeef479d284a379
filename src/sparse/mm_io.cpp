#include "sparse/mm_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace spmv {

namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(const std::string& msg) {
  throw MatrixMarketError("matrix market: " + msg);
}

MmHeader parse_header(const std::string& line) {
  std::istringstream ss(line);
  std::string banner;
  MmHeader h;
  ss >> banner >> h.object >> h.format >> h.field >> h.symmetry;
  if (banner != "%%MatrixMarket") fail("missing %%MatrixMarket banner");
  h.object = to_lower(h.object);
  h.format = to_lower(h.format);
  h.field = to_lower(h.field);
  h.symmetry = to_lower(h.symmetry);
  if (h.object != "matrix") fail("unsupported object: " + h.object);
  if (h.format != "coordinate") fail("unsupported format: " + h.format);
  if (h.field != "real" && h.field != "integer" && h.field != "pattern")
    fail("unsupported field: " + h.field);
  if (h.symmetry != "general" && h.symmetry != "symmetric" &&
      h.symmetry != "skew-symmetric")
    fail("unsupported symmetry: " + h.symmetry);
  return h;
}

}  // namespace

template <typename T>
CooMatrix<T> read_matrix_market(std::istream& in, MmHeader* header) {
  std::string line;
  if (!std::getline(in, line)) fail("empty stream");
  const MmHeader h = parse_header(line);
  if (header) *header = h;

  // Skip comments and blank lines up to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  long long rows = 0, cols = 0, entries = 0;
  {
    std::istringstream ss(line);
    if (!(ss >> rows >> cols >> entries)) fail("bad size line");
  }
  if (rows < 0 || cols < 0 || entries < 0) fail("negative size");

  const bool pattern = h.field == "pattern";
  const bool symmetric = h.symmetry == "symmetric";
  const bool skew = h.symmetry == "skew-symmetric";
  const long long expand = symmetric || skew ? 2 : 1;

  constexpr long long kMaxIndex = std::numeric_limits<index_t>::max();
  if (rows > kMaxIndex || cols > kMaxIndex)
    fail("size " + std::to_string(rows) + "x" + std::to_string(cols) +
         " exceeds the index range (" + std::to_string(kMaxIndex) + ")");
  if (entries > std::numeric_limits<offset_t>::max() / expand)
    fail("entry count " + std::to_string(entries) +
         " exceeds the offset range");

  CooMatrix<T> coo(static_cast<index_t>(rows), static_cast<index_t>(cols));
  // The header's count is a claim, not a guarantee: reserve a bounded
  // prefix and let a longer list grow the storage as it arrives.
  constexpr long long kMaxReserve = 1LL << 20;
  coo.reserve(
      static_cast<std::size_t>(std::min(entries * expand, kMaxReserve)));

  for (long long k = 0; k < entries; ++k) {
    long long r = 0, c = 0;
    double v = 1.0;
    if (!(in >> r >> c)) fail("truncated entry list");
    if (!pattern && !(in >> v)) fail("missing value");
    if (r < 1 || r > rows || c < 1 || c > cols) fail("entry out of range");
    const auto ri = static_cast<index_t>(r - 1);
    const auto ci = static_cast<index_t>(c - 1);
    coo.add(ri, ci, static_cast<T>(v));
    if ((symmetric || skew) && ri != ci)
      coo.add(ci, ri, static_cast<T>(skew ? -v : v));
  }
  return coo;
}

template <typename T>
CooMatrix<T> read_matrix_market_file(const std::string& path,
                                     MmHeader* header) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  return read_matrix_market<T>(in, header);
}

template <typename T>
void write_matrix_market(std::ostream& out, const CooMatrix<T>& coo) {
  out.precision(17);  // values must round-trip exactly
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% written by autospmv\n";
  out << coo.rows() << ' ' << coo.cols() << ' ' << coo.nnz() << '\n';
  for (const auto& e : coo.entries()) {
    out << (e.row + 1) << ' ' << (e.col + 1) << ' '
        << static_cast<double>(e.value) << '\n';
  }
}

template <typename T>
void write_matrix_market_file(const std::string& path,
                              const CooMatrix<T>& coo) {
  std::ofstream out(path);
  if (!out) fail("cannot write " + path);
  write_matrix_market(out, coo);
}

template CooMatrix<float> read_matrix_market(std::istream&, MmHeader*);
template CooMatrix<double> read_matrix_market(std::istream&, MmHeader*);
template CooMatrix<float> read_matrix_market_file(const std::string&,
                                                  MmHeader*);
template CooMatrix<double> read_matrix_market_file(const std::string&,
                                                   MmHeader*);
template void write_matrix_market(std::ostream&, const CooMatrix<float>&);
template void write_matrix_market(std::ostream&, const CooMatrix<double>&);
template void write_matrix_market_file(const std::string&,
                                       const CooMatrix<float>&);
template void write_matrix_market_file(const std::string&,
                                       const CooMatrix<double>&);

}  // namespace spmv
