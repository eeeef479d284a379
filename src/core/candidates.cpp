#include "core/candidates.hpp"

#include "binning/binning.hpp"

namespace spmv::core {

int CandidatePools::unit_index(index_t unit) const {
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i] == unit) return static_cast<int>(i);
  }
  return -1;
}

int CandidatePools::kernel_index(kernels::KernelId id) const {
  for (std::size_t i = 0; i < kernel_pool.size(); ++i) {
    if (kernel_pool[i] == id) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string> CandidatePools::unit_class_names() const {
  std::vector<std::string> names;
  names.reserve(units.size() + (include_single_bin ? 1 : 0));
  for (index_t u : units) {
    std::string name = "U";
    name += std::to_string(u);
    names.push_back(std::move(name));
  }
  if (include_single_bin) names.push_back("single-bin");
  return names;
}

std::vector<std::string> CandidatePools::kernel_class_names() const {
  std::vector<std::string> names;
  names.reserve(kernel_pool.size());
  for (kernels::KernelId id : kernel_pool)
    names.push_back(kernels::kernel_name(id));
  return names;
}

CandidatePools default_pools() {
  CandidatePools pools;
  pools.units = binning::default_granularity_pool();
  pools.kernel_pool = kernels::all_kernels();
  return pools;
}

CandidatePools small_pools() {
  CandidatePools pools;
  pools.units = {10, 100, 1000, 10000, 100000};
  pools.kernel_pool = {kernels::KernelId::Serial, kernels::KernelId::Sub8,
                       kernels::KernelId::Sub32, kernels::KernelId::Vector};
  return pools;
}

}  // namespace spmv::core
