#include "kernels/registry.hpp"

#include <stdexcept>

namespace spmv::kernels {

const std::vector<KernelId>& all_kernels() {
  static const std::vector<KernelId> ids = {
      KernelId::Serial, KernelId::Sub2,  KernelId::Sub4,
      KernelId::Sub8,   KernelId::Sub16, KernelId::Sub32,
      KernelId::Sub64,  KernelId::Sub128, KernelId::Vector};
  return ids;
}

const char* kernel_cname(KernelId id) {
  switch (id) {
    case KernelId::Serial: return "serial";
    case KernelId::Sub2: return "subvector2";
    case KernelId::Sub4: return "subvector4";
    case KernelId::Sub8: return "subvector8";
    case KernelId::Sub16: return "subvector16";
    case KernelId::Sub32: return "subvector32";
    case KernelId::Sub64: return "subvector64";
    case KernelId::Sub128: return "subvector128";
    case KernelId::Vector: return "vector";
  }
  throw std::invalid_argument("kernel_cname: bad id");
}

std::string kernel_name(KernelId id) { return kernel_cname(id); }

std::optional<KernelId> try_kernel_from_name(const std::string& name) {
  for (KernelId id : all_kernels()) {
    if (name == kernel_cname(id)) return id;
  }
  return std::nullopt;
}

KernelId kernel_from_name(const std::string& name) {
  if (const auto id = try_kernel_from_name(name); id.has_value()) return *id;
  throw std::invalid_argument("kernel_from_name: unknown kernel " + name);
}

int lanes_per_row(KernelId id) {
  switch (id) {
    case KernelId::Serial: return 1;
    case KernelId::Sub2: return 2;
    case KernelId::Sub4: return 4;
    case KernelId::Sub8: return 8;
    case KernelId::Sub16: return 16;
    case KernelId::Sub32: return 32;
    case KernelId::Sub64: return 64;
    case KernelId::Sub128: return 128;
    case KernelId::Vector: return 256;
  }
  throw std::invalid_argument("lanes_per_row: bad id");
}

bool has_batched_variant(KernelId id) { return id != KernelId::Vector; }

}  // namespace spmv::kernels
