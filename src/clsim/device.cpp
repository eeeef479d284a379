#include "clsim/device.hpp"

#include "util/threads.hpp"

namespace spmv::clsim {

int Device::resolved_compute_units() const {
  if (compute_units > 0) return compute_units;
  return util::process_threads();
}

const Device& default_device() {
  static const Device device{};
  return device;
}

}  // namespace spmv::clsim
