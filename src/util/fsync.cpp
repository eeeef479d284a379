#include "util/fsync.hpp"

#include <fcntl.h>
#include <unistd.h>

namespace spmv::util {

namespace {

bool fsync_open(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

bool fsync_file(const std::string& path) { return fsync_open(path, O_RDONLY); }

void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0              ? "/"
                                                    : path.substr(0, slash);
  (void)fsync_open(dir, O_RDONLY | O_DIRECTORY);
}

}  // namespace spmv::util
