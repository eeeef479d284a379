// fsync by path, for writers that publish a file by renaming it into place
// (the plan store and the obs sink's segments).
#pragma once

#include <string>

namespace spmv::util {

/// fsyncs the file at `path`; false when it cannot be opened or synced.
[[nodiscard]] bool fsync_file(const std::string& path);

/// fsyncs the directory holding `path`, so a rename into it survives a
/// crash. Best effort: the renamed file is already in place, so a directory
/// that cannot be opened or synced is not an error.
void fsync_parent_dir(const std::string& path);

}  // namespace spmv::util
