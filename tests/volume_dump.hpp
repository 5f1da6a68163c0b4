// Test helper: a volume's whole observable namespace as one string, so
// two volumes compare with a single EXPECT_EQ.
#pragma once

#include <string>
#include <vector>

#include "vfs/filesystem.hpp"

namespace cryptodrop::vfs {

/// Counts, each directory's entries (in list() order), and each file's
/// id, read-only bit and content (in list_files_recursive() order).
inline std::string volume_dump(const FileSystem& volume) {
  std::string out = "files=" + std::to_string(volume.file_count()) +
                    " dirs=" + std::to_string(volume.dir_count()) + "\n";
  std::vector<std::string> dirs = volume.list_dirs_recursive("");
  dirs.insert(dirs.begin(), std::string());
  for (const std::string& dir : dirs) {
    out += "D " + dir + ":";
    for (const DirEntry& entry : volume.list(dir)) {
      out += " " + entry.name +
             (entry.is_directory ? "/" : "=" + std::to_string(entry.size));
    }
    out += "\n";
  }
  for (const std::string& path : volume.list_files_recursive("")) {
    const FileInfo info = volume.stat(path).value();
    out += "F " + path + " id=" + std::to_string(info.id) +
           (info.read_only ? " ro " : " rw ") +
           to_string(ByteView(*volume.read_unfiltered(path))) + "\n";
  }
  return out;
}

}  // namespace cryptodrop::vfs
