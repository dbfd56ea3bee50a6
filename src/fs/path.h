// Absolute-path parsing for the client filesystem.

#ifndef SHAROES_FS_PATH_H_
#define SHAROES_FS_PATH_H_

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"

namespace sharoes::fs {

/// Splits an absolute path ("/a/b/c") into components {"a","b","c"}.
/// Rejects relative paths, empty components, "." and "..". "/" yields {}.
Result<std::vector<std::string>> SplitPath(std::string_view path);

/// Joins components into an absolute path.
std::string JoinPath(const std::vector<std::string>& components);

/// The canonical spelling of an absolute path: "/a//b/" -> "/a/b". Write
/// buffers and subtree checks key by it, so alias spellings of one file
/// address one buffer.
Result<std::string> NormalizePath(std::string_view path);

/// True when canonical `path` lies strictly below canonical `dir`.
bool IsBelow(std::string_view path, std::string_view dir);

/// Moves every entry of `by_path` keyed at canonical `from`, or below
/// it, to the same place under canonical `to`: buffered writes follow a
/// renamed file or directory.
template <typename T>
void RekeySubtree(std::map<std::string, T>* by_path, const std::string& from,
                  const std::string& to) {
  std::vector<std::pair<std::string, T>> moved;
  for (auto it = by_path->begin(); it != by_path->end();) {
    if (it->first == from || IsBelow(it->first, from)) {
      moved.emplace_back(to + it->first.substr(from.size()),
                         std::move(it->second));
      it = by_path->erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [key, value] : moved) (*by_path)[key] = std::move(value);
}

/// Splits into (parent path, basename). Fails for "/".
struct SplitParent {
  std::string parent;
  std::string name;
};
Result<SplitParent> SplitParentName(std::string_view path);

}  // namespace sharoes::fs

#endif  // SHAROES_FS_PATH_H_
