#include "fs/path.h"

#include "fs/dir_table.h"

namespace sharoes::fs {

Result<std::vector<std::string>> SplitPath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: '" +
                                   std::string(path) + "'");
  }
  std::vector<std::string> components;
  size_t pos = 1;
  while (pos < path.size()) {
    size_t next = path.find('/', pos);
    if (next == std::string_view::npos) next = path.size();
    std::string comp(path.substr(pos, next - pos));
    if (!comp.empty()) {
      if (!IsValidName(comp)) {
        return Status::InvalidArgument("invalid path component '" + comp +
                                       "'");
      }
      components.push_back(std::move(comp));
    }
    pos = next + 1;
  }
  return components;
}

std::string JoinPath(const std::vector<std::string>& components) {
  if (components.empty()) return "/";
  std::string out;
  for (const std::string& c : components) {
    out += '/';
    out += c;
  }
  return out;
}

Result<std::string> NormalizePath(std::string_view path) {
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> comps, SplitPath(path));
  return JoinPath(comps);
}

bool IsBelow(std::string_view path, std::string_view dir) {
  return path.size() > dir.size() && path.substr(0, dir.size()) == dir &&
         path[dir.size()] == '/';
}

Result<SplitParent> SplitParentName(std::string_view path) {
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> comps, SplitPath(path));
  if (comps.empty()) {
    return Status::InvalidArgument("cannot split the root path");
  }
  SplitParent sp;
  sp.name = comps.back();
  comps.pop_back();
  sp.parent = JoinPath(comps);
  return sp;
}

}  // namespace sharoes::fs
