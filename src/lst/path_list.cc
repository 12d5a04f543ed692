#include "lst/path_list.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace autocomp::lst {

SortedPathList SortedPathList::FromPaths(std::vector<std::string_view> paths) {
  SortedPathList list;
  if (paths.empty()) return list;
  if (std::adjacent_find(paths.begin(), paths.end(),
                         std::greater_equal<>()) != paths.end()) {
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  }
  size_t bytes = 0;
  for (const std::string_view path : paths) bytes += path.size();
  AUTOCOMP_CHECK(bytes <= std::numeric_limits<uint32_t>::max())
      << "path list exceeds 4 GiB";
  auto rep = std::make_shared<Rep>();
  rep->chars.reserve(bytes);
  rep->ends.reserve(paths.size());
  for (const std::string_view path : paths) {
    rep->chars.insert(rep->chars.end(), path.begin(), path.end());
    rep->ends.push_back(static_cast<uint32_t>(rep->chars.size()));
  }
  list.rep_ = std::move(rep);
  return list;
}

bool SortedPathList::Contains(std::string_view path) const {
  size_t lo = 0;
  size_t hi = size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if ((*this)[mid] < path) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < size() && (*this)[lo] == path;
}

}  // namespace autocomp::lst
