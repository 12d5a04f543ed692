/// \file path_list.h
/// \brief An immutable, sorted set of paths packed into one buffer.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string_view>
#include <vector>

namespace autocomp::lst {

/// \brief An immutable, sorted, duplicate-free list of paths: every path
/// back to back in one char buffer, entry i ending at a uint32_t offset.
/// Copies share the buffer (a snapshot is copied into every successor
/// metadata version), so a path costs its bytes plus four, not a tree
/// node and a heap string. The views it hands out are valid while any
/// copy of the list lives.
class SortedPathList {
 public:
  /// Forward iteration over the paths as views, in sorted order.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = std::string_view;

    Iterator() = default;
    std::string_view operator*() const { return (*list_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++i_;
      return before;
    }
    bool operator==(const Iterator& other) const { return i_ == other.i_; }

   private:
    friend class SortedPathList;
    Iterator(const SortedPathList* list, size_t i) : list_(list), i_(i) {}
    const SortedPathList* list_ = nullptr;
    size_t i_ = 0;
  };

  SortedPathList() = default;

  /// Packs `paths`: already sorted and duplicate-free input (what
  /// Transaction::Apply hands over) is copied as is; any other order is
  /// sorted and deduplicated first, so decoders accept it.
  static SortedPathList FromPaths(std::vector<std::string_view> paths);

  size_t size() const { return rep_ == nullptr ? 0 : rep_->ends.size(); }
  bool empty() const { return size() == 0; }
  std::string_view operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : rep_->ends[i - 1];
    return std::string_view(rep_->chars.data() + begin,
                            rep_->ends[i] - begin);
  }
  /// Binary search.
  bool Contains(std::string_view path) const;

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  struct Rep {
    std::vector<char> chars;
    std::vector<uint32_t> ends;
  };
  std::shared_ptr<const Rep> rep_;  // null when empty
};

}  // namespace autocomp::lst
