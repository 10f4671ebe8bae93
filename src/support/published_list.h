// support: a fixed-capacity, append-only list of plain entries that readers
// walk without taking a lock — including the flight recorder's fatal-signal
// dump path, which may fire while another thread is mid-append.
//
// Appends must be serialized by the owner (the registries append under
// their own mutex). Each append writes its slot, then release-stores the
// new size, so a reader that acquire-loads size() sees only complete
// entries. Appends beyond kCapacity are dropped: the entry still works for
// its owner, it is just invisible to lock-free readers.
#ifndef CERTKIT_SUPPORT_PUBLISHED_LIST_H_
#define CERTKIT_SUPPORT_PUBLISHED_LIST_H_

#include <atomic>

namespace certkit::support {

template <typename T, int kCapacity>
class PublishedList {
 public:
  // Caller holds the owner's lock.
  void Append(const T& entry) {
    const int n = size_.load(std::memory_order_relaxed);
    if (n >= kCapacity) return;
    entries_[n] = entry;
    size_.store(n + 1, std::memory_order_release);
  }

  int size() const { return size_.load(std::memory_order_acquire); }
  const T& operator[](int i) const { return entries_[i]; }

 private:
  T entries_[kCapacity] = {};
  std::atomic<int> size_{0};
};

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_PUBLISHED_LIST_H_
