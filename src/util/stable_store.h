// Append-only element storage with lock-free random access.
//
// The sharable ConditionInterner (condition/interner.h) hands out dense ids
// into growing element tables, and readers resolve those ids on every
// condition operation. A plain std::vector cannot back that under sharing:
// a reallocating push_back moves the elements a concurrent reader is
// dereferencing. StableStore replaces the vector with a fixed ladder of
// geometrically growing blocks — an element, once published, never moves,
// so readers index with two loads and no lock while one writer appends.
//
// Concurrency contract:
//   - Appends must be externally serialized (the interner wraps them in its
//     storage mutex). Append publishes the element before the new size with
//     release stores.
//   - operator[] is wait-free for any index < size() as observed through an
//     acquire load of size() (or any other happens-before edge to the
//     append, e.g. reading the id out of a mutex-protected map).
//   - Clear() requires exclusive access; it resets the size but keeps the
//     allocated blocks, matching the capacity-retaining generational
//     lifecycle of the interner.
//
// Block k holds 2^(kBaseBits + k) elements, so 40 blocks cover ~2^50
// elements while index math stays a single bit_width. An index past the
// last block aborts in every build mode: the one compare is the whole cost,
// and it also tells the compiler the block index is in range.

#ifndef PW_UTIL_STABLE_STORE_H_
#define PW_UTIL_STABLE_STORE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdlib>
#include <utility>

namespace pw {

template <typename T>
class StableStore {
 public:
  StableStore() = default;

  StableStore(const StableStore&) = delete;
  StableStore& operator=(const StableStore&) = delete;

  ~StableStore() {
    for (auto& slot : blocks_) {
      delete[] slot.load(std::memory_order_relaxed);
    }
  }

  /// Elements published so far. Safe from any thread.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// The element at `i`. Lock-free; `i` must be below a size() observed by
  /// this thread (or otherwise happen-after the publishing Append).
  const T& operator[](size_t i) const {
    size_t offset;
    size_t block = BlockOf(i, &offset);
    return blocks_[block].load(std::memory_order_acquire)[offset];
  }

  /// Appends one element and returns its index. Callers must serialize
  /// appends externally; readers may run concurrently.
  size_t Append(T value) {
    size_t i = size_.load(std::memory_order_relaxed);
    size_t offset;
    size_t block = BlockOf(i, &offset);
    T* data = blocks_[block].load(std::memory_order_relaxed);
    if (data == nullptr) {
      data = new T[BlockCapacity(block)];
      blocks_[block].store(data, std::memory_order_release);
    }
    data[offset] = std::move(value);
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

  /// Drops every element (blocks are kept, so capacity is retained). Slots
  /// keep their old values until overwritten by a later Append — acceptable
  /// for the interner's bounded high-water-mark reuse. Exclusive access
  /// required.
  void Clear() { size_.store(0, std::memory_order_release); }

 private:
  static constexpr size_t kBaseBits = 10;  // first block: 1024 elements
  static constexpr size_t kNumBlocks = 40;

  static size_t BlockOf(size_t i, size_t* offset) {
    size_t shifted = i + (size_t{1} << kBaseBits);
    size_t high = std::bit_width(shifted) - 1;
    *offset = shifted - (size_t{1} << high);
    size_t block = high - kBaseBits;
    if (block >= kNumBlocks) std::abort();
    return block;
  }

  static size_t BlockCapacity(size_t block) {
    return size_t{1} << (kBaseBits + block);
  }

  std::atomic<T*> blocks_[kNumBlocks] = {};
  std::atomic<size_t> size_{0};
};

}  // namespace pw

#endif  // PW_UTIL_STABLE_STORE_H_
