#ifndef T2M_UTIL_WINDOW_DEDUP_H
#define T2M_UTIL_WINDOW_DEDUP_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/base/memory_accountant.h"
#include "src/util/hash.h"

namespace t2m {

/// Order-preserving set of distinct windows, behind StreamingWindowDedup, the
/// sharded-ingest merge, subwindows() and the compliance check: the windows
/// in first-occurrence order, one stored hash each, and an open-addressed
/// slot table (power-of-two size, linear probing, at most half full) of
/// window index + 1, 0 = empty. The caller supplies a well-mixed hash and a
/// full comparison for collisions, so a duplicate costs one probe run and
/// zero allocations.
template <typename T>
class WindowIndex {
public:
  WindowIndex() : slots_(kInitialSlots, 0) {}

  /// Appends the candidate window unless a stored one with the same hash
  /// `matches` it. `make()` materialises the candidate, only when it is
  /// new. Returns true when the candidate was appended.
  template <typename Matches, typename Make>
  bool insert(std::uint64_t hash, const Matches& matches, const Make& make) {
    std::size_t i = find(hash, matches);
    if (slots_[i] != 0) return false;
    if (2 * (windows_.size() + 1) > slots_.size()) {
      grow();
      i = probe_start(hash);
      while (slots_[i] != 0) i = next(i);
    }
    slots_[i] = static_cast<std::uint32_t>(windows_.size() + 1);
    hashes_.push_back(hash);
    windows_.push_back(make());
    element_bytes_ += windows_.back().size() * sizeof(T);
    // Charge growth in batches, keeping atomics off the hot path: a cap is
    // enforced with at most 256 KiB of slack per index.
    const std::size_t bytes = footprint();
    if (bytes >= charge_.charged() + kChargeBatchBytes) charge_.set_charged(bytes);
    return true;
  }

  /// Whether a stored window with this hash `matches`.
  template <typename Matches>
  bool contains(std::uint64_t hash, const Matches& matches) const {
    return slots_[find(hash, matches)] != 0;
  }

  std::size_t size() const { return windows_.size(); }
  /// Distinct windows so far, in first-occurrence order.
  const std::vector<std::vector<T>>& windows() const { return windows_; }
  /// Surrenders the window list; the index is spent afterwards.
  std::vector<std::vector<T>> take() { return std::move(windows_); }

private:
  /// An upper bound on one heap block's allocator header plus rounding.
  static constexpr std::size_t kAllocOverhead = 32;
  static constexpr std::size_t kChargeBatchBytes = 256u << 10;
  static constexpr std::size_t kInitialSlots = 16;

  std::size_t probe_start(std::uint64_t hash) const { return hash & (slots_.size() - 1); }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  /// The slot of the stored window with this hash that `matches`, or the
  /// empty slot that ends its probe run.
  template <typename Matches>
  std::size_t find(std::uint64_t hash, const Matches& matches) const {
    std::size_t i = probe_start(hash);
    for (; slots_[i] != 0; i = next(i)) {
      const std::uint32_t idx = slots_[i] - 1;
      if (hashes_[idx] == hash && matches(windows_[idx])) break;
    }
    return i;
  }

  void grow() {
    slots_.assign(slots_.size() * 2, 0);
    for (std::size_t idx = 0; idx < hashes_.size(); ++idx) {
      std::size_t i = probe_start(hashes_[idx]);
      while (slots_[i] != 0) i = next(i);
      slots_[i] = static_cast<std::uint32_t>(idx + 1);
    }
  }

  /// Upper bound on the heap bytes held: windows, hashes and slots.
  std::size_t footprint() const {
    return windows_.capacity() * sizeof(std::vector<T>) + element_bytes_ +
           windows_.size() * kAllocOverhead + hashes_.capacity() * sizeof(std::uint64_t) +
           slots_.capacity() * sizeof(std::uint32_t);
  }

  std::vector<std::vector<T>> windows_;
  std::vector<std::uint64_t> hashes_;  ///< hashes_[i] belongs to windows_[i]
  std::vector<std::uint32_t> slots_;   ///< window index + 1; 0 = empty
  std::size_t element_bytes_ = 0;
  ChargeTracker charge_;  ///< released when the index is destroyed
};

/// One-pass dedup of the sliding length-w windows of a stream: push one
/// element at a time; each completed window is checked against the distinct
/// windows seen so far and materialised only when genuinely new. The
/// mechanism behind StreamingSegmenter, and so behind every ingest pass's one
/// window set:
///
/// - a w-slot ring buffer holds the current window, so nothing of the
///   stream's past is retained beyond the distinct-window list;
/// - the window hash (kPolyHashBase, mod 2^64) is rolled in O(1) per
///   element — the expiring element's contribution base^(w-1) is
///   subtracted before the new one is shifted in;
/// - a WindowIndex keyed by the mixed rolling hash holds the distinct
///   windows, and a candidate window is compared element-wise straight out
///   of the ring, so the common duplicate case costs one O(w) compare and
///   zero allocations.
///
/// Memory: the ring + the index — O(w + dedup set), independent of stream
/// length.
template <typename T>
class StreamingWindowDedup {
public:
  /// `w` must be positive; callers own that validation.
  explicit StreamingWindowDedup(std::size_t w) : w_(w) {
    ring_.resize(w);
    for (std::size_t i = 1; i < w; ++i) drop_coeff_ *= kPolyHashBase;
  }

  void push(T value) {
    const std::size_t slot = count_ % w_;
    if (count_ >= w_) {
      // Expire the element leaving the window before it is overwritten.
      rolling_ -= drop_coeff_ * static_cast<std::uint64_t>(ring_[slot]);
    }
    rolling_ = rolling_ * kPolyHashBase + static_cast<std::uint64_t>(value);
    ring_[slot] = value;
    ++count_;
    if (count_ < w_) return;
    // A full window ends here: dedup it, materialise only when new.
    index_.insert(
        hash_mix(rolling_), [this](const std::vector<T>& window) { return in_ring(window); },
        [this] {
          std::vector<T> window(w_);
          for (std::size_t i = 0; i < w_; ++i) window[i] = ring_[(count_ + i) % w_];
          return window;
        });
  }

  /// Total elements pushed.
  std::size_t pushed() const { return count_; }
  /// Distinct windows collected so far, in first-occurrence order.
  const std::vector<std::vector<T>>& windows() const { return index_.windows(); }
  /// Surrenders the distinct-window list; the dedup is spent afterwards.
  std::vector<std::vector<T>> take_windows() { return index_.take(); }

  /// The whole stream in push order; only valid while pushed() <= w (the
  /// ring has not wrapped). Serves the short-stream case where the caller
  /// wants the entire sequence as one window.
  std::vector<T> short_prefix() const {
    return {ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(count_)};
  }

private:
  /// Whether `window` equals the current window, which spans pushes
  /// count_-w .. count_-1; its oldest element sits at ring index count_ % w
  /// (the next write position).
  bool in_ring(const std::vector<T>& window) const {
    for (std::size_t i = 0; i < w_; ++i) {
      if (ring_[(count_ + i) % w_] != window[i]) return false;
    }
    return true;
  }

  std::size_t w_;
  std::vector<T> ring_;
  std::size_t count_ = 0;
  std::uint64_t rolling_ = 0;
  std::uint64_t drop_coeff_ = 1;  ///< kPolyHashBase^(w-1)
  WindowIndex<T> index_;
};

/// The distinct length-k subwindows of `base`, k >= 1: the base windows in
/// order, each window's offsets ascending, the first occurrence of every
/// subwindow kept; a base window shorter than k contributes none. When
/// `base` holds the distinct length-m windows of a sequence P (m >= k) in
/// first-occurrence order — or [P] itself — the result is P's own distinct
/// length-k windows in first-occurrence order: reading the windows at
/// start j = 0, 1, ... offsets 0..m-k visits position p for the first time
/// at start max(0, p-(m-k)), after every earlier position, and a duplicate
/// base window only revisits contents already kept. This is how one ingest
/// pass yields both the segments (k = w) and P_l (k = l) from one window set.
template <typename T>
WindowIndex<T> subwindows(std::span<const std::vector<T>> base, std::size_t k) {
  WindowIndex<T> out;
  for (const std::vector<T>& window : base) {
    for (std::size_t o = 0; o + k <= window.size(); ++o) {
      const auto first = window.begin() + static_cast<std::ptrdiff_t>(o);
      const auto last = first + static_cast<std::ptrdiff_t>(k);
      out.insert(
          window_hash(first, last),
          [&](const std::vector<T>& held) { return std::equal(first, last, held.begin()); },
          [&] { return std::vector<T>(first, last); });
    }
  }
  return out;
}

}  // namespace t2m

#endif  // T2M_UTIL_WINDOW_DEDUP_H
