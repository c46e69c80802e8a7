#ifndef FSJOIN_STORE_MEMORY_BUDGET_H_
#define FSJOIN_STORE_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>

namespace fsjoin::store {

/// Byte-accounting governor for shuffle memory.
///
/// Holders of large allocations (shuffle shards owning KvBuffer arenas)
/// Charge() the bytes they take ownership of and
/// Release() them once the bytes are spilled to disk or consumed. Charge
/// never blocks and never fails — memory has already been allocated by the
/// time it is accounted for — it only reports whether the holder is now
/// over budget, and the caller is expected to react by spilling and
/// releasing. This makes the budget a *governor*, not an allocator: a
/// single record larger than the whole budget still passes through, it
/// just gets spilled immediately afterwards.
///
/// The engine keeps one budget per job (EngineOptions::shuffle_memory_bytes).
/// All methods are thread-safe.
class MemoryBudget {
 public:
  /// Sentinel limit meaning "never trips".
  static constexpr uint64_t kUnlimited = UINT64_MAX;

  explicit MemoryBudget(uint64_t limit_bytes = kUnlimited)
      : limit_(limit_bytes), used_(0) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Accounts for `bytes`. Returns true while the budget stays within its
  /// limit; false means the caller should spill what it holds and
  /// Release() the charge.
  bool Charge(uint64_t bytes) {
    return used_.fetch_add(bytes, std::memory_order_relaxed) + bytes <=
           limit_;
  }

  /// Returns `bytes` previously Charge()d.
  void Release(uint64_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }

 private:
  const uint64_t limit_;
  std::atomic<uint64_t> used_;
};

}  // namespace fsjoin::store

#endif  // FSJOIN_STORE_MEMORY_BUDGET_H_
