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
/// Budgets chain: a per-job budget constructed with a parent forwards every
/// charge upward, so concurrent jobs sharing the process-wide budget
/// (ProcessMemoryBudget()) spill when *either* their own limit or the
/// global one trips. All methods are thread-safe.
class MemoryBudget {
 public:
  /// Sentinel limit meaning "never trips".
  static constexpr uint64_t kUnlimited = UINT64_MAX;

  explicit MemoryBudget(uint64_t limit_bytes = kUnlimited,
                        MemoryBudget* parent = nullptr)
      : limit_(limit_bytes), used_(0), parent_(parent) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Accounts for `bytes` here and in every parent. Returns true while this
  /// budget and all ancestors stay within their limits; false means the
  /// caller should spill what it holds and Release() the charge.
  bool Charge(uint64_t bytes) {
    const uint64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) +
                         bytes;
    const bool here_ok = now <= limit_.load(std::memory_order_relaxed);
    const bool parent_ok = parent_ == nullptr || parent_->Charge(bytes);
    return here_ok && parent_ok;
  }

  /// Returns `bytes` previously Charge()d, here and in every parent.
  void Release(uint64_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->Release(bytes);
  }

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  void set_limit(uint64_t limit_bytes) {
    limit_.store(limit_bytes, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> limit_;
  std::atomic<uint64_t> used_;
  MemoryBudget* parent_;
};

/// The process-wide budget that every per-job shuffle budget chains to.
/// Unlimited until narrowed via set_limit() (wired to
/// exec::ExecConfig::process_memory_bytes by the exec::MapReduceBackend
/// constructor).
MemoryBudget& ProcessMemoryBudget();

}  // namespace fsjoin::store

#endif  // FSJOIN_STORE_MEMORY_BUDGET_H_
