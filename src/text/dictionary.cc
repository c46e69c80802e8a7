#include "text/dictionary.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "util/hash.h"
#include "util/logging.h"

namespace fsjoin {

namespace {

constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline uint64_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Absorbs one 64-bit word: multiply, then fold the high bits down so the
// next word's xor lands on well-mixed state.
inline uint64_t Absorb(uint64_t h, uint64_t w) {
  h = (h ^ w) * kMul;
  return h ^ (h >> 32);
}

}  // namespace

uint64_t TokenDictionary::Hash(std::string_view token) {
  const char* p = token.data();
  size_t n = token.size();
  uint64_t h = static_cast<uint64_t>(n) * kMul;
  for (; n >= 8; p += 8, n -= 8) h = Absorb(h, Load64(p));
  if (n >= 4) {
    // Two overlapping 4-byte loads cover 4..7 bytes.
    h = Absorb(h, (Load32(p) << 32) | Load32(p + n - 4));
  } else if (n > 0) {
    const auto byte = [p](size_t i) {
      return static_cast<uint64_t>(static_cast<unsigned char>(p[i]));
    };
    h = Absorb(h, (byte(0) << 16) | (byte(n / 2) << 8) | byte(n - 1));
  }
  return Mix64(h);
}

size_t TokenDictionary::FindSlot(std::string_view token, uint64_t hash) const {
  const uint32_t tag = static_cast<uint32_t>(hash);
  const size_t mask = slots_.size() - 1;
  for (size_t i = static_cast<size_t>(hash >> shift_);; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == kEmptySlot) return i;
    if (static_cast<uint32_t>(slot >> 32) == tag &&
        View(static_cast<TokenId>(slot)) == token) {
      return i;
    }
  }
}

void TokenDictionary::Rehash(size_t capacity) {
  int bits = 0;
  while ((size_t{1} << bits) < capacity) ++bits;
  slots_.assign(size_t{1} << bits, kEmptySlot);
  shift_ = 64 - bits;
  const size_t mask = slots_.size() - 1;
  for (TokenId id = 0; id < static_cast<TokenId>(size()); ++id) {
    const uint64_t hash = Hash(View(id));
    size_t i = static_cast<size_t>(hash >> shift_);
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = PackSlot(hash, id);
  }
}

void TokenDictionary::ReserveSlots(size_t n) {
  if (n * 4 > slots_.size() * 3) Rehash(std::max<size_t>(16, n * 4 / 3 + 1));
}

TokenId TokenDictionary::Intern(std::string_view token, uint64_t hash) {
  ReserveSlots(size() + 1);
  const size_t i = FindSlot(token, hash);
  if (slots_[i] != kEmptySlot) return static_cast<TokenId>(slots_[i]);
  FSJOIN_CHECK(size() < kEmpty);
  const TokenId id = static_cast<TokenId>(size());
  slots_[i] = PackSlot(hash, id);
  offsets_.push_back(arena_.size());
  arena_.append(token);
  frequency_.push_back(0);
  return id;
}

void TokenDictionary::AppendDistinct(
    size_t count, const std::function<std::string_view(size_t)>& token,
    const std::function<uint64_t(size_t)>& frequency, ThreadPool& pool) {
  const size_t base = size();
  FSJOIN_CHECK(base + count < kEmpty);
  // Before size() grows: a rehash walks the ids already present.
  ReserveSlots(base + count);
  // Offsets are a prefix sum of the lengths: sum per chunk in parallel,
  // then scan the chunk sums.
  constexpr size_t kChunk = 4096;
  const size_t chunks = (count + kChunk - 1) / kChunk;
  std::vector<uint64_t> chunk_start(chunks + 1, 0);
  pool.ParallelFor(chunks, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      uint64_t bytes = 0;
      for (size_t i = c * kChunk; i < std::min(count, (c + 1) * kChunk); ++i) {
        bytes += token(i).size();
      }
      chunk_start[c + 1] = bytes;
    }
  });
  chunk_start[0] = arena_.size();
  for (size_t c = 0; c < chunks; ++c) chunk_start[c + 1] += chunk_start[c];
  arena_.resize(chunk_start[chunks]);
  offsets_.resize(base + count);
  frequency_.resize(base + count);
  const size_t mask = slots_.size() - 1;
  pool.ParallelFor(chunks, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      uint64_t at = chunk_start[c];
      for (size_t i = c * kChunk; i < std::min(count, (c + 1) * kChunk); ++i) {
        const std::string_view t = token(i);
        offsets_[base + i] = at;
        std::copy(t.begin(), t.end(),
                  arena_.begin() + static_cast<ptrdiff_t>(at));
        at += t.size();
        frequency_[base + i] = frequency(i);
        // Linear probing with a compare-and-swap per claim: every token is
        // new, so a thread only ever needs an empty slot.
        const uint64_t hash = Hash(t);
        const uint64_t packed = PackSlot(hash, static_cast<TokenId>(base + i));
        for (size_t j = static_cast<size_t>(hash >> shift_);;
             j = (j + 1) & mask) {
          std::atomic_ref<uint64_t> slot(slots_[j]);
          uint64_t expected = kEmptySlot;
          if (slot.load(std::memory_order_relaxed) == kEmptySlot &&
              slot.compare_exchange_strong(expected, packed,
                                           std::memory_order_relaxed)) {
            break;
          }
        }
      }
    }
  });
}

Result<TokenId> TokenDictionary::Lookup(std::string_view token) const {
  if (!slots_.empty()) {
    const size_t i = FindSlot(token, Hash(token));
    if (slots_[i] != kEmptySlot) return static_cast<TokenId>(slots_[i]);
  }
  return Status::NotFound("token not in dictionary: " + std::string(token));
}

std::string_view TokenDictionary::TokenString(TokenId id) const {
  FSJOIN_CHECK(id < size());
  return View(id);
}

void TokenDictionary::AddFrequency(TokenId id, uint64_t delta) {
  FSJOIN_CHECK(id < frequency_.size());
  frequency_[id] += delta;
}

uint64_t TokenDictionary::Frequency(TokenId id) const {
  if (id >= frequency_.size()) return 0;
  return frequency_[id];
}

void TokenDictionary::ClearFrequencies() {
  std::fill(frequency_.begin(), frequency_.end(), 0);
}

}  // namespace fsjoin
