#ifndef FRAGDB_CORE_SEQ_BITSET_H_
#define FRAGDB_CORE_SEQ_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace fragdb {

/// Set of sequence numbers (1, 2, ...) stored as one bit per seq. Whole
/// 64-seq words of a fully set prefix are dropped, so a stream whose seqs
/// are all set in order costs O(1) words however long it runs; a seq that
/// is never set pins the words after it at one bit per seq.
class SeqBitset {
 public:
  bool Test(SeqNum seq) const {
    if (seq < base_) return true;
    const size_t w = head_ + static_cast<size_t>(seq - base_) / 64;
    return w < words_.size() && ((words_[w] >> Bit(seq)) & 1) != 0;
  }

  void Set(SeqNum seq) {
    if (seq < base_) return;
    const size_t w = head_ + static_cast<size_t>(seq - base_) / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    words_[w] |= uint64_t{1} << Bit(seq);
    while (head_ < words_.size() && words_[head_] == ~uint64_t{0}) {
      ++head_;
      base_ += 64;
    }
    // Reclaim the dropped words once they are half the storage, so the
    // erase is amortized O(1) per word.
    if (head_ > 0 && 2 * head_ >= words_.size()) {
      words_.erase(words_.begin(), words_.begin() + head_);
      head_ = 0;
    }
  }

  void Clear() {
    words_.clear();
    head_ = 0;
    base_ = 1;
  }

  /// Words held, for tests of the prefix drop.
  size_t words() const { return words_.size() - head_; }

 private:
  unsigned Bit(SeqNum seq) const {
    return static_cast<unsigned>((seq - base_) % 64);
  }

  std::vector<uint64_t> words_;
  size_t head_ = 0;  // words_[0, head_) are all set and awaiting reclaim
  SeqNum base_ = 1;  // seq of bit 0 of words_[head_]; every seq below is set
};

}  // namespace fragdb

#endif  // FRAGDB_CORE_SEQ_BITSET_H_
