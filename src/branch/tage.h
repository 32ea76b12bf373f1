// TAGE direction predictor (Seznec & Michaud, JILP 2006), the family the
// BOOM front end uses ("TAGE-L branch predictor", paper Table 5).
//
// A base bimodal table is backed by `num_tables` tagged components indexed by
// geometrically increasing global-history lengths. Prediction comes from the
// longest-history component whose (partial) tag matches; allocation on a
// mispredict steals a not-useful entry in a longer component.
#pragma once

#include <cstdint>
#include <vector>

#include "branch/predictor.h"

namespace bridge {

struct TageConfig {
  unsigned base_entries = 4096;    // bimodal base table (power of two)
  unsigned table_entries = 1024;   // entries per tagged table (power of two)
  unsigned num_tables = 5;         // tagged components
  unsigned min_history = 4;        // history length of the shortest table
  unsigned max_history = 64;       // history length of the longest table
  unsigned tag_bits = 9;           // partial tag width
  unsigned useful_reset_period = 1u << 18;  // gradual u-bit aging interval
};

class TagePredictor final : public DirectionPredictor {
 public:
  explicit TagePredictor(const TageConfig& cfg = {});

  bool predict(Addr pc) override;
  void update(Addr pc, bool taken) override;

  const TageConfig& config() const { return cfg_; }

  /// Number of tagged-component hits on the last predict() (diagnostics).
  unsigned lastProviderTable() const { return last_provider_; }

  /// True iff every incrementally maintained folded-history register equals
  /// the from-scratch fold of the current global history (test hook; the
  /// hot path never recomputes).
  bool foldedHistoryConsistent() const;

 private:
  struct Entry {
    std::int8_t ctr = 0;      // signed 3-bit: >=0 predicts taken
    std::uint16_t tag = 0;
    std::uint8_t useful = 0;  // 2-bit useful counter
  };

  std::size_t baseIndex(Addr pc) const;
  std::size_t tableIndex(unsigned t, Addr pc) const;
  std::uint16_t tableTag(unsigned t, Addr pc) const;
  std::uint64_t foldedHistory(unsigned bits, unsigned chunk) const;

  // Incrementally maintained XOR-fold of the newest `bits` of global
  // history into `chunk` bits. Bit j of the fold is the XOR of the history
  // bits whose position is congruent to j mod chunk, which makes the
  // per-branch update O(1): rotate left by one inside `chunk` bits, XOR
  // the inserted bit into position 0, XOR the evicted bit (old position
  // bits-1) out of position bits mod chunk. foldedHistory() recomputes the
  // same value from scratch and is kept as the checked reference
  // (tests/test_tage.cpp cross-validates on random branch streams) —
  // the loop it runs per table per branch was the hottest part of the
  // whole predictor (hostbench's `branch` layer times it). evict_pos and
  // mask are fixed per register, so shift() does no divide.
  struct FoldedReg {
    FoldedReg() = default;
    FoldedReg(unsigned history_bits, unsigned fold_bits)
        : bits(history_bits),
          chunk(fold_bits),
          evict_pos(history_bits % fold_bits),
          mask((1ull << fold_bits) - 1) {}
    std::uint64_t val = 0;
    unsigned bits = 0;       // history length folded in
    unsigned chunk = 1;      // fold width
    unsigned evict_pos = 0;  // bits % chunk
    std::uint64_t mask = 1;  // low `chunk` bits
    void shift(bool inserted, std::uint64_t prev_ghist) {
      const std::uint64_t evicted = (prev_ghist >> (bits - 1)) & 1u;
      val = ((val << 1) | (val >> (chunk - 1))) & mask;
      val ^= inserted ? 1u : 0u;
      val ^= evicted << evict_pos;
    }
  };
  void shiftHistory(bool taken);

  // Internal lookup shared by predict/update so both see identical state.
  struct Lookup {
    int provider = -1;   // tagged table providing the prediction, -1 = base
    int alt = -1;        // next-longest matching table, -1 = base
    bool provider_pred = false;
    bool alt_pred = false;
    bool pred = false;
    std::size_t provider_idx = 0;
    std::size_t alt_idx = 0;
  };
  Lookup lookup(Addr pc);

  // predict(pc) immediately followed by update(pc, taken) — the only call
  // sequence the front end uses — would redo an identical lookup: nothing
  // it reads (tables, ghist_) changes in between. predict() caches its
  // result and update() reuses it when the pc matches; any mutation
  // (update's own table writes and history shift) invalidates the cache.
  // Purely an evaluation-order shortcut: behaviour is bit-identical, and
  // the hot fast-forward warm path spends roughly half its branch time in
  // the second lookup.
  Lookup cached_lookup_;
  Addr cached_pc_ = 0;
  bool cache_valid_ = false;

  TageConfig cfg_;
  std::vector<std::uint8_t> base_;          // 2-bit counters
  std::vector<std::vector<Entry>> tables_;  // [table][entry]
  std::vector<unsigned> hist_len_;          // history length per table
  std::vector<FoldedReg> fold_idx_;         // per-table index fold
  std::vector<FoldedReg> fold_tag1_;        // per-table tag fold, tag_bits
  std::vector<FoldedReg> fold_tag2_;        // per-table tag fold, tag_bits-1
  std::uint64_t ghist_ = 0;                 // global history, newest in bit 0
  unsigned updates_to_reset_;  // counts down to the next useful-bit aging
  unsigned last_provider_ = 0;
  // "use alt on newly allocated" counter from the TAGE paper, 4-bit signed.
  int use_alt_on_na_ = 0;
};

}  // namespace bridge
