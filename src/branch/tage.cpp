#include "branch/tage.h"

#include <bit>
#include <cassert>
#include <cmath>

namespace bridge {

namespace {
constexpr bool isPow2(unsigned v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

TagePredictor::TagePredictor(const TageConfig& cfg)
    : cfg_(cfg),
      base_(cfg.base_entries, 2u),
      tables_(cfg.num_tables, std::vector<Entry>(cfg.table_entries)),
      updates_to_reset_(cfg.useful_reset_period) {
  assert(isPow2(cfg.base_entries));
  assert(isPow2(cfg.table_entries));
  assert(cfg.num_tables >= 1);
  assert(cfg.min_history >= 1 && cfg.max_history <= 64);
  assert(cfg.min_history <= cfg.max_history);

  // Geometric history series from min to max.
  hist_len_.resize(cfg.num_tables);
  if (cfg.num_tables == 1) {
    hist_len_[0] = cfg.min_history;
  } else {
    const double ratio =
        std::pow(static_cast<double>(cfg.max_history) / cfg.min_history,
                 1.0 / (cfg.num_tables - 1));
    double len = cfg.min_history;
    for (unsigned t = 0; t < cfg.num_tables; ++t) {
      hist_len_[t] = static_cast<unsigned>(len + 0.5);
      if (t > 0 && hist_len_[t] <= hist_len_[t - 1]) {
        hist_len_[t] = hist_len_[t - 1] + 1;
      }
      len *= ratio;
    }
    hist_len_.back() = cfg.max_history;
  }

  const unsigned idx_bits =
      static_cast<unsigned>(std::countr_zero(cfg.table_entries));
  fold_idx_.resize(cfg.num_tables);
  fold_tag1_.resize(cfg.num_tables);
  fold_tag2_.resize(cfg.num_tables);
  for (unsigned t = 0; t < cfg.num_tables; ++t) {
    fold_idx_[t] = FoldedReg(hist_len_[t], idx_bits);
    fold_tag1_[t] = FoldedReg(hist_len_[t], cfg.tag_bits);
    fold_tag2_[t] = FoldedReg(hist_len_[t], cfg.tag_bits - 1);
  }
}

bool TagePredictor::foldedHistoryConsistent() const {
  const unsigned idx_bits =
      static_cast<unsigned>(std::countr_zero(cfg_.table_entries));
  for (unsigned t = 0; t < cfg_.num_tables; ++t) {
    if (fold_idx_[t].val != foldedHistory(hist_len_[t], idx_bits) ||
        fold_tag1_[t].val != foldedHistory(hist_len_[t], cfg_.tag_bits) ||
        fold_tag2_[t].val != foldedHistory(hist_len_[t], cfg_.tag_bits - 1)) {
      return false;
    }
  }
  return true;
}

void TagePredictor::shiftHistory(bool taken) {
  for (unsigned t = 0; t < cfg_.num_tables; ++t) {
    fold_idx_[t].shift(taken, ghist_);
    fold_tag1_[t].shift(taken, ghist_);
    fold_tag2_[t].shift(taken, ghist_);
  }
  ghist_ = (ghist_ << 1) | (taken ? 1u : 0u);
}

std::size_t TagePredictor::baseIndex(Addr pc) const {
  return (pc >> 2) & (cfg_.base_entries - 1);
}

std::uint64_t TagePredictor::foldedHistory(unsigned bits,
                                           unsigned chunk) const {
  // XOR-fold the newest `bits` of global history into `chunk` bits.
  const std::uint64_t hist =
      bits >= 64 ? ghist_ : (ghist_ & ((1ull << bits) - 1));
  std::uint64_t folded = 0;
  for (unsigned shift = 0; shift < bits; shift += chunk) {
    folded ^= (hist >> shift);
  }
  return folded & ((1ull << chunk) - 1);
}

std::size_t TagePredictor::tableIndex(unsigned t, Addr pc) const {
  const unsigned idx_bits =
      static_cast<unsigned>(std::countr_zero(cfg_.table_entries));
  const std::uint64_t h = fold_idx_[t].val;
  return ((pc >> 2) ^ (pc >> (2 + idx_bits)) ^ h ^ (t * 0x9E5u)) &
         (cfg_.table_entries - 1);
}

std::uint16_t TagePredictor::tableTag(unsigned t, Addr pc) const {
  const std::uint64_t h1 = fold_tag1_[t].val;
  const std::uint64_t h2 = fold_tag2_[t].val;
  return static_cast<std::uint16_t>(
      ((pc >> 2) ^ h1 ^ (h2 << 1)) & ((1u << cfg_.tag_bits) - 1));
}

TagePredictor::Lookup TagePredictor::lookup(Addr pc) {
  Lookup out;
  out.alt_pred = base_[baseIndex(pc)] >= 2;
  out.provider_pred = out.alt_pred;
  for (int t = static_cast<int>(cfg_.num_tables) - 1; t >= 0; --t) {
    const std::size_t idx = tableIndex(static_cast<unsigned>(t), pc);
    const Entry& e = tables_[static_cast<std::size_t>(t)][idx];
    if (e.tag == tableTag(static_cast<unsigned>(t), pc) &&
        (e.ctr != 0 || e.useful != 0 || e.tag != 0)) {
      if (out.provider < 0) {
        out.provider = t;
        out.provider_idx = idx;
        out.provider_pred = e.ctr >= 0;
      } else if (out.alt < 0) {
        out.alt = t;
        out.alt_idx = idx;
        out.alt_pred = e.ctr >= 0;
        break;
      }
    }
  }
  // "Use alt" heuristic: for a freshly allocated, weak provider entry the
  // alternate prediction is statistically better.
  if (out.provider >= 0) {
    const Entry& p =
        tables_[static_cast<std::size_t>(out.provider)][out.provider_idx];
    const bool weak = (p.ctr == 0 || p.ctr == -1) && p.useful == 0;
    out.pred = (weak && use_alt_on_na_ >= 0) ? out.alt_pred : out.provider_pred;
  } else {
    out.pred = out.alt_pred;
  }
  return out;
}

bool TagePredictor::predict(Addr pc) {
  const Lookup l = lookup(pc);
  last_provider_ = l.provider < 0 ? 0 : static_cast<unsigned>(l.provider) + 1;
  cached_lookup_ = l;
  cached_pc_ = pc;
  cache_valid_ = true;
  return l.pred;
}

void TagePredictor::update(Addr pc, bool taken) {
  const Lookup l =
      (cache_valid_ && cached_pc_ == pc) ? cached_lookup_ : lookup(pc);
  cache_valid_ = false;  // table writes and the history shift below

  // Track whether the alt-on-weak heuristic helps.
  if (l.provider >= 0) {
    const Entry& p =
        tables_[static_cast<std::size_t>(l.provider)][l.provider_idx];
    const bool weak = (p.ctr == 0 || p.ctr == -1) && p.useful == 0;
    if (weak && l.provider_pred != l.alt_pred) {
      if (l.alt_pred == taken) {
        if (use_alt_on_na_ < 7) ++use_alt_on_na_;
      } else {
        if (use_alt_on_na_ > -8) --use_alt_on_na_;
      }
    }
  }

  // Update the provider's counter (or the base table).
  if (l.provider >= 0) {
    Entry& p = tables_[static_cast<std::size_t>(l.provider)][l.provider_idx];
    if (taken) {
      if (p.ctr < 3) ++p.ctr;
    } else {
      if (p.ctr > -4) --p.ctr;
    }
    // Useful bit: provider was right where alt was wrong.
    if (l.provider_pred != l.alt_pred) {
      if (l.provider_pred == taken) {
        if (p.useful < 3) ++p.useful;
      } else if (p.useful > 0) {
        --p.useful;
      }
    }
  } else {
    std::uint8_t& ctr = base_[baseIndex(pc)];
    if (taken) {
      if (ctr < 3) ++ctr;
    } else {
      if (ctr > 0) --ctr;
    }
  }

  // On a final misprediction, allocate in a longer-history table.
  if (l.pred != taken &&
      l.provider < static_cast<int>(cfg_.num_tables) - 1) {
    bool allocated = false;
    for (unsigned t = static_cast<unsigned>(l.provider + 1);
         t < cfg_.num_tables && !allocated; ++t) {
      const std::size_t idx = tableIndex(t, pc);
      Entry& e = tables_[t][idx];
      if (e.useful == 0) {
        e.tag = tableTag(t, pc);
        e.ctr = taken ? 0 : -1;
        allocated = true;
      }
    }
    if (!allocated) {
      // Everything useful: age the candidates so future allocs succeed.
      for (unsigned t = static_cast<unsigned>(l.provider + 1);
           t < cfg_.num_tables; ++t) {
        Entry& e = tables_[t][tableIndex(t, pc)];
        if (e.useful > 0) --e.useful;
      }
    }
  }

  // Periodic gradual reset of useful counters (column-wise aging).
  if (--updates_to_reset_ == 0) {
    updates_to_reset_ = cfg_.useful_reset_period;
    for (auto& table : tables_) {
      for (Entry& e : table) e.useful >>= 1;
    }
  }

  shiftHistory(taken);
}

}  // namespace bridge
