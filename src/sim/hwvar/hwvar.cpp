#include "sim/hwvar/hwvar.h"

#include <charconv>
#include <cstdlib>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/log.h"
#include "sim/rng.h"

namespace bridge {

namespace {

/// Every u64 knob, in canonical spec order. One table drives the parser,
/// specString(), describe(), and the override plumbing so the five can
/// never drift apart.
struct HwVarKnob {
  const char* spec_key;      // name in the --hwvar spec string
  const char* override_key;  // dotted SocConfig override key
  std::uint64_t HwVarParams::* slot;
};

const std::vector<HwVarKnob>& knobs() {
  static const std::vector<HwVarKnob> k = {
      {"interval", "hwvar.interval_ops", &HwVarParams::interval_ops},
      {"seed", "hwvar.seed", &HwVarParams::seed},
      {"placement", "hwvar.placement", &HwVarParams::placement},
      {"levels", "hwvar.levels", &HwVarParams::levels},
      {"minfreq", "hwvar.min_freq_pct", &HwVarParams::min_freq_pct},
      {"shift", "hwvar.dvfs_shift_pm", &HwVarParams::dvfs_shift_pm},
      {"dvfslat", "hwvar.dvfs_latency_cycles",
       &HwVarParams::dvfs_latency_cycles},
      {"heat", "hwvar.therm_heat_pm", &HwVarParams::therm_heat_pm},
      {"cool", "hwvar.therm_cool_pm", &HwVarParams::therm_cool_pm},
      {"threshold", "hwvar.therm_threshold", &HwVarParams::therm_threshold},
      {"tick", "hwvar.tick_ops", &HwVarParams::tick_ops},
      {"tickcycles", "hwvar.tick_cycles", &HwVarParams::tick_cycles},
      {"preempt", "hwvar.preempt_pm", &HwVarParams::preempt_pm},
      {"preemptcycles", "hwvar.preempt_cycles", &HwVarParams::preempt_cycles},
  };
  return k;
}

/// Decimal digits over the full u64 range; overflow and any other
/// character (sign, space) fail, as in Config::getUint.
bool parseU64(std::string_view text, std::uint64_t* out) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

bool HwVarParams::validate(std::string* error) const {
  if (!enabled) return true;
  const auto fail = [&](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (interval_ops == 0) return fail("hwvar interval_ops must be >= 1");
  if (levels == 0) return fail("hwvar levels must be >= 1");
  if (min_freq_pct == 0 || min_freq_pct > 100) {
    return fail("hwvar min_freq_pct must be in [1, 100]");
  }
  if (dvfs_shift_pm > 1000) {
    return fail("hwvar dvfs_shift_pm must be in [0, 1000]");
  }
  if (preempt_pm > 1000) return fail("hwvar preempt_pm must be in [0, 1000]");
  if (therm_heat_pm > 100000 || therm_cool_pm > 100000) {
    return fail("hwvar thermal per-mille rates must be in [0, 100000]");
  }
  return true;
}

std::string HwVarParams::specString() const {
  if (!enabled) return "off";
  std::string out;
  for (const HwVarKnob& k : knobs()) {
    if (!out.empty()) out += ',';
    out += k.spec_key;
    out += '=';
    out += std::to_string(this->*k.slot);
  }
  return out;
}

std::string HwVarParams::describe() const {
  std::string out;
  for (const HwVarKnob& k : knobs()) {
    if (!out.empty()) out += '/';
    out += std::to_string(this->*k.slot);
  }
  return out;
}

bool parseHwVarSpec(std::string_view spec, HwVarParams* out,
                    std::string* error) {
  const auto fail = [&](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  HwVarParams p;
  if (spec.empty()) return fail("empty hwvar spec");
  if (spec == "off" || spec == "0") {
    *out = p;
    return true;
  }
  p.enabled = true;
  if (spec == "on" || spec == "1") {
    *out = p;
    return true;
  }
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    std::string_view field = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return fail("malformed hwvar field '" + std::string(field) +
                  "' (expected key=value)");
    }
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    std::uint64_t* slot = nullptr;
    for (const HwVarKnob& k : knobs()) {
      if (key == k.spec_key) {
        slot = &(p.*k.slot);
        break;
      }
    }
    if (slot == nullptr) {
      return fail("unknown hwvar key '" + std::string(key) + "'");
    }
    if (!parseU64(value, slot)) {
      return fail("invalid hwvar value '" + std::string(value) + "' for " +
                  std::string(key));
    }
  }
  std::string why;
  if (!p.validate(&why)) return fail(std::move(why));
  *out = p;
  return true;
}

HwVarParams HwVarParams::fromEnv() {
  const char* env = std::getenv("BRIDGE_HWVAR");
  if (env == nullptr || *env == '\0') return {};
  HwVarParams p;
  std::string error;
  if (!parseHwVarSpec(env, &p, &error)) {
    BRIDGE_LOG(kWarn) << "BRIDGE_HWVAR='" << env << "' is malformed ("
                      << error << "); variability disabled";
    return {};
  }
  return p;
}

void applyHwVarOverrides(Config* overrides, const HwVarParams& p) {
  overrides->set("hwvar.enabled", p.enabled ? "true" : "false");
  for (const HwVarKnob& k : knobs()) {
    overrides->set(k.override_key, std::to_string(p.*k.slot));
  }
}

bool hasHwVarOverrides(const Config& overrides) {
  bool found = false;
  overrides.forEach([&](const std::string& key, const std::string&) {
    if (key.rfind("hwvar.", 0) == 0) found = true;
  });
  return found;
}

std::uint64_t* hwvarOverrideSlot(HwVarParams* p, std::string_view key) {
  for (const HwVarKnob& k : knobs()) {
    if (key == k.override_key) return &(p->*k.slot);
  }
  return nullptr;
}

std::uint64_t hwvarRoll(const HwVarParams& p, HwVarStream stream,
                        std::uint64_t physical_core, std::uint64_t interval) {
  // One splitmix64 finalization of the combined key: the draw is a pure
  // function of (seed, stream, core, interval), the FaultPlan idiom.
  SplitMix64 mix(p.seed ^
                 (static_cast<std::uint64_t>(stream) * 0x9E3779B97F4A7C15ull) ^
                 (physical_core * 0xBF58476D1CE4E5B9ull) ^
                 (interval * 0x94D049BB133111EBull));
  return mix.next();
}

std::uint64_t hwvarPhysicalCore(const HwVarParams& p, unsigned core_id) {
  return static_cast<std::uint64_t>(core_id) + p.placement;
}

unsigned hwvarDvfsStep(const HwVarParams& p, std::uint64_t physical_core,
                       std::uint64_t interval, unsigned prev) {
  if (p.levels <= 1 || interval == 0) return 0;
  if (hwvarRoll(p, HwVarStream::kDvfsShift, physical_core, interval) % 1000 >=
      p.dvfs_shift_pm) {
    return prev;
  }
  return static_cast<unsigned>(
      hwvarRoll(p, HwVarStream::kDvfsLevel, physical_core, interval) %
      p.levels);
}

unsigned hwvarDvfsState(const HwVarParams& p, std::uint64_t physical_core,
                        std::uint64_t interval) {
  unsigned state = 0;
  for (std::uint64_t i = 1; i <= interval; ++i) {
    state = hwvarDvfsStep(p, physical_core, i, state);
  }
  return state;
}

unsigned hwvarFreqPct(const HwVarParams& p, unsigned state) {
  if (p.levels <= 1 || state == 0) return 100;
  const unsigned span = 100 - static_cast<unsigned>(p.min_freq_pct);
  const unsigned step = span / static_cast<unsigned>(p.levels - 1);
  return 100 - state * step;
}

std::uint64_t hwvarReplicaSeed(std::uint64_t base_seed,
                               std::uint64_t replica) {
  SplitMix64 mix(base_seed ^ (replica * 0x9E3779B97F4A7C15ull));
  return mix.next();
}

bool hwvarPreempts(const HwVarParams& p, std::uint64_t physical_core,
                   std::uint64_t interval) {
  if (p.preempt_pm == 0 || p.preempt_cycles == 0) return false;
  return hwvarRoll(p, HwVarStream::kPreempt, physical_core, interval) % 1000 <
         p.preempt_pm;
}

}  // namespace bridge
