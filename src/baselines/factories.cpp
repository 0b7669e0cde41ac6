#include "baselines/factories.hpp"

#include <algorithm>
#include <memory>

#include "baselines/flood_probe.hpp"
#include "baselines/lynch_welch.hpp"
#include "baselines/srikanth_toueg.hpp"
#include "core/cps.hpp"
#include "sync/gradient.hpp"
#include "util/check.hpp"

namespace crusader::baselines {

const char* to_string(ProtocolKind kind) {
  return util::spell(kProtocolSpellings, kind);
}

bool neighbor_cast(ProtocolKind kind) noexcept {
  return kind == ProtocolKind::kGradient || kind == ProtocolKind::kJumpMax;
}

ProtocolSetup make_setup(ProtocolKind kind, const sim::ModelParams& model,
                         double slack) {
  ProtocolSetup setup;
  setup.kind = kind;
  switch (kind) {
    case ProtocolKind::kCps:
      setup.cps = core::derive_cps_params(model, slack);
      setup.feasible = setup.cps.feasible;
      setup.predicted_skew = setup.cps.S;
      setup.initial_offset = setup.cps.S;
      setup.round_length = setup.cps.p_max;
      break;
    case ProtocolKind::kLynchWelch:
      setup.lw = core::derive_lw_params(model, slack);
      setup.feasible = setup.lw.feasible;
      setup.predicted_skew = setup.lw.S;
      setup.initial_offset = setup.lw.S;
      setup.round_length = setup.lw.T + 3.0 * setup.lw.S;
      break;
    case ProtocolKind::kSrikanthToueg:
      setup.st = core::derive_st_params(model);
      setup.feasible = true;
      setup.predicted_skew = setup.st.skew;
      // ST needs no initial synchrony, but worlds still spread offsets a bit
      // to exercise it; d is a natural scale.
      setup.initial_offset = model.d;
      setup.round_length = setup.st.T + 2.0 * model.d;
      break;
    case ProtocolKind::kFloodProbe:
      // No derived constants: the probe is feasible for every admissible
      // model, pulses bracket one delivery window (see flood_probe.hpp), and
      // nodes start aligned so receivers need no initial synchrony at all.
      setup.feasible = true;
      setup.predicted_skew =
          std::max(model.u, model.d * (1.0 - 1.0 / model.vartheta));
      setup.initial_offset = 0.0;
      setup.round_length = 2.0 * model.d;
      break;
    case ProtocolKind::kGradient:
    case ProtocolKind::kJumpMax:
      // Always feasible: both variants only ever pull clocks forward toward
      // neighbors, never assume initial synchrony, and pulse every T = 2·d.
      // The honest prediction is the global envelope n·σ with σ the
      // per-round uncertainty scale — the fresh-edge allowance of the KLLO
      // gate; the per-edge verdict is the envelope gate's business.
      setup.feasible = true;
      setup.round_length = 2.0 * model.d;
      setup.predicted_skew =
          static_cast<double>(model.n) *
          (model.u + (model.vartheta - 1.0) * setup.round_length);
      setup.initial_offset = 0.0;
      break;
  }
  return setup;
}

sim::HonestFactory make_protocol_factory(const ProtocolSetup& setup,
                                         Round max_rounds) {
  CS_CHECK_MSG(setup.feasible, "protocol setup infeasible for this model");
  switch (setup.kind) {
    case ProtocolKind::kCps: {
      core::CpsConfig config;
      config.params = setup.cps;
      config.max_rounds = max_rounds;
      return [config](NodeId) { return std::make_unique<core::CpsNode>(config); };
    }
    case ProtocolKind::kLynchWelch: {
      LwConfig config;
      config.params = setup.lw;
      config.max_rounds = max_rounds;
      return [config](NodeId) {
        return std::make_unique<LynchWelchNode>(config);
      };
    }
    case ProtocolKind::kSrikanthToueg: {
      StConfig config;
      config.params = setup.st;
      config.max_rounds = max_rounds;
      return [config](NodeId) {
        return std::make_unique<SrikanthTouegNode>(config);
      };
    }
    case ProtocolKind::kFloodProbe: {
      ProbeConfig config;
      config.max_rounds = max_rounds;
      return [config](NodeId) {
        return std::make_unique<FloodProbeNode>(config);
      };
    }
    case ProtocolKind::kGradient:
    case ProtocolKind::kJumpMax: {
      sync::GradientConfig config;
      config.max_rounds = max_rounds;
      config.bounded = setup.kind == ProtocolKind::kGradient;
      return [config](NodeId) {
        return std::make_unique<sync::GradientNode>(config);
      };
    }
  }
  CS_CHECK_MSG(false, "unknown protocol kind");
  return nullptr;
}

}  // namespace crusader::baselines
