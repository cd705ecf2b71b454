#ifndef RESACC_CORE_RWR_CONFIG_H_
#define RESACC_CORE_RWR_CONFIG_H_

#include <cmath>
#include <cstdint>

#include "resacc/util/status.h"
#include "resacc/util/types.h"

namespace resacc {

// What a random walk (or its push-operation counterpart) does at a node with
// no out-neighbours. The paper assumes none exist; real graphs have sinks.
// Both policies conserve total probability mass; see DESIGN.md.
enum class DanglingPolicy {
  // Walk jumps back to the query source and continues (the convention of
  // the released FORA code). Forward pushes route (1-alpha) of a dangling
  // node's residue back to the source.
  kBackToSource,
  // Walk terminates at the sink; pushes convert the whole residue of a
  // dangling node into its reserve. Required by the backward-push
  // algorithms (BiPPR, TopPPR), whose traversal cannot depend on the
  // query source.
  kAbsorb,
};

// Query-level parameters of the approximate SSRWR problem (Definition 1)
// shared by every algorithm in the library.
struct RwrConfig {
  // Restart (termination) probability of the walk. Paper default 0.2.
  double alpha = 0.2;
  // Relative error bound for nodes above `delta`. Paper default 0.5.
  double epsilon = 0.5;
  // RWR-value threshold above which the guarantee applies. Paper: 1/n.
  double delta = 1e-6;
  // Failure probability. Paper: 1/n.
  double p_f = 1e-6;

  DanglingPolicy dangling = DanglingPolicy::kBackToSource;

  // Master seed for the randomized phases; forked per query.
  std::uint64_t seed = 0x5eedULL;

  // Returns delta = p_f = 1/n defaults applied, the paper's standard setup.
  static RwrConfig ForGraphSize(NodeId num_nodes) {
    RwrConfig config;
    config.delta = 1.0 / static_cast<double>(num_nodes);
    config.p_f = 1.0 / static_cast<double>(num_nodes);
    return config;
  }

  Status Validate() const {
    if (!(alpha > 0.0 && alpha < 1.0)) {
      return Status::InvalidArgument("alpha must be in (0,1)");
    }
    if (!(epsilon > 0.0)) {
      return Status::InvalidArgument("epsilon must be positive");
    }
    if (!(delta > 0.0 && delta <= 1.0)) {
      return Status::InvalidArgument("delta must be in (0,1]");
    }
    if (!(p_f > 0.0 && p_f < 1.0)) {
      return Status::InvalidArgument("p_f must be in (0,1)");
    }
    return Status::Ok();
  }

  // c = (2 eps / 3 + 2) * ln(2 / p_f) / (eps^2 * delta): the walk-count
  // coefficient of Theorem 3. The remedy phase runs n_r = r_sum * c walks.
  double WalkCountCoefficient() const {
    return (2.0 * epsilon / 3.0 + 2.0) * std::log(2.0 / p_f) /
           (epsilon * epsilon * delta);
  }
};

// The Definition-1 accuracy tags every answer carries (ControlledQueryResult,
// TopKResult, DenseFinish).
struct Accuracy {
  bool degraded = false;
  Score uncorrected_mass = 0.0;
  double achieved_epsilon = 0.0;

  template <typename Result>
  void ApplyTo(Result& result) const {
    result.degraded = degraded;
    result.uncorrected_mass = uncorrected_mass;
    result.achieved_epsilon = achieved_epsilon;
  }
};

// The one accounting rule of every solver: an answer that left
// `uncorrected_mass` of probability mass unconverted (residue not walked,
// walk mass skipped, dense sweep cut short) adds at most that much absolute
// error to any score, i.e. at most uncorrected/delta relative error on the
// nodes above delta (Theorem 3's residual term). It is degraded iff that
// mass is positive; otherwise it meets the configured epsilon.
inline Accuracy AccuracyFor(const RwrConfig& config, Score uncorrected_mass) {
  Accuracy accuracy;
  accuracy.degraded = uncorrected_mass > 0.0;
  accuracy.uncorrected_mass = uncorrected_mass;
  accuracy.achieved_epsilon =
      accuracy.degraded ? config.epsilon + uncorrected_mass / config.delta
                        : config.epsilon;
  return accuracy;
}

}  // namespace resacc

#endif  // RESACC_CORE_RWR_CONFIG_H_
