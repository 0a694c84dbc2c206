#ifndef DPJL_DP_PRIVACY_PARAMS_H_
#define DPJL_DP_PRIVACY_PARAMS_H_

#include <string>

#include "src/common/result.h"

namespace dpjl {

/// Differential-privacy budget (Definition 2 of the paper).
///
/// `delta == 0` denotes pure epsilon-DP. Neighboring inputs are vectors at
/// l1 distance at most 1 (Definition 1) throughout the library.
struct PrivacyParams {
  double epsilon = 0.0;
  double delta = 0.0;

  /// Validated constructor: requires finite epsilon > 0 and delta in [0, 1).
  static Result<PrivacyParams> Create(double epsilon, double delta);

  /// Pure epsilon-DP budget.
  static Result<PrivacyParams> Pure(double epsilon) { return Create(epsilon, 0.0); }

  bool pure() const { return delta == 0.0; }

  /// "(eps=0.5, delta=1e-6)" or "(eps=0.5, pure)".
  std::string ToString() const;
};

}  // namespace dpjl

#endif  // DPJL_DP_PRIVACY_PARAMS_H_
