#include "src/dp/privacy_params.h"

#include <cmath>
#include <cstdio>

namespace dpjl {

Result<PrivacyParams> PrivacyParams::Create(double epsilon, double delta) {
  // An infinite epsilon would make every noise scale Delta/epsilon zero.
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  if (!(delta >= 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("delta must lie in [0, 1)");
  }
  return PrivacyParams{epsilon, delta};
}

std::string PrivacyParams::ToString() const {
  char buf[80];
  if (pure()) {
    std::snprintf(buf, sizeof(buf), "(eps=%g, pure)", epsilon);
  } else {
    std::snprintf(buf, sizeof(buf), "(eps=%g, delta=%g)", epsilon, delta);
  }
  return buf;
}

}  // namespace dpjl
