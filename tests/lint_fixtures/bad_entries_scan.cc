// Lint fixture: the test copies this file to <tmp>/src/core/scan.cc, where
// the range-for over the per-ordinal `metadata_` store must fire
// `entries-scan-in-query`; the same file outside src/core/ must be clean.
// The suppressed loop below must stay silent in both locations.
#include <vector>

struct SketchMetadata {
  double noise_center = 0.0;
};

class Index {
 public:
  double SumByIteration() const {
    double sum = 0.0;
    for (const SketchMetadata& m : metadata_) {
      sum += m.noise_center;
    }
    return sum;
  }

  double SumSuppressed() const {
    double sum = 0.0;
    // dpjl-lint: allow(entries-scan-in-query)
    for (const SketchMetadata& m : metadata_) {
      sum += m.noise_center;
    }
    return sum;
  }

 private:
  std::vector<SketchMetadata> metadata_;
};
