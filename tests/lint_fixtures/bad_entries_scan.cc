// Lint fixture: the test copies this file to <tmp>/src/core/scan.cc, where
// the range-for over the per-sketch `sketches_` store must fire
// `entries-scan-in-query`; the same file outside src/core/ must be clean.
// The suppressed loop below must stay silent in both locations.
#include <deque>
#include <string>

struct Sketch {
  std::string id;
};

class Index {
 public:
  int CountByIteration() const {
    int count = 0;
    for (const Sketch& s : sketches_) {
      count += static_cast<int>(s.id.size());
    }
    return count;
  }

  int CountSuppressed() const {
    int count = 0;
    // dpjl-lint: allow(entries-scan-in-query)
    for (const Sketch& s : sketches_) {
      count += static_cast<int>(s.id.size());
    }
    return count;
  }

 private:
  std::deque<Sketch> sketches_;
};
