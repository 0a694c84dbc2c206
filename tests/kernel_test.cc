// Bit-exactness suite for the SIMD kernel layer (src/linalg/kernels.h).
//
// The contract under test is byte-identity, not closeness: every vector
// table must reproduce the scalar reference's output bit-for-bit on every
// size — including non-blocked tails, signed zeros and denormals — and the
// matrix-form batch path must reproduce the serial scalar Sketch() loop
// exactly at every thread count. EXPECT_DOUBLE_EQ would hide exactly the
// bugs this layer can have (FMA contraction, reassociation, flipped -0.0),
// so all comparisons go through memcmp.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/batch_sketcher.h"
#include "src/core/sketcher.h"
#include "src/jl/transform.h"
#include "src/linalg/dense_matrix.h"
#include "src/linalg/hadamard.h"
#include "src/linalg/kernels.h"
#include "src/random/rng.h"
#include "tests/test_util.h"

namespace dpjl {
namespace {

using testing::kTestSeed;
using testing::MakeSketcherOrDie;

const int kThreadCounts[] = {1, 2, 7};

/// RAII: pin the dispatched kernel table for a scope, restore on exit.
class KernelOverride {
 public:
  explicit KernelOverride(const KernelOps* ops) { SetKernelsForTest(ops); }
  ~KernelOverride() { SetKernelsForTest(nullptr); }
};

/// The non-scalar tables this build + CPU can run.
std::vector<const KernelOps*> VectorTables() {
  std::vector<const KernelOps*> tables;
  for (const char* name : {"avx2", "avx512"}) {
    if (const KernelOps* t = KernelsByName(name)) tables.push_back(t);
  }
  return tables;
}

bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Deterministic data with awkward values mixed in: exact zeros, negative
/// zeros, denormals, and magnitudes spanning many exponents.
std::vector<double> TestVector(int64_t n, uint64_t salt) {
  Rng rng(DeriveSeed(kTestSeed, salt));
  std::vector<double> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(8)) {
      case 0:
        v[i] = 0.0;
        break;
      case 1:
        v[i] = -0.0;
        break;
      case 2:
        v[i] = std::numeric_limits<double>::denorm_min() *
               static_cast<double>(1 + rng.UniformInt(100));
        break;
      default:
        v[i] = rng.Gaussian() * std::pow(2.0, static_cast<double>(
                                                  rng.UniformInt(40)) -
                                                  20.0);
        break;
    }
  }
  return v;
}

/// Scalar arguments a vector table must broadcast exactly: plain factors,
/// -0.0 (an add-based broadcast turns it into +0.0), a denormal and a
/// negative non-power-of-two.
const double kEdgeScalars[] = {0.125, 0.3187, -0.0,
                               std::numeric_limits<double>::denorm_min() * 3,
                               -3.5};

// ---------------------------------------------------------------------------
// Raw kernel-vs-scalar identity, per table, across blocked and tail sizes.

TEST(KernelDispatchTest, TablesAreWellFormed) {
  const KernelOps& scalar = ScalarKernels();
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_EQ(KernelsByName("scalar"), &scalar);
  EXPECT_EQ(KernelsByName("no-such-table"), nullptr);
  EXPECT_EQ(KernelsByName(nullptr), nullptr);
  // Every table this build and CPU can run must be complete: a slot missing
  // from an aggregate initializer is a null that crashes only when called.
  bool dispatched_listed = false;
  for (const char* key : {"scalar", "avx2", "avx512"}) {
    const KernelOps* table = KernelsByName(key);
    if (table == nullptr) continue;
    dispatched_listed |= table == &Kernels();
    EXPECT_STREQ(table->name, key);
    EXPECT_NE(table->fwht, nullptr) << key;
    EXPECT_NE(table->fwht_block, nullptr) << key;
    EXPECT_NE(table->gemv, nullptr) << key;
    EXPECT_NE(table->gemv_block, nullptr) << key;
    EXPECT_NE(table->csr_apply, nullptr) << key;
    EXPECT_NE(table->csr_apply_block, nullptr) << key;
    EXPECT_NE(table->sjlt_column_block, nullptr) << key;
    EXPECT_NE(table->scale, nullptr) << key;
    EXPECT_NE(table->squared_distance_tile, nullptr) << key;
    EXPECT_NE(table->squared_distance_block, nullptr) << key;
  }
  // The dispatched table is one of them.
  EXPECT_TRUE(dispatched_listed) << Kernels().name;
}

TEST(KernelDispatchTest, EnvironmentPinsTheDispatchedTable) {
  // The *_forced_scalar and *_avx2 ctest entries re-run this binary with
  // DPJL_FORCE_SCALAR=1 or DPJL_KERNELS=avx2; dispatch must honour them.
  const char* force = std::getenv("DPJL_FORCE_SCALAR");
  const char* pick = std::getenv("DPJL_KERNELS");
  if (force != nullptr && force[0] != '\0' && std::string(force) != "0") {
    EXPECT_STREQ(Kernels().name, "scalar");
  } else if (pick != nullptr && KernelsByName(pick) != nullptr) {
    EXPECT_STREQ(Kernels().name, pick);
  } else {
    EXPECT_NE(Kernels().name, nullptr);  // auto-detected; nothing pinned
  }
}

TEST(KernelDispatchTest, TestOverridePinsAndRestores) {
  const KernelOps& dispatched = Kernels();
  {
    KernelOverride pin(&ScalarKernels());
    EXPECT_STREQ(Kernels().name, "scalar");
  }
  EXPECT_EQ(&Kernels(), &dispatched);
}

TEST(KernelBitExactnessTest, Fwht) {
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t n : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{8},
                      int64_t{16}, int64_t{32}, int64_t{64}, int64_t{512},
                      int64_t{2048}}) {
      std::vector<double> expect = TestVector(n, 11 + static_cast<uint64_t>(n));
      std::vector<double> got = expect;
      scalar.fwht(expect.data(), n);
      table->fwht(got.data(), n);
      EXPECT_TRUE(BytesEqual(expect, got))
          << table->name << " fwht n=" << n;
    }
  }
}

TEST(KernelBitExactnessTest, FwhtBlock) {
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t n : {int64_t{1}, int64_t{2}, int64_t{4}, int64_t{16},
                      int64_t{32}, int64_t{128}}) {
      for (int64_t width : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{4},
                            int64_t{5}, int64_t{7}, int64_t{8}, int64_t{9},
                            int64_t{16}}) {
        std::vector<double> expect =
            TestVector(n * width, 23 + static_cast<uint64_t>(n * width));
        std::vector<double> got = expect;
        scalar.fwht_block(expect.data(), n, width);
        table->fwht_block(got.data(), n, width);
        EXPECT_TRUE(BytesEqual(expect, got))
            << table->name << " fwht_block n=" << n << " width=" << width;
      }
    }
  }
}

TEST(KernelBitExactnessTest, FwhtBlockLanesMatchSingleVectorFwht) {
  // The per-lane math of fwht_block IS fwht: deinterleaving must give the
  // single-vector transform exactly (this is what lets the batch FJLT share
  // one pass across items).
  const KernelOps& active = Kernels();
  const int64_t n = 64;
  const int64_t width = 8;
  std::vector<double> block = TestVector(n * width, 31);
  std::vector<std::vector<double>> lanes(static_cast<size_t>(width));
  for (int64_t t = 0; t < width; ++t) {
    lanes[t].resize(static_cast<size_t>(n));
    for (int64_t j = 0; j < n; ++j) lanes[t][j] = block[j * width + t];
  }
  active.fwht_block(block.data(), n, width);
  for (int64_t t = 0; t < width; ++t) {
    active.fwht(lanes[t].data(), n);
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(std::memcmp(&lanes[t][j], &block[j * width + t],
                            sizeof(double)),
                0)
          << "lane " << t << " element " << j;
    }
  }
}

TEST(KernelBitExactnessTest, Gemv) {
  const KernelOps& scalar = ScalarKernels();
  const std::pair<int64_t, int64_t> kShapes[] = {
      {1, 1}, {3, 5}, {4, 4}, {7, 9}, {16, 16}, {33, 17}, {64, 41}};
  for (const KernelOps* table : VectorTables()) {
    for (auto [rows, cols] : kShapes) {
      const std::vector<double> m =
          TestVector(rows * cols, 41 + static_cast<uint64_t>(rows * cols));
      const std::vector<double> x = TestVector(cols, 43 + static_cast<uint64_t>(cols));
      std::vector<double> expect(static_cast<size_t>(rows));
      std::vector<double> got(static_cast<size_t>(rows));
      scalar.gemv(m.data(), rows, cols, x.data(), expect.data());
      table->gemv(m.data(), rows, cols, x.data(), got.data());
      EXPECT_TRUE(BytesEqual(expect, got))
          << table->name << " gemv " << rows << "x" << cols;
    }
  }
}

TEST(KernelBitExactnessTest, GemvBlock) {
  const KernelOps& scalar = ScalarKernels();
  const std::pair<int64_t, int64_t> kShapes[] = {
      {1, 1}, {4, 4}, {7, 9}, {16, 13}};
  for (const KernelOps* table : VectorTables()) {
    for (auto [rows, cols] : kShapes) {
      for (int64_t width : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{5},
                            int64_t{8}, int64_t{11}}) {
        const std::vector<double> m =
            TestVector(rows * cols, 47 + static_cast<uint64_t>(rows + width));
        const std::vector<double> x =
            TestVector(cols * width, 53 + static_cast<uint64_t>(cols * width));
        std::vector<double> expect(static_cast<size_t>(rows * width));
        std::vector<double> got(static_cast<size_t>(rows * width));
        scalar.gemv_block(m.data(), rows, cols, x.data(), width, expect.data());
        table->gemv_block(m.data(), rows, cols, x.data(), width, got.data());
        EXPECT_TRUE(BytesEqual(expect, got))
            << table->name << " gemv_block " << rows << "x" << cols
            << " width=" << width;
      }
    }
  }
}

/// A deterministic CSR matrix with uneven rows (including empty ones).
struct TestCsr {
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;
  std::vector<double> values;
};

TestCsr MakeCsr(int64_t rows, int64_t cols, uint64_t salt) {
  Rng rng(DeriveSeed(kTestSeed, salt));
  TestCsr csr;
  csr.row_ptr.push_back(0);
  for (int64_t i = 0; i < rows; ++i) {
    // ~30% density per row; some rows come out empty, which the kernels
    // must handle (a zero-output row, not a skipped one).
    for (int64_t col = 0; col < cols; ++col) {
      if (!rng.Bernoulli(0.3)) continue;
      csr.col_idx.push_back(static_cast<int32_t>(col));
      csr.values.push_back(rng.Gaussian());
    }
    csr.row_ptr.push_back(static_cast<int64_t>(csr.values.size()));
  }
  return csr;
}

TEST(KernelBitExactnessTest, CsrApplyAndBlock) {
  const KernelOps& scalar = ScalarKernels();
  const int64_t rows = 23;
  const int64_t cols = 37;
  const TestCsr csr = MakeCsr(rows, cols, 59);
  for (const KernelOps* table : VectorTables()) {
    for (const double scale : kEdgeScalars) {
      const std::vector<double> w1 = TestVector(cols, 61);
      std::vector<double> expect(static_cast<size_t>(rows));
      std::vector<double> got(static_cast<size_t>(rows));
      scalar.csr_apply(csr.row_ptr.data(), csr.col_idx.data(),
                       csr.values.data(), rows, w1.data(), scale,
                       expect.data());
      table->csr_apply(csr.row_ptr.data(), csr.col_idx.data(),
                       csr.values.data(), rows, w1.data(), scale, got.data());
      EXPECT_TRUE(BytesEqual(expect, got))
          << table->name << " csr_apply scale=" << scale;
      for (int64_t width : {int64_t{1}, int64_t{3}, int64_t{5}, int64_t{8},
                            int64_t{13}}) {
        const std::vector<double> w =
            TestVector(cols * width, 67 + static_cast<uint64_t>(width));
        expect.assign(static_cast<size_t>(rows * width), 0.0);
        got.assign(expect.size(), 0.0);
        scalar.csr_apply_block(csr.row_ptr.data(), csr.col_idx.data(),
                               csr.values.data(), rows, w.data(), width, scale,
                               expect.data());
        table->csr_apply_block(csr.row_ptr.data(), csr.col_idx.data(),
                               csr.values.data(), rows, w.data(), width, scale,
                               got.data());
        EXPECT_TRUE(BytesEqual(expect, got))
            << table->name << " csr_apply_block width=" << width
            << " scale=" << scale;
      }
    }
  }
}

TEST(KernelBitExactnessTest, SjltColumnBlockPreservesZeroLanesBitwise) {
  const KernelOps& scalar = ScalarKernels();
  const int64_t s = 5;
  const int64_t out_rows = 16;
  const int64_t rows[s] = {0, 3, 3, 7, 15};
  const double signs[s] = {1.0, -1.0, 1.0, -1.0, -1.0};
  for (const KernelOps* table : VectorTables()) {
    for (int64_t width : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{5},
                          int64_t{8}, int64_t{9}}) {
      // Lanes mix nonzeros with +0.0 and -0.0; the accumulator is seeded
      // with negative zeros so an unmasked `y += 0.0` would flip bits. NaN
      // (which `x != 0.0` counts as live) and +/-inf lanes ride along.
      std::vector<double> x = TestVector(width, 71 + static_cast<uint64_t>(width));
      if (width > 1) x[1] = 0.0;
      x[0] = -0.0;
      if (width > 2) x[2] = std::numeric_limits<double>::quiet_NaN();
      if (width > 3) x[3] = std::numeric_limits<double>::infinity();
      if (width > 4) x[4] = -std::numeric_limits<double>::infinity();
      std::vector<double> expect(static_cast<size_t>(out_rows * width), -0.0);
      std::vector<double> got = expect;
      scalar.sjlt_column_block(x.data(), width, 0.7071, rows, signs, s,
                               expect.data());
      table->sjlt_column_block(x.data(), width, 0.7071, rows, signs, s,
                               got.data());
      EXPECT_TRUE(BytesEqual(expect, got))
          << table->name << " sjlt_column_block width=" << width;
    }
  }
}

TEST(KernelBitExactnessTest, Scale) {
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t n : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{100}}) {
      for (const double a : kEdgeScalars) {
        std::vector<double> expect =
            TestVector(n, 73 + static_cast<uint64_t>(n));
        std::vector<double> got = expect;
        scalar.scale(expect.data(), n, a);
        table->scale(got.data(), n, a);
        EXPECT_TRUE(BytesEqual(expect, got))
            << table->name << " scale n=" << n << " a=" << a;
      }
    }
  }
}

TEST(KernelBitExactnessTest, SquaredDistanceBlock) {
  const KernelOps& scalar = ScalarKernels();
  for (const KernelOps* table : VectorTables()) {
    for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{13},
                      int64_t{96}}) {
      for (int64_t width = 1; width <= 8; ++width) {
        const std::vector<double> q =
            TestVector(k, 401 + static_cast<uint64_t>(k * 8 + width));
        const std::vector<double> block = TestVector(
            k * width, 457 + static_cast<uint64_t>(k * 8 + width));
        std::vector<double> expect(static_cast<size_t>(width), -1.0);
        std::vector<double> got(static_cast<size_t>(width), -1.0);
        scalar.squared_distance_block(q.data(), block.data(), k, width,
                                      expect.data());
        table->squared_distance_block(q.data(), block.data(), k, width,
                                      got.data());
        EXPECT_TRUE(BytesEqual(expect, got))
            << table->name << " squared_distance_block k=" << k
            << " width=" << width;
      }
    }
  }
}

TEST(KernelBitExactnessTest, SquaredDistanceTile) {
  // The reference is the per-pair estimator loop written out here, one
  // (probe, lane) cell at a time, so the scalar table is checked as well
  // as the vector tables. Outputs carry a sentinel tail: a kernel must not
  // write past nq * width.
  std::vector<const KernelOps*> tables = {&ScalarKernels()};
  for (const KernelOps* table : VectorTables()) tables.push_back(table);
  constexpr int64_t kSentinel = 8;
  for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{3}, int64_t{13},
                    int64_t{96}, int64_t{1480}}) {
    for (int64_t width = 1; width <= 8; ++width) {
      const std::vector<double> block = TestVector(
          k * width, 1201 + static_cast<uint64_t>(k * 8 + width));
      std::vector<std::vector<double>> probes;
      for (int64_t p = 0; p < kScanTileProbes; ++p) {
        probes.push_back(TestVector(
            k, 1301 + static_cast<uint64_t>((k * 8 + width) * 8 + p)));
      }
      // Distinct probes for every tile size, then tiles whose probe
      // pointers alias one another (duplicate probes in one batch).
      std::vector<std::vector<const double*>> tiles;
      for (int64_t nq = 1; nq <= kScanTileProbes; ++nq) {
        std::vector<const double*> tile;
        for (int64_t p = 0; p < nq; ++p) tile.push_back(probes[p].data());
        tiles.push_back(tile);
      }
      tiles.push_back({probes[2].data(), probes[2].data(), probes[5].data(),
                       probes[2].data()});
      tiles.push_back(std::vector<const double*>(
          static_cast<size_t>(kScanTileProbes), probes[7].data()));
      for (const std::vector<const double*>& tile : tiles) {
        const int64_t nq = static_cast<int64_t>(tile.size());
        std::vector<double> expect(static_cast<size_t>(nq * width + kSentinel),
                                   -1.0);
        for (int64_t p = 0; p < nq; ++p) {
          for (int64_t t = 0; t < width; ++t) {
            double acc = 0.0;
            for (int64_t j = 0; j < k; ++j) {
              const double diff = tile[p][j] - block[j * width + t];
              acc += diff * diff;
            }
            expect[p * width + t] = acc;
          }
        }
        for (const KernelOps* table : tables) {
          std::vector<double> got(expect.size(), -1.0);
          table->squared_distance_tile(tile.data(), nq, block.data(), k, width,
                                       got.data());
          EXPECT_TRUE(BytesEqual(expect, got))
              << table->name << " squared_distance_tile k=" << k
              << " width=" << width << " nq=" << nq;
          // The one-probe kernel is tile row 0, byte for byte.
          std::vector<double> row0(static_cast<size_t>(width), -1.0);
          table->squared_distance_block(tile[0], block.data(), k, width,
                                        row0.data());
          EXPECT_EQ(std::memcmp(row0.data(), got.data(),
                                row0.size() * sizeof(double)),
                    0)
              << table->name << " squared_distance_block vs tile row 0 k=" << k
              << " width=" << width << " nq=" << nq;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NextPowerOfTwo overflow guard (satellite bugfix).

TEST(NextPowerOfTwoTest, BoundaryAndOverflowGuard) {
  EXPECT_EQ(NextPowerOfTwo(1), 1);
  EXPECT_EQ(NextPowerOfTwo((int64_t{1} << 62) - 1), int64_t{1} << 62);
  EXPECT_EQ(NextPowerOfTwo(int64_t{1} << 62), int64_t{1} << 62);
  EXPECT_DEATH((void)NextPowerOfTwo((int64_t{1} << 62) + 1), "overflows");
  EXPECT_DEATH((void)NextPowerOfTwo(std::numeric_limits<int64_t>::max()),
               "overflows");
}

// ---------------------------------------------------------------------------
// Transform-level property suite: ApplyBlock vs per-item Apply, and the full
// vectorized BatchSketch vs the forced-scalar serial Sketch loop, across
// dims {small, non-blocked tail, large} x threads {1, 2, 7}.

SketcherConfig Base() {
  SketcherConfig c;
  c.k_override = 64;
  c.s_override = 8;
  c.epsilon = 2.0;
  c.projection_seed = kTestSeed;
  return c;
}

struct BatchCase {
  const char* label;
  TransformKind transform;
  NoisePlacement placement;
  double delta;
};

const BatchCase kBatchCases[] = {
    {"sjlt_block", TransformKind::kSjltBlock, NoisePlacement::kOutput, 0.0},
    {"sjlt_graph", TransformKind::kSjltGraph, NoisePlacement::kOutput, 0.0},
    {"fjlt_output", TransformKind::kFjlt, NoisePlacement::kOutput, 0.0},
    {"fjlt_input", TransformKind::kFjlt, NoisePlacement::kInput, 0.0},
    {"fjlt_post_hadamard", TransformKind::kFjlt, NoisePlacement::kPostHadamard,
     1e-6},
    {"gaussian", TransformKind::kGaussianIid, NoisePlacement::kOutput, 0.0},
    {"achlioptas", TransformKind::kAchlioptas, NoisePlacement::kOutput, 0.0},
    {"sparse_uniform", TransformKind::kSparseUniform, NoisePlacement::kOutput,
     0.0},
};

/// Batch sizes: sub-micro-block, exact micro-blocks, and ragged tails.
const int64_t kBatchSizes[] = {1, 5, 8, 19};

/// Input dims: small, a non-power-of-two FJLT-padding tail, and large.
const int64_t kDims[] = {3, 13, 96};

std::vector<std::vector<double>> MakeBatch(int64_t n, int64_t d,
                                           uint64_t salt) {
  std::vector<std::vector<double>> xs(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    xs[i] = TestVector(d, salt + static_cast<uint64_t>(i));
  }
  // Whole-vector zeros exercise the SJLT all-zero-column skip.
  if (n > 2) std::fill(xs[2].begin(), xs[2].end(), 0.0);
  return xs;
}

TEST(BatchBitExactnessTest, VectorizedBatchMatchesForcedScalarSerialLoop) {
  for (const BatchCase& c : kBatchCases) {
    SketcherConfig config = Base();
    config.transform = c.transform;
    config.placement = c.placement;
    config.delta = c.delta;
    for (int64_t d : kDims) {
      const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
      for (int64_t n : kBatchSizes) {
        const std::vector<std::vector<double>> xs =
            MakeBatch(n, d, 1000 + static_cast<uint64_t>(d));
        // Reference: the serial per-item loop on the scalar table — the
        // executable definition of the public BatchItemNoiseSeed contract.
        std::vector<std::vector<double>> expect;
        {
          KernelOverride pin(&ScalarKernels());
          for (int64_t i = 0; i < n; ++i) {
            expect.push_back(
                sketcher.Sketch(xs[i], BatchItemNoiseSeed(kTestSeed, i))
                    .values());
          }
        }
        // Vectorized batch path on every available table and thread count.
        std::vector<const KernelOps*> tables = VectorTables();
        tables.push_back(&ScalarKernels());
        for (const KernelOps* table : tables) {
          KernelOverride pin(table);
          for (int threads : kThreadCounts) {
            ThreadPool pool(threads);
            BatchSketcher batcher(&sketcher, threads > 1 ? &pool : nullptr);
            auto got = batcher.BatchSketch(xs, kTestSeed);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            ASSERT_EQ(got->size(), static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i) {
              EXPECT_TRUE(BytesEqual(expect[i], (*got)[i].values()))
                  << c.label << " d=" << d << " n=" << n << " item " << i
                  << " table=" << table->name << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(BatchBitExactnessTest, ApplyBlockMatchesApplyPerItem) {
  for (const BatchCase& c : kBatchCases) {
    if (c.placement != NoisePlacement::kOutput) continue;
    SketcherConfig config = Base();
    config.transform = c.transform;
    config.noise_selection = SketcherConfig::NoiseSelection::kNone;
    for (int64_t d : kDims) {
      const PrivateSketcher sketcher = MakeSketcherOrDie(d, config);
      const LinearTransform& transform = sketcher.transform();
      const std::vector<std::vector<double>> xs =
          MakeBatch(19, d, 2000 + static_cast<uint64_t>(d));
      std::vector<std::vector<double>> expect;
      for (const std::vector<double>& x : xs) expect.push_back(transform.Apply(x));
      std::vector<std::vector<double>> got(xs.size());
      std::vector<double> scratch;
      transform.ApplyBlock(xs.data(), static_cast<int64_t>(xs.size()),
                           got.data(), &scratch);
      for (size_t i = 0; i < xs.size(); ++i) {
        EXPECT_TRUE(BytesEqual(expect[i], got[i]))
            << c.label << " d=" << d << " item " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ResolveGrain (satellite bugfix: no more silent one-item tasks).

TEST(ResolveGrainTest, ExplicitRequestWins) {
  EXPECT_EQ(BatchSketcher::ResolveGrain(1000, 4, 17), 17);
  EXPECT_EQ(BatchSketcher::ResolveGrain(1000, 4, 1), 1);
}

TEST(ResolveGrainTest, AutoIsMicroBlockAlignedAndBounded) {
  // Large batch, 4 threads: ~16 chunks, each a multiple of the micro-block.
  const int64_t grain = BatchSketcher::ResolveGrain(1024, 4, 0);
  EXPECT_EQ(grain % kSketchBlockWidth, 0);
  EXPECT_GE(grain, kSketchBlockWidth);
  EXPECT_LE(grain, 1024);
  // Small batches never drop below one micro-block, and degenerate inputs
  // are safe.
  EXPECT_EQ(BatchSketcher::ResolveGrain(3, 8, 0), kSketchBlockWidth);
  EXPECT_EQ(BatchSketcher::ResolveGrain(0, 4, 0), kSketchBlockWidth);
  EXPECT_EQ(BatchSketcher::ResolveGrain(100, 0, 0),
            BatchSketcher::ResolveGrain(100, 1, 0));
}

TEST(ResolveGrainTest, ScalesInverselyWithThreads) {
  const int64_t g1 = BatchSketcher::ResolveGrain(4096, 1, 0);
  const int64_t g8 = BatchSketcher::ResolveGrain(4096, 8, 0);
  EXPECT_GT(g1, g8);
}

}  // namespace
}  // namespace dpjl
