#include "src/linalg/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

#include "src/linalg/kernels_x86.h"

namespace dpjl {

namespace internal {

// The scalar table is the executable specification: every vector table must
// reproduce these loops bit-for-bit (see kernels.h). Compiled with
// -ffp-contract=off so a multiply-add here is always two roundings.

void FwhtScalar(double* v, int64_t n) {
  for (int64_t len = 1; len < n; len <<= 1) {
    for (int64_t block = 0; block < n; block += len << 1) {
      for (int64_t i = block; i < block + len; ++i) {
        const double a = v[i];
        const double b = v[i + len];
        v[i] = a + b;
        v[i + len] = a - b;
      }
    }
  }
}

void FwhtBlockScalar(double* v, int64_t n, int64_t width) {
  for (int64_t len = 1; len < n; len <<= 1) {
    for (int64_t block = 0; block < n; block += len << 1) {
      for (int64_t i = block; i < block + len; ++i) {
        double* pa = v + i * width;
        double* pb = v + (i + len) * width;
        for (int64_t t = 0; t < width; ++t) {
          const double a = pa[t];
          const double b = pb[t];
          pa[t] = a + b;
          pb[t] = a - b;
        }
      }
    }
  }
}

void GemvScalar(const double* m, int64_t rows, int64_t cols, const double* x,
                double* y) {
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = m + r * cols;
    double acc = 0.0;
    for (int64_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

void GemvBlockScalar(const double* m, int64_t rows, int64_t cols,
                     const double* x, int64_t width, double* y) {
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = m + r * cols;
    double* out = y + r * width;
    for (int64_t t = 0; t < width; ++t) out[t] = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double a = row[c];
      const double* xc = x + c * width;
      for (int64_t t = 0; t < width; ++t) out[t] += a * xc[t];
    }
  }
}

void CsrApplyScalar(const int64_t* row_ptr, const int32_t* col_idx,
                    const double* values, int64_t rows, const double* w,
                    double scale, double* y) {
  for (int64_t i = 0; i < rows; ++i) {
    double acc = 0.0;
    for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
      acc += values[n] * w[col_idx[n]];
    }
    y[i] = acc * scale;
  }
}

void CsrApplyBlockScalar(const int64_t* row_ptr, const int32_t* col_idx,
                         const double* values, int64_t rows, const double* w,
                         int64_t width, double scale, double* y) {
  for (int64_t i = 0; i < rows; ++i) {
    double* out = y + i * width;
    for (int64_t t = 0; t < width; ++t) out[t] = 0.0;
    for (int64_t n = row_ptr[i]; n < row_ptr[i + 1]; ++n) {
      const double a = values[n];
      const double* wc = w + static_cast<int64_t>(col_idx[n]) * width;
      for (int64_t t = 0; t < width; ++t) out[t] += a * wc[t];
    }
    for (int64_t t = 0; t < width; ++t) out[t] *= scale;
  }
}

void SjltColumnBlockScalar(const double* x, int64_t width, double scale,
                           const int64_t* rows, const double* signs, int64_t s,
                           double* y) {
  for (int64_t t = 0; t < width; ++t) {
    if (x[t] == 0.0) continue;
    const double w = x[t] * scale;
    for (int64_t r = 0; r < s; ++r) {
      y[rows[r] * width + t] += w * signs[r];
    }
  }
}

void ScaleScalar(double* v, int64_t n, double a) {
  for (int64_t i = 0; i < n; ++i) v[i] *= a;
}

void SquaredDistanceTileScalar(const double* const* q, int64_t nq,
                               const double* c, int64_t k, int64_t width,
                               double* out) {
  // Probe-major: each (p, t) cell runs the per-pair estimator's loop. The
  // vector tables walk j outermost and share each block row across the
  // probes instead, which changes no cell's operation sequence.
  for (int64_t p = 0; p < nq; ++p) {
    const double* qp = q[p];
    double* op = out + p * width;
    for (int64_t t = 0; t < width; ++t) op[t] = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      const double qj = qp[j];
      const double* cj = c + j * width;
      for (int64_t t = 0; t < width; ++t) {
        const double diff = qj - cj[t];
        op[t] += diff * diff;
      }
    }
  }
}

void SquaredDistanceBlockScalar(const double* q, const double* c, int64_t k,
                                int64_t width, double* out) {
  SquaredDistanceTileScalar(&q, 1, c, k, width, out);
}

const KernelOps kScalarKernels = {
    "scalar",
    FwhtScalar,
    FwhtBlockScalar,
    GemvScalar,
    GemvBlockScalar,
    CsrApplyScalar,
    CsrApplyBlockScalar,
    SjltColumnBlockScalar,
    ScaleScalar,
    SquaredDistanceTileScalar,
    SquaredDistanceBlockScalar,
};

}  // namespace internal

namespace {

const KernelOps* Detect() {
  if (const char* pick = std::getenv("DPJL_KERNELS")) {
    if (const KernelOps* table = KernelsByName(pick)) return table;
    // Unknown or unsupported name: fall through to auto-detection rather
    // than crash a process over an env typo; dpjl_tool kernels shows what
    // was actually selected.
  }
  for (const char* widest_first : {"avx512", "avx2"}) {
    if (const KernelOps* table = KernelsByName(widest_first)) return table;
  }
  return &internal::kScalarKernels;
}

std::atomic<const KernelOps*> g_test_override{nullptr};

}  // namespace

const KernelOps& ScalarKernels() { return internal::kScalarKernels; }

const KernelOps* KernelsByName(const char* name) {
  if (name == nullptr) return nullptr;
  if (std::strcmp(name, "scalar") == 0) return &internal::kScalarKernels;
  // The vector tables exist only in x86-64 builds, where the compiler
  // provides the CPUID builtin.
#ifdef DPJL_HAVE_AVX2_KERNELS
  if (std::strcmp(name, "avx2") == 0 && __builtin_cpu_supports("avx2")) {
    return &internal::Avx2Kernels();
  }
#endif
#ifdef DPJL_HAVE_AVX512_KERNELS
  if (std::strcmp(name, "avx512") == 0 &&
      __builtin_cpu_supports("avx512f")) {
    return &internal::Avx512Kernels();
  }
#endif
  return nullptr;
}

const KernelOps& Kernels() {
  if (const KernelOps* forced = g_test_override.load(std::memory_order_acquire)) {
    return *forced;
  }
  static const KernelOps* const selected = Detect();
  return *selected;
}

void SetKernelsForTest(const KernelOps* kernels) {
  g_test_override.store(kernels, std::memory_order_release);
}

}  // namespace dpjl
