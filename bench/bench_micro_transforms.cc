// M1 — micro-benchmarks for transform application (Theorem 3(5), Lemma 5).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/jl/make_transform.h"
#include "src/jl/transform.h"
#include "src/linalg/dense_matrix.h"
#include "src/linalg/hadamard.h"
#include "src/linalg/kernels.h"
#include "src/workload/generators.h"

namespace dpjl {
namespace {

constexpr int64_t kK = 256;
constexpr int64_t kS = 16;

std::unique_ptr<LinearTransform> Make(TransformKind kind, int64_t d) {
  return MakeTransformExplicit(kind, d, kK, kS, 0.05, bench::kBenchSeed).value();
}

void BM_ApplyDense(benchmark::State& state, TransformKind kind) {
  const int64_t d = state.range(0);
  auto t = Make(kind, d);
  Rng rng(bench::kBenchSeed);
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t->Apply(x));
  }
  state.SetItemsProcessed(state.iterations() * d);
}

void BM_ApplySparse(benchmark::State& state, TransformKind kind) {
  const int64_t d = 1 << 14;
  const int64_t nnz = state.range(0);
  auto t = Make(kind, d);
  Rng rng(bench::kBenchSeed);
  const SparseVector x = RandomSparseVector(d, nnz, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t->ApplySparse(x));
  }
  state.SetItemsProcessed(state.iterations() * nnz);
}

void BM_AccumulateColumn(benchmark::State& state, TransformKind kind) {
  const int64_t d = 1 << 14;
  auto t = Make(kind, d);
  std::vector<double> y(static_cast<size_t>(t->output_dim()), 0.0);
  int64_t j = 0;
  for (auto _ : state) {
    t->AccumulateColumn(j, 1.0, &y);
    j = (j + 1) % d;
  }
  benchmark::DoNotOptimize(y.data());
}

BENCHMARK_CAPTURE(BM_ApplyDense, sjlt_block, TransformKind::kSjltBlock)
    ->Arg(1 << 10)
    ->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_ApplyDense, fjlt, TransformKind::kFjlt)
    ->Arg(1 << 10)
    ->Arg(1 << 14);
BENCHMARK_CAPTURE(BM_ApplyDense, gaussian_iid, TransformKind::kGaussianIid)
    ->Arg(1 << 10)
    ->Arg(1 << 13);
BENCHMARK_CAPTURE(BM_ApplySparse, sjlt_block, TransformKind::kSjltBlock)
    ->Arg(16)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_ApplySparse, sjlt_graph, TransformKind::kSjltGraph)
    ->Arg(16)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_AccumulateColumn, sjlt_block, TransformKind::kSjltBlock);
BENCHMARK_CAPTURE(BM_AccumulateColumn, sjlt_graph, TransformKind::kSjltGraph);

// --- Kernel-level benchmarks (the dispatch table Kernels() resolved at
// startup; run with DPJL_KERNELS=scalar for the scalar baseline). The
// counters label reports which table the process is using.

void BM_Fwht(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(bench::kBenchSeed);
  std::vector<double> x = DenseGaussianVector(n, 1.0, &rng);
  for (auto _ : state) {
    NormalizedFwhtInPlace(&x);
  }
  benchmark::DoNotOptimize(x.data());
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(Kernels().name);
}

void BM_DenseApply(benchmark::State& state) {
  const int64_t d = state.range(0);
  DenseMatrix m(kK, d);
  Rng rng(bench::kBenchSeed);
  for (double& v : m.data()) v = rng.Gaussian();
  const std::vector<double> x = DenseGaussianVector(d, 1.0, &rng);
  std::vector<double> y(kK);
  for (auto _ : state) {
    m.ApplyInto(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * d);
  state.SetLabel(Kernels().name);
}

void BM_FwhtBlock(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t width = kSketchBlockWidth;
  Rng rng(bench::kBenchSeed);
  std::vector<double> block = DenseGaussianVector(n * width, 1.0, &rng);
  for (auto _ : state) {
    Kernels().fwht_block(block.data(), n, width);
  }
  benchmark::DoNotOptimize(block.data());
  state.SetItemsProcessed(state.iterations() * n * width);
  state.SetLabel(Kernels().name);
}

void BM_DenseApplyBlock(benchmark::State& state) {
  const int64_t d = state.range(0);
  const int64_t width = kSketchBlockWidth;
  DenseMatrix m(kK, d);
  Rng rng(bench::kBenchSeed);
  for (double& v : m.data()) v = rng.Gaussian();
  const std::vector<double> x = DenseGaussianVector(d * width, 1.0, &rng);
  std::vector<double> y(kK * width);
  for (auto _ : state) {
    m.ApplyBlockInto(x.data(), width, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * d * width);
  state.SetLabel(Kernels().name);
}

BENCHMARK(BM_Fwht)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_FwhtBlock)->Arg(1 << 10)->Arg(1 << 14);
BENCHMARK(BM_DenseApply)->Arg(1 << 10)->Arg(1 << 13);
BENCHMARK(BM_DenseApplyBlock)->Arg(1 << 10)->Arg(1 << 13);

}  // namespace
}  // namespace dpjl

BENCHMARK_MAIN();
