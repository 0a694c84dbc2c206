#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/table_printer.h"
#include "src/common/top_k.h"
#include "src/random/rng.h"
#include "src/random/splitmix64.h"

namespace dpjl {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("epsilon must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "epsilon must be positive");
  EXPECT_EQ(s.ToString(), "invalid_argument: epsilon must be positive");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "ok");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "out_of_range");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "failed_precondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "not_found");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "unimplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDataLoss), "data_loss");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "resource_exhausted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCancelled), "cancelled");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "unavailable");
}

TEST(StatusTest, UnavailableFactory) {
  const Status down = Status::Unavailable("replica 127.0.0.1:9001 is down");
  EXPECT_FALSE(down.ok());
  EXPECT_EQ(down.code(), StatusCode::kUnavailable);
  EXPECT_EQ(down.ToString(), "unavailable: replica 127.0.0.1:9001 is down");
}

TEST(StatusTest, ParseStatusCodeInvertsToStringOverTheFullEnum) {
  for (int value = 0; value <= static_cast<int>(StatusCode::kUnavailable);
       ++value) {
    const StatusCode code = static_cast<StatusCode>(value);
    const auto parsed = ParseStatusCode(StatusCodeToString(code));
    ASSERT_TRUE(parsed.ok()) << StatusCodeToString(code);
    EXPECT_EQ(*parsed, code);
  }
  for (const std::string bad : {"", "OK", "Unavailable", "unknown", "ok "}) {
    const auto rejected = ParseStatusCode(bad);
    ASSERT_FALSE(rejected.ok()) << "'" << bad << "' parsed";
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(StatusTest, StatusCodeFromIntAcceptsOnlyTheKnownRange) {
  // The wire protocol transports codes as integers; the frozen enum values
  // are load-bearing on-wire identifiers.
  EXPECT_EQ(*StatusCodeFromInt(0), StatusCode::kOk);
  EXPECT_EQ(*StatusCodeFromInt(7), StatusCode::kDataLoss);
  EXPECT_EQ(*StatusCodeFromInt(10), StatusCode::kCancelled);
  EXPECT_EQ(*StatusCodeFromInt(11), StatusCode::kUnavailable);
  for (const int bad : {-1, 12, 99}) {
    const auto rejected = StatusCodeFromInt(bad);
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
  }
}

TEST(StatusTest, ServingCodeFactories) {
  const Status expired = Status::DeadlineExceeded("request expired in queue");
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.ToString(), "deadline_exceeded: request expired in queue");
  const Status full = Status::ResourceExhausted("queue full");
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(full.ToString(), "resource_exhausted: queue full");
  const Status withdrawn = Status::Cancelled("caller cancelled the request");
  EXPECT_EQ(withdrawn.code(), StatusCode::kCancelled);
  EXPECT_EQ(withdrawn.ToString(), "cancelled: caller cancelled the request");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, OkIgnoresMessage) {
  Status s(StatusCode::kOk, "ignored");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::DataLoss("bad bytes");
  EXPECT_EQ(os.str(), "data_loss: bad bytes");
}

Status FailsThenPropagates() {
  DPJL_RETURN_IF_ERROR(Status::OutOfRange("index 9"));
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r(7);
  EXPECT_EQ(r.value_or(-1), 7);
}

Result<int> HalveEven(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> QuarterEven(int v) {
  DPJL_ASSIGN_OR_RETURN(int half, HalveEven(v));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  Result<int> bad = QuarterEven(6);  // 6 -> 3, second halving fails
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, ValueOrMovesFromRvalueResult) {
  // The rvalue overload must move the stored value out, so it compiles (and
  // works) for move-only payloads where the copying lvalue overload cannot.
  Result<std::unique_ptr<int>> ok(std::make_unique<int>(5));
  std::unique_ptr<int> v = std::move(ok).value_or(nullptr);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 5);

  Result<std::unique_ptr<int>> err(Status::NotFound("missing"));
  std::unique_ptr<int> fb = std::move(err).value_or(std::make_unique<int>(9));
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(*fb, 9);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"a-longer-name", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("a-longer-name"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_EQ(t.num_rows(), 2);
}

TEST(TablePrinterTest, FormattersProduceStableStrings) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(int64_t{12345}), "12345");
  EXPECT_EQ(FmtSci(0.000123), "1.230e-04");
  EXPECT_EQ(FmtRatio(1.5), "x1.500");
  EXPECT_EQ(FmtBool(true), "yes");
  EXPECT_EQ(FmtBool(false), "no");
}

// ---------------------------------------------------------------------------
// BoundedTopK: the reusable deterministic selector behind the query scans.
// Property: for any input sequence and limit, TakeSorted() equals "sort
// everything, truncate to limit" — including under heavy ties.

constexpr uint64_t kTopKSeed = 0xD9E57A11C0FFEE00ULL;

std::vector<double> SortTruncate(std::vector<double> v, int64_t limit) {
  std::sort(v.begin(), v.end());
  v.resize(std::min<size_t>(v.size(), static_cast<size_t>(limit)));
  return v;
}

TEST(BoundedTopKTest, MatchesFullSortOnRandomInputs) {
  const auto less = [](double a, double b) { return a < b; };
  Rng rng(kTopKSeed);
  for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{8},
                    int64_t{100}, int64_t{1000}}) {
    for (int64_t limit : {int64_t{1}, int64_t{3}, int64_t{8}, n + 5}) {
      std::vector<double> input(static_cast<size_t>(n));
      for (double& v : input) v = rng.Gaussian();
      BoundedTopK<double, decltype(less)> top(limit, less);
      top.Reserve(n);
      for (double v : input) top.Push(v);
      EXPECT_EQ(top.TakeSorted(), SortTruncate(input, limit))
          << "n=" << n << " limit=" << limit;
    }
  }
}

TEST(BoundedTopKTest, MatchesFullSortUnderAdversarialTies) {
  const auto less = [](double a, double b) { return a < b; };
  Rng rng(DeriveSeed(kTopKSeed, 1));
  // Values drawn from a tiny alphabet: most pushes tie with the current
  // worst survivor, the exact boundary the strictly-less replacement rule
  // has to get right.
  for (int64_t limit : {int64_t{1}, int64_t{4}, int64_t{17}}) {
    std::vector<double> input(200);
    for (double& v : input) v = static_cast<double>(rng.UniformInt(4));
    BoundedTopK<double, decltype(less)> top(limit, less);
    for (double v : input) top.Push(v);
    EXPECT_EQ(top.TakeSorted(), SortTruncate(input, limit)) << limit;
  }
  // Degenerate: every input equal.
  BoundedTopK<double, decltype(less)> top(5, less);
  for (int i = 0; i < 50; ++i) top.Push(2.5);
  EXPECT_EQ(top.TakeSorted(), std::vector<double>(5, 2.5));
}

TEST(BoundedTopKTest, TotalOrderSelectsExactSurvivorsIncludingTiedKeys) {
  // (value, id) under a strict total order: tied values are broken by id,
  // so the survivor *identities* — not just the value multiset — must match
  // the full sort, whatever the push order.
  using Item = std::pair<double, std::string>;
  const auto less = [](const Item& a, const Item& b) { return a < b; };
  std::vector<Item> input;
  for (int i = 0; i < 60; ++i) {
    input.emplace_back(static_cast<double>(i % 3),
                       "id-" + std::to_string(i));
  }
  std::vector<Item> expect = input;
  std::sort(expect.begin(), expect.end());
  expect.resize(10);
  for (int rotation : {0, 13, 37}) {
    std::vector<Item> pushed = input;
    std::rotate(pushed.begin(), pushed.begin() + rotation, pushed.end());
    BoundedTopK<Item, decltype(less)> top(10, less);
    for (Item& item : pushed) top.Push(std::move(item));
    EXPECT_EQ(top.TakeSorted(), expect) << "rotation=" << rotation;
  }
}

TEST(BoundedTopKTest, WorstTracksTheHeapFrontAndFullFlips) {
  const auto less = [](double a, double b) { return a < b; };
  BoundedTopK<double, decltype(less)> top(3, less);
  EXPECT_EQ(top.size(), 0);
  EXPECT_FALSE(top.Full());
  top.Push(5.0);
  EXPECT_EQ(top.Worst(), 5.0);
  top.Push(1.0);
  top.Push(3.0);
  EXPECT_TRUE(top.Full());
  EXPECT_EQ(top.Worst(), 5.0);
  top.Push(2.0);  // evicts 5.0
  EXPECT_EQ(top.Worst(), 3.0);
  top.Push(9.0);  // rejected
  EXPECT_EQ(top.Worst(), 3.0);
  EXPECT_EQ(top.TakeSorted(), (std::vector<double>{1.0, 2.0, 3.0}));
}

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader

TEST(ByteCodecTest, RoundTripsEveryFieldKindInWriteOrder) {
  const std::vector<double> values = {0.5, -1.25, 3.75};
  ByteWriter out;
  out.Raw("MAGC");
  out.Pod(int32_t{-7});
  out.Pod(uint64_t{0x0102030405060708ULL});
  out.String(std::string("id\0x", 4));
  out.Pod(static_cast<int64_t>(values.size()));
  out.PodArray(values.data(), values.size());
  const std::string bytes = std::move(out).Take();
  ASSERT_EQ(bytes.size(), 4u + 4 + 8 + (8 + 4) + 8 + 3 * 8);
  EXPECT_EQ(bytes.substr(8, 8), std::string("\x08\x07\x06\x05\x04\x03\x02\x01"))
      << "PODs are little-endian";

  ByteReader in(bytes);
  int32_t small = 0;
  uint64_t wide = 0;
  std::string id;
  int64_t count = 0;
  std::vector<double> decoded;
  EXPECT_TRUE(in.Magic("MAGC"));
  EXPECT_TRUE(in.Pod(&small));
  EXPECT_TRUE(in.Pod(&wide));
  EXPECT_TRUE(in.String(&id));
  EXPECT_TRUE(in.Pod(&count));
  EXPECT_TRUE(in.PodArray(static_cast<uint64_t>(count), &decoded));
  EXPECT_TRUE(in.Finish("record").ok());
  EXPECT_EQ(small, -7);
  EXPECT_EQ(wide, 0x0102030405060708ULL);
  EXPECT_EQ(id, std::string("id\0x", 4));
  EXPECT_EQ(decoded, values);
}

TEST(ByteCodecTest, FirstFailureIsStickyAndLeavesLaterOutputsUntouched) {
  ByteWriter out;
  out.Pod(uint32_t{5});
  ByteReader in(out.view());
  uint64_t too_wide = 42;
  EXPECT_FALSE(in.Pod(&too_wide));
  EXPECT_EQ(too_wide, 42u);
  uint32_t fits = 9;
  EXPECT_FALSE(in.Pod(&fits)) << "a failed reader must not resume";
  EXPECT_EQ(fits, 9u);
  const Status finished = in.Finish("widget header");
  EXPECT_EQ(finished.code(), StatusCode::kDataLoss);
  EXPECT_EQ(finished.message(), "truncated widget header");
}

TEST(ByteCodecTest, FinishRefusesTrailingBytes) {
  ByteReader in("abc");
  EXPECT_TRUE(in.Magic("ab"));
  const Status finished = in.Finish("widget");
  EXPECT_EQ(finished.code(), StatusCode::kDataLoss);
  EXPECT_EQ(finished.message(), "trailing bytes after widget");
}

TEST(ByteCodecTest, MagicMismatchOrShortInputFails) {
  EXPECT_FALSE(ByteReader("DPJLXXXX").Magic("DPJLSNAP"));
  EXPECT_FALSE(ByteReader("DPJL").Magic("DPJLSNAP"));
  EXPECT_TRUE(ByteReader("DPJLSNAP").Magic("DPJLSNAP"));
}

TEST(ByteCodecTest, HostileLengthsAndCountsFailWithoutWrapping) {
  const auto u64 = [](uint64_t v) {
    ByteWriter out;
    out.Pod(v);
    return std::move(out).Take();
  };
  // A string length near 2^64 must not wrap offset + len.
  std::string s;
  EXPECT_FALSE(ByteReader(u64(UINT64_MAX - 3) + "abcd").String(&s));
  // 2^61 + 2 doubles wraps count * 8 to 16: the array read checks the
  // count against the bytes left before it multiplies or allocates.
  std::vector<double> values;
  EXPECT_FALSE(ByteReader(std::string(16, '\0'))
                   .PodArray((uint64_t{1} << 61) + 2, &values));
  EXPECT_TRUE(values.empty());
  // A record count is bounded by remaining / min_record_bytes.
  uint64_t count = 7;
  EXPECT_FALSE(ByteReader(u64(3) + std::string(47, 'x')).Count(&count, 16));
  EXPECT_EQ(count, 7u);
  EXPECT_TRUE(ByteReader(u64(3) + std::string(48, 'x')).Count(&count, 16));
  EXPECT_EQ(count, 3u);
}

}  // namespace
}  // namespace dpjl
