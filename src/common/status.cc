#include "src/common/status.h"

#include <iostream>

#include "src/common/enum_names.h"
#include "src/common/result.h"

namespace dpjl {

constexpr EnumName<StatusCode> kStatusCodeNames[] = {
    {StatusCode::kOk, "ok"},
    {StatusCode::kInvalidArgument, "invalid_argument"},
    {StatusCode::kOutOfRange, "out_of_range"},
    {StatusCode::kFailedPrecondition, "failed_precondition"},
    {StatusCode::kInternal, "internal"},
    {StatusCode::kNotFound, "not_found"},
    {StatusCode::kUnimplemented, "unimplemented"},
    {StatusCode::kDataLoss, "data_loss"},
    {StatusCode::kDeadlineExceeded, "deadline_exceeded"},
    {StatusCode::kResourceExhausted, "resource_exhausted"},
    {StatusCode::kCancelled, "cancelled"},
    {StatusCode::kUnavailable, "unavailable"},
};

std::string_view StatusCodeToString(StatusCode code) {
  return NameOf(kStatusCodeNames, code);
}

Result<StatusCode> ParseStatusCode(std::string_view name) {
  if (const StatusCode* code = FindValue(kStatusCodeNames, name)) return *code;
  return Status::InvalidArgument("unknown status code name '" +
                                 std::string(name) + "'");
}

Result<StatusCode> StatusCodeFromInt(int value) {
  if (value < 0 || value > static_cast<int>(StatusCode::kUnavailable)) {
    return Status::DataLoss("status code " + std::to_string(value) +
                            " is outside the known range");
  }
  return static_cast<StatusCode>(value);
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

void LogIfError(const Status& status, std::string_view context) {
  if (status.ok()) return;
  std::cerr << context << ": " << status.ToString() << "\n";
}

}  // namespace dpjl
