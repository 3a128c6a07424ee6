#pragma once
// Minimal JSON reader/writer helpers for the benchmark's own files: result
// records written by e2e, the baseline, and BENCHMARK.json. Enough of RFC
// 8259 for those files (objects, arrays, strings with the common escapes,
// numbers, literals); malformed input throws deepbat::Error.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace deepbat::e2e {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;  // in file order

  /// Member `key` of an object, or nullptr (also for non-objects).
  const Json* find(std::string_view key) const;
  /// Member `key`, which must exist; throws deepbat::Error otherwise.
  const Json& at(std::string_view key) const;
};

Json parse_json(std::string_view text);
Json read_json_file(const std::string& path);

/// `v` serialized on one line.
std::string dump(const Json& v);

/// `s` as a quoted JSON string literal.
std::string quote(std::string_view s);
/// A double with all the digits needed to read it back exactly.
std::string number(double v);

}  // namespace deepbat::e2e
