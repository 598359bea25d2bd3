// ASCII / CSV table rendering for experiment reports.
#pragma once

#include <string>
#include <vector>

namespace fgnvm {

/// Simple column-aligned text table. Benches use it to print paper-style
/// rows (one row per benchmark, one column per configuration).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have the same arity as the headers.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` decimals.
  static std::string fmt(double value, int precision = 3);

  /// Monospace-aligned rendering with a header separator.
  std::string to_text() const;

  /// RFC-4180-ish CSV (no quoting of embedded commas needed for our data,
  /// but commas in cells are escaped by quoting anyway).
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fgnvm
