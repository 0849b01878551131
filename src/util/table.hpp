// ASCII table formatter used by the paper programs (bench/) and the
// analysis reports so every experiment prints rows in a uniform,
// paper-like shape.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace prt {

/// Column alignment inside a Table cell.
enum class Align { kLeft, kRight };

/// Accumulates rows of strings and renders them with padded, aligned
/// columns.  Intended for small result tables (tens of rows), not bulk
/// data.
class Table {
 public:
  /// Creates a table with the given column headers.  All rows added later
  /// must have exactly headers.size() cells.
  explicit Table(std::vector<std::string> headers);

  /// Sets per-column alignment; default is kRight for every column.
  void set_align(std::size_t col, Align align);

  /// Appends one row.  Precondition: cells.size() == column count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats each argument with to_cell() and appends.
  template <typename... Ts>
  void add(const Ts&... cells) {
    add_row({to_cell(cells)...});
  }

  /// Renders the table (header, separator, rows) to a string.
  [[nodiscard]] std::string str() const;

  /// Renders to a stream.
  friend std::ostream& operator<<(std::ostream& os, const Table& t);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const { return headers_.size(); }

  /// Renders the table as CSV (no padding), for machine consumption.
  [[nodiscard]] std::string csv() const;

  // --- cell formatting helpers -------------------------------------
  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(const char* s) { return s; }
  static std::string to_cell(bool b) { return b ? "yes" : "no"; }
  static std::string to_cell(double v);
  template <typename T>
    requires std::is_integral_v<T>
  static std::string to_cell(T v) {
    return std::to_string(v);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats v with `digits` significant decimal places (fixed notation).
std::string format_fixed(double v, int digits);

/// Formats a ratio as "2^-k"-style when it is a (near) power of two,
/// otherwise scientific; used by the hardware-overhead tables.
std::string format_pow2_ratio(double ratio);

}  // namespace prt
