#include "util/table.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mobi::util {

Table::Table(std::vector<std::string> headers, int double_precision)
    : headers_(std::move(headers)), double_precision_(double_precision) {
  if (headers_.empty()) throw std::invalid_argument("Table: need >= 1 column");
}

Table& Table::add_row(std::vector<Cell> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table::add_row: wrong cell count");
  }
  rows_.push_back(std::move(cells));
  return *this;
}

const Cell& Table::at(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

std::string Table::format(const Cell& cell) const {
  if (const auto* text = std::get_if<std::string>(&cell)) return *text;
  if (const auto* integer = std::get_if<long long>(&cell)) {
    return std::to_string(*integer);
  }
  std::ostringstream out;
  out << std::fixed << std::setprecision(double_precision_)
      << std::get<double>(cell);
  return out.str();
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << (c == 0 ? "" : "  ") << std::setw(int(widths[c])) << cells[c];
    }
    out << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c == 0 ? 0 : 2);
  }
  out << std::string(total, '-') << '\n';
  for (const auto& row : rendered) emit_row(row);
  return out.str();
}

namespace {
std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (char ch : field) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  quoted += '"';
  return quoted;
}
}  // namespace

std::string Table::to_csv() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << (c == 0 ? "" : ",") << csv_escape(headers_[c]);
  }
  out << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "" : ",") << csv_escape(format(row[c]));
    }
    out << '\n';
  }
  return out.str();
}

void Table::print(std::ostream& out) const { out << to_string(); }

void write_file(const std::string& path, const std::string& contents) {
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::filesystem::create_directories(fs_path.parent_path());
  }
  std::ofstream out(fs_path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_file: cannot open " + path);
  out << contents;
  // Close before the check: a failed flush of the buffered bytes only
  // shows on the stream once they reach the file.
  out.close();
  if (!out) throw std::runtime_error("write_file: write failed for " + path);
}

}  // namespace mobi::util
