#include "util/table.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace mobi::util {
namespace {

TEST(Table, RejectsEmptyHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RejectsWrongCellCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({Cell{std::string("x")}}), std::invalid_argument);
}

TEST(Table, StoresCells) {
  Table t({"name", "count", "ratio"});
  t.add_row({std::string("alpha"), 3LL, 0.5});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 3u);
  EXPECT_EQ(std::get<long long>(t.at(0, 1)), 3);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"k", "value"}, 2);
  t.add_row({1LL, 3.14159});
  t.add_row({100LL, 2.0});
  const std::string text = t.to_string();
  EXPECT_NE(text.find("3.14"), std::string::npos);
  EXPECT_NE(text.find("100"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(Table, DoublePrecisionIsConfigurable) {
  Table t({"x"}, 1);
  t.add_row({1.25});
  EXPECT_NE(t.to_string().find("1.2"), std::string::npos);
  EXPECT_EQ(t.to_string().find("1.25"), std::string::npos);
}

TEST(Table, CsvBasic) {
  Table t({"a", "b"});
  t.add_row({std::string("x"), 2LL});
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "a,b\nx,2\n");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"text"});
  t.add_row({std::string("hello, \"world\"")});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"hello, \"\"world\"\"\""), std::string::npos);
}

TEST(Table, PrintWritesToStream) {
  Table t({"a"});
  t.add_row({1LL});
  std::ostringstream out;
  t.print(out);
  EXPECT_FALSE(out.str().empty());
}

TEST(WriteFile, RoundTripsAndCreatesDirectories) {
  const auto dir = std::filesystem::temp_directory_path() / "mobi_table_test";
  std::filesystem::remove_all(dir);
  const auto path = (dir / "nested" / "out.csv").string();
  write_file(path, "a,b\n1,2\n");
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "a,b\n1,2\n");
  std::filesystem::remove_all(dir);
}

// /dev/full accepts the write into the stream's buffer and fails when
// the buffer is flushed to the device.
TEST(WriteFile, FullDeviceThrows) {
  EXPECT_THROW(write_file("/dev/full", "a,b\n1,2\n"), std::runtime_error);
}

}  // namespace
}  // namespace mobi::util
