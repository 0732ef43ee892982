#include "common/table.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/ascii_plot.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

namespace advh {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  text_table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  text_table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), invariant_error);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(text_table::num(3.14159, 2), "3.14");
  EXPECT_EQ(text_table::num(98.976, 2), "98.98");
  EXPECT_EQ(text_table::num(0.5, 4), "0.5000");
}

TEST(TextTable, CsvQuotesCommas) {
  text_table t;
  t.set_header({"label", "x"});
  t.add_row({"speed limit (30km/h), targeted", "1"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"speed limit (30km/h), targeted\""), std::string::npos);
}

TEST(TextTable, CsvRoundTripRows) {
  text_table t;
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n3,4\n");
}

TEST(TextTable, AccessorsWork) {
  text_table t;
  t.set_header({"a"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 1u);
  EXPECT_EQ(t.row(0)[0], "x");
  EXPECT_THROW(t.row(1), invariant_error);
}

TEST(WriteFile, CreatesParentDirectories) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "advh_test" / "sub" / "f.txt")
          .string();
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "advh_test");
  write_file(path, "hello");
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "hello");
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "advh_test");
}

TEST(AsciiPlot, DualHistogramMentionsLabels) {
  std::vector<double> a{1.0, 1.1, 1.2, 2.0};
  std::vector<double> b{5.0, 5.1, 5.2, 6.0};
  const std::string s = plot::dual_histogram(a, b, "clean", "adv", 20, 5);
  EXPECT_NE(s.find("clean"), std::string::npos);
  EXPECT_NE(s.find("adv"), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
  EXPECT_NE(s.find('o'), std::string::npos);
}

TEST(AsciiPlot, DualHistogramOverlapUsesPercent) {
  std::vector<double> a{1.0, 2.0, 3.0};
  const std::string s = plot::dual_histogram(a, a, "x", "y", 10, 4);
  EXPECT_NE(s.find('%'), std::string::npos);
}

TEST(AsciiPlot, BarChartScalesBars) {
  std::vector<std::string> labels{"low", "high"};
  std::vector<double> values{0.1, 1.0};
  const std::string s = plot::bar_chart(labels, values, 1.0, 20);
  // The 1.0 bar must contain more '#' than the 0.1 bar.
  const auto low_pos = s.find("low");
  const auto high_pos = s.find("high");
  ASSERT_NE(low_pos, std::string::npos);
  ASSERT_NE(high_pos, std::string::npos);
  const auto count_hashes = [&](std::size_t from) {
    std::size_t n = 0;
    for (std::size_t i = from; i < s.size() && s[i] != '\n'; ++i) {
      if (s[i] == '#') ++n;
    }
    return n;
  };
  EXPECT_GT(count_hashes(high_pos), count_hashes(low_pos));
}

TEST(AsciiPlot, LinePlotRendersLegendAndMarks) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<plot::series> curves;
  curves.push_back({"f1", {0.2, 0.5, 0.9}, {}});
  const std::string s = plot::line_plot(x, curves, 30, 8);
  EXPECT_NE(s.find("f1"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
}

TEST(AsciiPlot, LinePlotBandRendersDots) {
  std::vector<double> x{1.0, 2.0};
  std::vector<plot::series> curves;
  curves.push_back({"f1", {0.5, 0.5}, {0.2, 0.2}});
  const std::string s = plot::line_plot(x, curves, 20, 10);
  EXPECT_NE(s.find('.'), std::string::npos);
}

TEST(AsciiPlot, LinePlotChecksLengths) {
  std::vector<double> x{1.0, 2.0};
  std::vector<plot::series> curves;
  curves.push_back({"bad", {0.5}, {}});
  EXPECT_THROW(plot::line_plot(x, curves), invariant_error);
}

TEST(Cli, ParsesFlagsInAllForms) {
  cli_parser p("prog", "test");
  p.add_flag("alpha", "0", "an int");
  p.add_flag("beta", "x", "a string");
  p.add_flag("gamma", "false", "a bool");
  const char* argv[] = {"prog", "--alpha", "42", "--beta=hello", "--gamma"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.get_count("alpha"), 42u);
  EXPECT_EQ(p.get("beta"), "hello");
  EXPECT_TRUE(p.get_bool("gamma"));
}

TEST(Cli, DefaultsApply) {
  cli_parser p("prog", "test");
  p.add_flag("x", "3.5", "a double");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_DOUBLE_EQ(p.get_double("x"), 3.5);
}

TEST(Cli, NumbersParseStrictly) {
  cli_parser p("prog", "test");
  p.add_flag("threads", "0", "a count");
  p.add_flag("epsilon", "0", "a double");
  p.add_flag("json", "false", "a bool");
  const char* argv[] = {"prog", "--threads", "4x", "--epsilon=0.5x",
                        "--json=ture"};
  ASSERT_TRUE(p.parse(5, argv));
  // A trailing-garbage value fails loudly instead of running as 4 / 0.5,
  // and a misspelt boolean is not read as false.
  EXPECT_THROW((void)p.get_count("threads"), std::invalid_argument);
  EXPECT_THROW((void)p.get_double("epsilon"), std::invalid_argument);
  EXPECT_THROW((void)p.get_bool("json"), std::invalid_argument);
  // The literals get_bool reads (and advh_check's --json takes as its
  // value); any other token is no boolean.
  for (const char* t : {"1", "true", "yes", "on"}) {
    EXPECT_EQ(parse_bool(t), std::optional<bool>(true)) << t;
  }
  for (const char* f : {"0", "false", "no", "off"}) {
    EXPECT_EQ(parse_bool(f), std::optional<bool>(false)) << f;
  }
  for (const char* other : {"", "ture", "2", "resnet_small"}) {
    EXPECT_EQ(parse_bool(other), std::nullopt) << other;
  }

  const char* fractional[] = {"prog", "--threads", "2.5"};
  ASSERT_TRUE(p.parse(3, fractional));
  EXPECT_THROW((void)p.get_count("threads"), std::invalid_argument);

  // A negative count is rejected, not wrapped or clamped, and so is a
  // value above the flag's ceiling.
  const char* negative[] = {"prog", "--threads", "-1"};
  ASSERT_TRUE(p.parse(3, negative));
  EXPECT_THROW((void)p.get_count("threads"), std::invalid_argument);
  const char* above[] = {"prog", "--threads", "9"};
  ASSERT_TRUE(p.parse(3, above));
  EXPECT_THROW((void)p.get_count("threads", 0, 8), std::invalid_argument);
  EXPECT_EQ(p.get_count("threads", 0, 9), 9u);
}

TEST(Cli, UnknownFlagThrows) {
  cli_parser p("prog", "test");
  p.add_flag("known", "1", "");
  const char* argv[] = {"prog", "--unknown", "2"};
  EXPECT_THROW(p.parse(3, argv), invariant_error);
}

TEST(Cli, HelpReturnsFalse) {
  cli_parser p("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

}  // namespace
}  // namespace advh
