#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"

namespace tbi {
namespace {

TEST(TextTable, PctFormatsLikeThePaper) {
  EXPECT_EQ(TextTable::pct(0.9599), "95.99 %");
  EXPECT_EQ(TextTable::pct(1.0), "100.00 %");
  EXPECT_EQ(TextTable::pct(0.435), "43.50 %");
}

TEST(TextTable, RenderAligns) {
  TextTable t("Title");
  t.set_header({"A", "Long header"});
  t.add_row({"very long cell", "x"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| very long cell | x           |"), std::string::npos);
}

TEST(TextTable, MarkdownHasSeparator) {
  TextTable t;
  t.set_header({"h1", "h2"});
  t.add_row({"a", "b"});
  const std::string md = t.render_markdown();
  EXPECT_NE(md.find("|----"), std::string::npos);
  EXPECT_NE(md.find("| a  | b  |"), std::string::npos);
}

TEST(Csv, EscapesSpecials) {
  CsvWriter w;
  w.set_header({"a", "b"});
  w.add_row({"plain", "with,comma"});
  w.add_row({"quote\"inside", "line\nbreak"});
  const std::string out = w.str();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
  EXPECT_NE(out.find("\"line\nbreak\""), std::string::npos);
  EXPECT_EQ(out.find("plain,"), out.find("plain"));
}

TEST(Cli, ParsesFlagsValuesAndPositionals) {
  CliParser cli("prog", "test");
  cli.add_option("device", "name", "device name");
  cli.add_option("check", "", "boolean flag");
  const char* argv[] = {"prog", "--device", "DDR4-3200", "--check", "pos1"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get("device", ""), "DDR4-3200");
  EXPECT_TRUE(cli.get_flag("check"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, EqualsSyntaxAndNumbers) {
  CliParser cli("prog", "test");
  cli.add_option("n", "count", "a number");
  cli.add_option("x", "float", "a float");
  const char* argv[] = {"prog", "--n=123", "--x=2.5"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n", 0), 123);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0), 2.5);
  EXPECT_EQ(cli.get_int("missing", -7), -7);
}

TEST(Cli, RejectsUnknownOption) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.error().find("nope"), std::string::npos);
}

TEST(Cli, MissingValueIsError) {
  CliParser cli("prog", "test");
  cli.add_option("k", "v", "needs value");
  const char* argv[] = {"prog", "--k"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, UsageListsOptions) {
  CliParser cli("prog", "summary text");
  cli.add_option("alpha", "x", "the alpha");
  cli.add_option("beta", "", "the beta flag");
  const std::string u = cli.usage();
  EXPECT_NE(u.find("--alpha <x>"), std::string::npos);
  EXPECT_NE(u.find("--beta"), std::string::npos);
  EXPECT_NE(u.find("summary text"), std::string::npos);
}

}  // namespace
}  // namespace tbi
