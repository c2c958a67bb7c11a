#include <gtest/gtest.h>

#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace epi {
namespace {

// ---------------------------------------------------------------- CSV ----

TEST(Csv, ParseSimpleLine) {
  const auto fields = parse_csv_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Csv, ParseQuotedFields) {
  const auto fields = parse_csv_line(R"("hello, world",plain,"with ""quotes""")");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "hello, world");
  EXPECT_EQ(fields[1], "plain");
  EXPECT_EQ(fields[2], "with \"quotes\"");
}

TEST(Csv, ParseEmptyFields) {
  const auto fields = parse_csv_line("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv_line("\"oops"), ConfigError);
}

TEST(Csv, ParseTableWithHeader) {
  const CsvTable table = parse_csv("x,y\n1,2\n3,4\n");
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.column_count(), 2u);
  EXPECT_EQ(table.cell_int(0, "x"), 1);
  EXPECT_EQ(table.cell_int(1, "y"), 4);
}

TEST(Csv, HandlesCrLf) {
  const CsvTable table = parse_csv("a,b\r\n1,2\r\n");
  EXPECT_EQ(table.cell(0, "b"), "2");
}

TEST(Csv, MissingColumnThrows) {
  const CsvTable table = parse_csv("a\n1\n");
  EXPECT_THROW(table.column("nope"), ConfigError);
  EXPECT_TRUE(table.has_column("a"));
  EXPECT_FALSE(table.has_column("b"));
}

TEST(Csv, RaggedRowThrows) {
  EXPECT_THROW(parse_csv("a,b\n1\n"), Error);
}

TEST(Csv, NonNumericCellThrows) {
  const CsvTable table = parse_csv("a\nhello\n");
  EXPECT_THROW(table.cell_int(0, "a"), ConfigError);
  EXPECT_THROW(table.cell_double(0, "a"), ConfigError);
}

TEST(Csv, DoubleCellParses) {
  const CsvTable table = parse_csv("v\n3.25\n");
  EXPECT_DOUBLE_EQ(table.cell_double(0, "v"), 3.25);
}

TEST(Csv, WriterEscapes) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(out.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Csv, WriterRoundTripsThroughParser) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"h1", "h2"});
  writer.write_row({"a,b", "c\"d"});
  const CsvTable table = parse_csv(out.str());
  EXPECT_EQ(table.cell(0, "h1"), "a,b");
  EXPECT_EQ(table.cell(0, "h2"), "c\"d");
}

TEST(Csv, FormatDoubleRoundTrips) {
  const double value = 0.1234567890123456789;
  EXPECT_DOUBLE_EQ(std::stod(CsvWriter::format(value)), value);
}

// --------------------------------------------------------------- JSON ----

TEST(Json, ParseScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse_json("-2e3").as_double(), -2000.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNested) {
  const Json j = parse_json(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_EQ(j.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(j.at("d").is_null());
}

TEST(Json, ParseEscapes) {
  const Json j = parse_json(R"("line\nbreak\t\"quoted\" A")");
  EXPECT_EQ(j.as_string(), "line\nbreak\t\"quoted\" A");
}

TEST(Json, ParseErrorsCarryPosition) {
  try {
    parse_json("{\"a\": }");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(Json, TrailingGarbageThrows) {
  EXPECT_THROW(parse_json("1 2"), ConfigError);
}

TEST(Json, UnterminatedThrows) {
  EXPECT_THROW(parse_json("[1, 2"), ConfigError);
  EXPECT_THROW(parse_json("{\"a\": 1"), ConfigError);
  EXPECT_THROW(parse_json("\"abc"), ConfigError);
}

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(Json, NestingAtDepthLimitParses) {
  const Json arrays = parse_json(nested_arrays(kJsonMaxDepth));
  const Json* level = &arrays;
  for (int depth = 1; depth < kJsonMaxDepth; ++depth) {
    ASSERT_EQ(level->as_array().size(), 1u) << "depth " << depth;
    level = &level->as_array()[0];
  }
  EXPECT_TRUE(level->as_array().empty());
  // Objects and arrays count alike.
  std::string mixed;
  for (int depth = 0; depth < kJsonMaxDepth / 2; ++depth) mixed += "{\"a\": [";
  mixed += "1";
  for (int depth = 0; depth < kJsonMaxDepth / 2; ++depth) mixed += "]}";
  EXPECT_NO_THROW(parse_json(mixed));
}

TEST(Json, NestingPastDepthLimitThrows) {
  try {
    parse_json(nested_arrays(kJsonMaxDepth + 1));
    FAIL() << "nesting past the limit parsed";
  } catch (const ConfigError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 1, column 513"), std::string::npos) << message;
    EXPECT_NE(message.find("nesting deeper than 512 levels"), std::string::npos)
        << message;
  }
  std::string objects;
  for (int depth = 0; depth <= kJsonMaxDepth; ++depth) objects += "{\"a\": ";
  objects += "1";
  objects += std::string(static_cast<std::size_t>(kJsonMaxDepth) + 1, '}');
  EXPECT_THROW(parse_json(objects), ConfigError);
}

TEST(Json, VeryDeepNestingThrowsInsteadOfCrashing) {
  // Unbounded recursion overflowed the stack on input like this.
  EXPECT_THROW(parse_json(std::string(2'000'000, '[')), ConfigError);
  EXPECT_THROW(parse_json(nested_arrays(2'000'000)), ConfigError);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = parse_json("42");
  EXPECT_THROW(j.as_string(), ConfigError);
  EXPECT_THROW(j.as_array(), ConfigError);
  EXPECT_THROW(j.at("key"), ConfigError);
}

TEST(Json, IntegerAccessor) {
  EXPECT_EQ(parse_json("7").as_int(), 7);
  EXPECT_THROW(parse_json("7.5").as_int(), ConfigError);
}

TEST(Json, ObjectHelpers) {
  const Json j = parse_json(R"({"x": 1.5, "s": "v", "b": true, "n": 3})");
  EXPECT_DOUBLE_EQ(j.get_double("x", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(j.get_double("missing", 9.0), 9.0);
  EXPECT_EQ(j.get_string("s", ""), "v");
  EXPECT_EQ(j.get_string("missing", "dft"), "dft");
  EXPECT_TRUE(j.get_bool("b", false));
  EXPECT_EQ(j.get_int("n", 0), 3);
  EXPECT_TRUE(j.contains("x"));
  EXPECT_FALSE(j.contains("zzz"));
}

TEST(Json, DumpCompactRoundTrips) {
  const std::string text =
      R"({"arr":[1,2.5,"s"],"nested":{"t":true},"z":null})";
  const Json j = parse_json(text);
  EXPECT_EQ(parse_json(j.dump()), j);
}

TEST(Json, DumpPrettyRoundTrips) {
  const Json j = parse_json(R"({"a": [1, {"b": 2}]})");
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse_json(pretty), j);
}

TEST(Json, DumpIntegersWithoutDecimalPoint) {
  EXPECT_EQ(Json(5.0).dump(), "5");
  EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(Json, DumpEscapesControlCharacters) {
  EXPECT_EQ(Json(std::string("a\nb")).dump(), "\"a\\nb\"");
}

TEST(Json, MutatingSubscriptBuildsObjects) {
  Json j;
  j["a"] = Json(1.0);
  j["b"] = Json("x");
  EXPECT_EQ(j.at("a").as_int(), 1);
  EXPECT_EQ(j.at("b").as_string(), "x");
}

TEST(Json, KeyOrderDeterministic) {
  // std::map-backed objects serialize in sorted key order.
  Json j;
  j["zebra"] = Json(1.0);
  j["alpha"] = Json(2.0);
  const std::string text = j.dump();
  EXPECT_LT(text.find("alpha"), text.find("zebra"));
}

}  // namespace
}  // namespace epi
