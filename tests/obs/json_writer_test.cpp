#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "serve/json_value.h"

namespace spb::obs {
namespace {

/// Well-formed JSON by the library reader.
bool parses(const std::string& text) {
  serve::JsonValue v;
  return serve::parse_json(text, v).ok;
}

TEST(JsonWriter, NestedContainersAndCommas) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("name", "spb");
  w.key("series");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.begin_object();
  w.field("deep", true);
  w.end_object();
  w.end_array();
  w.field("n", std::uint64_t{7});
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(),
            R"({"name":"spb","series":[1,2,{"deep":true}],"n":7})");
  EXPECT_TRUE(parses(os.str()));
}

TEST(JsonWriter, StringEscaping) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("s", std::string_view("a\"b\\c\n\t\x01"));
  w.end_object();
  EXPECT_EQ(os.str(), "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\"}");
  EXPECT_TRUE(parses(os.str()));
}

TEST(JsonWriter, NumberFormattingIsFixedPoint) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(1234567.25, 3);
  w.value(0.5, 1);
  w.value(-3);
  w.value(std::numeric_limits<double>::infinity(), 3);
  w.value(std::nan(""), 3);
  w.end_array();
  EXPECT_EQ(os.str(), "[1234567.250,0.5,-3,null,null]");
  EXPECT_TRUE(parses(os.str()));
}

TEST(JsonWriter, HugeValuesKeepEveryDigit) {
  // Fixed point never switches to an exponent, so a huge value prints all
  // of its integer digits (309 for the largest double), as printf's %f.
  for (const double v : {1e36, -1e59, 1e60, std::numeric_limits<double>::max(),
                         -std::numeric_limits<double>::max()}) {
    for (const int decimals : {0, 3, 17}) {
      char want[400];
      std::snprintf(want, sizeof(want), "%.*f", decimals, v);
      std::ostringstream os;
      JsonWriter w(os);
      w.value(v, decimals);
      EXPECT_EQ(os.str(), want);
    }
  }
}

TEST(JsonWriter, ValueInsideObjectWithoutKeyTrips) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.value(1), CheckError);
}

TEST(JsonWriter, MismatchedEndTrips) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.end_array(), CheckError);
}

}  // namespace
}  // namespace spb::obs
