// Strict numeric parsing (common/parse.h): the helpers must reject
// everything the raw std:: conversions silently accept — wrapped negatives,
// partial parses, infinities — and say why.
#include "common/parse.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"

namespace spb {
namespace {

TEST(ParseDouble, AcceptsPlainNumbers) {
  double d = 0;
  std::string err;
  EXPECT_TRUE(try_parse_double("1.5", d, err));
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_TRUE(try_parse_double("-0.25", d, err));
  EXPECT_DOUBLE_EQ(d, -0.25);
  EXPECT_TRUE(try_parse_double("1e3", d, err));
  EXPECT_DOUBLE_EQ(d, 1000.0);
  EXPECT_TRUE(try_parse_double("0", d, err));
  EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(ParseDouble, RejectsEmpty) {
  double d = 0;
  std::string err;
  EXPECT_FALSE(try_parse_double("", d, err));
  EXPECT_EQ(err, "empty value");
}

TEST(ParseDouble, RejectsTrailingJunk) {
  double d = 0;
  std::string err;
  EXPECT_FALSE(try_parse_double("5x", d, err));
  EXPECT_EQ(err, "trailing junk 'x' after number");
  EXPECT_FALSE(try_parse_double("1.5.2", d, err));
  EXPECT_NE(err.find("trailing junk"), std::string::npos);
}

TEST(ParseDouble, RejectsOutOfRange) {
  double d = 0;
  std::string err;
  EXPECT_FALSE(try_parse_double("1e999", d, err));
  EXPECT_EQ(err, "out of range for a double");
}

TEST(ParseDouble, RejectsNonFiniteSpellings) {
  double d = 0;
  std::string err;
  // std::stod accepts these without throwing; the strict parser must not.
  EXPECT_FALSE(try_parse_double("inf", d, err));
  EXPECT_EQ(err, "not a finite number");
  EXPECT_FALSE(try_parse_double("nan", d, err));
  EXPECT_EQ(err, "not a finite number");
}

TEST(ParseDouble, RejectsNonNumbers) {
  double d = 0;
  std::string err;
  EXPECT_FALSE(try_parse_double("abc", d, err));
  EXPECT_EQ(err, "not a number");
}

TEST(ParseU64, AcceptsDigits) {
  std::uint64_t v = 0;
  std::string err;
  EXPECT_TRUE(try_parse_u64("0", v, err));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(try_parse_u64("18446744073709551615", v, err));
  EXPECT_EQ(v, 18446744073709551615ULL);
}

TEST(ParseU64, RejectsNegative) {
  // std::stoull would wrap "-1" to 2^64-1; the whole point of the strict
  // parser is that a negative seed or count errors out loudly.
  std::uint64_t v = 0;
  std::string err;
  EXPECT_FALSE(try_parse_u64("-1", v, err));
  EXPECT_EQ(err, "negative value not allowed");
}

TEST(ParseU64, RejectsNonDigits) {
  std::uint64_t v = 0;
  std::string err;
  EXPECT_FALSE(try_parse_u64("", v, err));
  EXPECT_EQ(err, "empty value");
  EXPECT_FALSE(try_parse_u64("+1", v, err));
  EXPECT_NE(err.find("invalid character"), std::string::npos);
  EXPECT_FALSE(try_parse_u64("12a", v, err));
  EXPECT_NE(err.find("invalid character"), std::string::npos);
  EXPECT_FALSE(try_parse_u64(" 1", v, err));  // stoull would skip the space
  EXPECT_NE(err.find("invalid character"), std::string::npos);
}

TEST(ParseU64, RejectsOverflow) {
  std::uint64_t v = 0;
  std::string err;
  EXPECT_FALSE(try_parse_u64("18446744073709551616", v, err));
  EXPECT_EQ(err, "out of range for a 64-bit unsigned integer");
}

TEST(ParseInt, EnforcesMaximum) {
  int n = 0;
  std::string err;
  EXPECT_TRUE(try_parse_int("1000000000", n, err));
  EXPECT_EQ(n, 1'000'000'000);
  EXPECT_FALSE(try_parse_int("1000000001", n, err));
  EXPECT_NE(err.find("exceeds maximum"), std::string::npos);
  EXPECT_TRUE(try_parse_int("8", n, err, 8));
  EXPECT_FALSE(try_parse_int("9", n, err, 8));
}

TEST(ParseThrowing, MessageNamesTheInput) {
  EXPECT_DOUBLE_EQ(parse_double_or_throw("lat", "2.5"), 2.5);
  EXPECT_EQ(parse_u64_or_throw("seed", "42"), 42u);
  try {
    parse_double_or_throw("lat", "1e999");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("lat"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  try {
    parse_u64_or_throw("fault seed", "-1");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("negative"), std::string::npos);
  }
  // Int flags: 2^32 + 2 must not come back as 2, "3abc" not as 3.
  EXPECT_EQ(parse_int_or_throw("--s", "12"), 12);
  for (const std::string text : {"4294967298", "3abc", "-5", "1000000001"}) {
    try {
      parse_int_or_throw("--s", text);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("--s '" + text + "'"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace spb
