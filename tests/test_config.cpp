#include "sim/config.h"

#include <gtest/gtest.h>

namespace bridge {
namespace {

TEST(Config, SetAndGetTyped) {
  Config c;
  c.set("core.fetch_width", "8");
  c.set("freq", "3.2");
  c.set("prefetch", "true");
  c.set("name", "rocket");
  c.set("seed", "18446744073709551615");
  EXPECT_EQ(c.getInt("core.fetch_width"), 8);
  EXPECT_EQ(c.getUint("seed"), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(*c.getDouble("freq"), 3.2);
  EXPECT_EQ(c.getBool("prefetch"), true);
  EXPECT_EQ(c.getString("name"), "rocket");
}

TEST(Config, MalformedValuesReturnNullopt) {
  Config c;
  c.set("k", "not_a_number");
  for (const char* key : {"k", "missing"}) {
    SCOPED_TRACE(key);
    EXPECT_FALSE(c.getInt(key).has_value());
    EXPECT_FALSE(c.getUint(key).has_value());
    EXPECT_FALSE(c.getDouble(key).has_value());
    EXPECT_FALSE(c.getBool(key).has_value());
  }
  EXPECT_TRUE(c.getString("k").has_value());
  EXPECT_FALSE(c.getString("missing").has_value());
  // Unsigned: no sign, no overflow.
  c.set("k", "-1");
  EXPECT_FALSE(c.getUint("k").has_value());
  c.set("k", "18446744073709551616");
  EXPECT_FALSE(c.getUint("k").has_value());
}

TEST(Config, ParseHandlesCommentsAndWhitespace) {
  Config c;
  const char* text =
      "# platform overrides\n"
      "  core.rob = 128   # bigger window\n"
      "\n"
      "dram.kind = ddr4-3200\n";
  std::string err;
  ASSERT_TRUE(c.parse(text, &err)) << err;
  EXPECT_EQ(c.getInt("core.rob"), 128);
  EXPECT_EQ(c.getString("dram.kind"), "ddr4-3200");
  EXPECT_EQ(c.size(), 2u);
}

TEST(Config, ParseRejectsMissingEquals) {
  Config c;
  std::string err;
  EXPECT_FALSE(c.parse("justakey\n", &err));
  EXPECT_NE(err.find("line 1"), std::string::npos);
}

TEST(Config, ParseRejectsEmptyKey) {
  Config c;
  std::string err;
  EXPECT_FALSE(c.parse(" = value\n", &err));
}

TEST(Config, LaterDuplicatesWin) {
  Config c;
  ASSERT_TRUE(c.parse("a = 1\na = 2\n"));
  EXPECT_EQ(c.getInt("a"), 2);
}

TEST(Config, RoundTripThroughText) {
  Config c;
  c.set("b", "2");
  c.set("a", "1");
  Config c2;
  ASSERT_TRUE(c2.parse(c.toText()));
  EXPECT_EQ(c2.getInt("a"), 1);
  EXPECT_EQ(c2.getInt("b"), 2);
}

TEST(Config, BoolSpellings) {
  Config c;
  for (const char* t : {"true", "1", "yes", "on"}) {
    c.set("k", t);
    EXPECT_EQ(c.getBool("k"), true) << t;
  }
  for (const char* f : {"false", "0", "no", "off"}) {
    c.set("k", f);
    EXPECT_EQ(c.getBool("k"), false) << f;
  }
}

}  // namespace
}  // namespace bridge
