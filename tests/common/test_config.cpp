#include "pa/common/config.h"

#include <gtest/gtest.h>

#include "pa/common/error.h"

namespace pa {
namespace {

TEST(Config, ParseBasic) {
  const Config cfg = Config::parse("a=1,b=two, c = 3.5 ;d=true");
  EXPECT_EQ(cfg.get_int("a"), 1);
  EXPECT_EQ(cfg.get_string("b"), "two");
  EXPECT_DOUBLE_EQ(cfg.get_double("c"), 3.5);
  EXPECT_TRUE(cfg.get_bool("d"));
}

TEST(Config, ParseEmpty) {
  const Config cfg = Config::parse("");
  EXPECT_TRUE(cfg.keys().empty());
}

TEST(Config, ParseRejectsMissingEquals) {
  EXPECT_THROW(Config::parse("novalue"), InvalidArgument);
  EXPECT_THROW(Config::parse("=x"), InvalidArgument);
}

TEST(Config, StrictGettersThrow) {
  const Config cfg = Config::parse("a=x");
  EXPECT_THROW(cfg.get_string("missing"), NotFound);
  EXPECT_THROW(cfg.get_int("a"), InvalidArgument);
  EXPECT_THROW(cfg.get_double("a"), InvalidArgument);
  EXPECT_THROW(cfg.get_bool("a"), InvalidArgument);
}

TEST(Config, TrailingCharactersRejected) {
  const Config cfg = Config::parse("n=12abc");
  EXPECT_THROW(cfg.get_int("n"), InvalidArgument);
}

TEST(Config, DefaultedGetters) {
  const Config cfg = Config::parse("x=5");
  EXPECT_EQ(cfg.get_int("x", 0), 5);
  EXPECT_EQ(cfg.get_int("y", 42), 42);
  EXPECT_EQ(cfg.get_string("z", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cfg.get_double("w", 2.5), 2.5);
  EXPECT_TRUE(cfg.get_bool("b", true));
}

TEST(Config, BoolSynonyms) {
  const Config cfg = Config::parse("a=YES,b=off,c=1,d=False");
  EXPECT_TRUE(cfg.get_bool("a"));
  EXPECT_FALSE(cfg.get_bool("b"));
  EXPECT_TRUE(cfg.get_bool("c"));
  EXPECT_FALSE(cfg.get_bool("d"));
}

TEST(Config, TypedSetters) {
  Config cfg;
  cfg.set("i", static_cast<std::int64_t>(-7));
  cfg.set("d", 1.25);
  cfg.set("b", true);
  cfg.set("s", std::string("str"));
  EXPECT_EQ(cfg.get_int("i"), -7);
  EXPECT_DOUBLE_EQ(cfg.get_double("d"), 1.25);
  EXPECT_TRUE(cfg.get_bool("b"));
  EXPECT_EQ(cfg.get_string("s"), "str");
}

TEST(Config, MergeOverrides) {
  Config base = Config::parse("a=1,b=2");
  const Config over = Config::parse("b=20,c=30");
  base.merge(over);
  EXPECT_EQ(base.get_int("a"), 1);
  EXPECT_EQ(base.get_int("b"), 20);
  EXPECT_EQ(base.get_int("c"), 30);
}

TEST(Config, RoundTripToString) {
  const Config cfg = Config::parse("z=1,a=2");
  const Config again = Config::parse(cfg.to_string());
  EXPECT_EQ(cfg, again);
  // Keys render sorted.
  EXPECT_EQ(cfg.to_string(), "a=2,z=1");
}

TEST(Config, ToStringBytesArePinned) {
  // The rendering travels on the wire (unit and pilot attributes), so
  // its exact bytes are part of the protocol.
  EXPECT_EQ(Config().to_string(), "");
  Config one;
  one.set("tenant", std::string("alice"));
  EXPECT_EQ(one.to_string(), "tenant=alice");
  Config several;
  several.set("preferred_site", std::string("hpc-a"));
  several.set("n", std::int64_t{42});
  several.set("empty", std::string());
  several.set("flag", true);
  EXPECT_EQ(several.to_string(),
            "empty=,flag=true,n=42,preferred_site=hpc-a");
}

TEST(Config, KeysSorted) {
  const Config cfg = Config::parse("beta=1,alpha=2");
  const auto keys = cfg.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "beta");
}

TEST(Config, EmptyKeyRejected) {
  Config cfg;
  EXPECT_THROW(cfg.set("", "v"), InvalidArgument);
}

}  // namespace
}  // namespace pa
