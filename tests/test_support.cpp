// Unit tests for the support library: bit utilities, string helpers,
// deterministic RNG, and the status/error types.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/bits.h"
#include "support/json_parse.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/strings.h"

namespace roload {
namespace {

TEST(BitsTest, ExtractBitsBasics) {
  EXPECT_EQ(ExtractBits(0xFF00, 15, 8), 0xFFu);
  EXPECT_EQ(ExtractBits(0xFF00, 7, 0), 0x00u);
  EXPECT_EQ(ExtractBits(0x1234'5678'9ABC'DEF0ull, 63, 60), 0x1u);
  EXPECT_EQ(ExtractBits(~0ull, 63, 0), ~0ull);
}

TEST(BitsTest, InsertBitsRoundTrip) {
  for (unsigned lo : {0u, 10u, 54u}) {
    const unsigned hi = lo + 9;
    for (std::uint64_t field : {0ull, 1ull, 0x3FFull, 0x155ull}) {
      const std::uint64_t word = InsertBits(0xAAAA'AAAA'AAAA'AAAAull, hi, lo,
                                            field);
      EXPECT_EQ(ExtractBits(word, hi, lo), field);
    }
  }
}

TEST(BitsTest, InsertBitsPreservesOtherBits) {
  const std::uint64_t base = 0x1234'5678'9ABC'DEF0ull;
  const std::uint64_t word = InsertBits(base, 23, 16, 0xFF);
  EXPECT_EQ(word & ~(0xFFull << 16), base & ~(0xFFull << 16));
}

TEST(BitsTest, SignExtend) {
  EXPECT_EQ(SignExtend(0xFFF, 12), -1);
  EXPECT_EQ(SignExtend(0x7FF, 12), 2047);
  EXPECT_EQ(SignExtend(0x800, 12), -2048);
  EXPECT_EQ(SignExtend(0, 12), 0);
  EXPECT_EQ(SignExtend(0x80, 8), -128);
}

TEST(BitsTest, FitsSigned) {
  EXPECT_TRUE(FitsSigned(2047, 12));
  EXPECT_FALSE(FitsSigned(2048, 12));
  EXPECT_TRUE(FitsSigned(-2048, 12));
  EXPECT_FALSE(FitsSigned(-2049, 12));
  EXPECT_TRUE(FitsSigned(0, 1));
}

TEST(BitsTest, FitsUnsigned) {
  EXPECT_TRUE(FitsUnsigned(1023, 10));
  EXPECT_FALSE(FitsUnsigned(1024, 10));
  EXPECT_TRUE(FitsUnsigned(~0ull, 64));
}

TEST(BitsTest, PowersAndAlignment) {
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(Log2(4096), 12u);
  EXPECT_EQ(AlignDown(4097, 4096), 4096u);
  EXPECT_EQ(AlignUp(4097, 4096), 8192u);
  EXPECT_EQ(AlignUp(4096, 4096), 4096u);
}

TEST(StatusOrTest, RvalueDereferenceMovesTheValueOut) {
  StatusOr<std::unique_ptr<int>> holder(std::make_unique<int>(7));
  std::unique_ptr<int> value = *std::move(holder);
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 7);
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b  "), "a b");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, SplitString) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  auto kept = SplitString("a,b,,c", ',', /*keep_empty=*/true);
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept[2], "");
}

TEST(StringsTest, ParseIntForms) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-42").value(), -42);
  EXPECT_EQ(ParseInt("0x10").value(), 16);
  EXPECT_EQ(ParseInt("0b101").value(), 5);
  EXPECT_EQ(ParseInt(" 7 ").value(), 7);
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("abc").has_value());
  EXPECT_FALSE(ParseInt("0x").has_value());
  EXPECT_FALSE(ParseInt("12x").has_value());
  EXPECT_FALSE(ParseInt("0b2").has_value());
}

TEST(StringsTest, PrefixSuffixAndFormat) {
  EXPECT_TRUE(StartsWith(".rodata.key.7", ".rodata.key."));
  EXPECT_FALSE(StartsWith(".rodata", ".rodata.key."));
  EXPECT_TRUE(EndsWith("a.cpp", ".cpp"));
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const std::int64_t value = rng.NextInRange(-5, 5);
    EXPECT_GE(value, -5);
    EXPECT_LE(value, 5);
    EXPECT_GE(rng.NextDouble(), 0.0);
    EXPECT_LT(rng.NextDouble(), 1.0);
  }
}

TEST(RngTest, WeightedNeverPicksZeroWeight) {
  Rng rng(9);
  const std::vector<unsigned> weights = {3, 0, 5, 0, 1};
  for (int i = 0; i < 500; ++i) {
    const std::size_t pick = rng.NextWeighted(weights);
    EXPECT_NE(pick, 1u);
    EXPECT_NE(pick, 3u);
    EXPECT_LT(pick, weights.size());
  }
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status status = Status::InvalidArgument("bad");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(StatusTest, StatusOrValueAndError) {
  StatusOr<int> value(42);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  StatusOr<int> error(Status::NotFound("missing"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// JSON reader (the counterpart of JsonWriter; what rperf diffs with).

TEST(JsonParseTest, ParsesScalarsObjectsAndArrays) {
  const auto doc = ParseJson(
      R"({"name":"x","n":42,"f":-2.5e2,"flag":true,"none":null,)"
      R"("list":[1,2,3],"nested":{"a":{"b":7}}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->Find("name")->string, "x");
  EXPECT_EQ(doc->Find("n")->number, 42.0);
  EXPECT_EQ(doc->Find("f")->number, -250.0);
  EXPECT_TRUE(doc->Find("flag")->boolean);
  EXPECT_EQ(doc->Find("none")->kind, JsonValue::Kind::kNull);
  ASSERT_TRUE(doc->Find("list")->is_array());
  EXPECT_EQ(doc->Find("list")->array.size(), 3u);
  EXPECT_EQ(doc->Find("nested")->Find("a")->Find("b")->number, 7.0);
  EXPECT_EQ(doc->Find("absent"), nullptr);
}

TEST(JsonParseTest, ParsesStringEscapes) {
  const auto doc = ParseJson(R"({"s":"a\"b\\c\n\tA"})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("s")->string, "a\"b\\c\n\tA");
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
}

TEST(JsonParseTest, FlattenProducesDottedLeaves) {
  const auto doc = ParseJson(
      R"({"schema":"roload.bench.v1","results":{"a.cycles":10,)"
      R"("ok":true,"skip":null,"list":[5,6]}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::vector<JsonLeaf> leaves;
  FlattenJson(*doc, "", &leaves);
  ASSERT_EQ(leaves.size(), 5u);  // null skipped
  EXPECT_EQ(leaves[0].path, "schema");
  EXPECT_FALSE(leaves[0].is_number);
  EXPECT_EQ(leaves[0].text, "roload.bench.v1");
  EXPECT_EQ(leaves[1].path, "results.a.cycles");
  EXPECT_EQ(leaves[1].number, 10.0);
  EXPECT_EQ(leaves[2].path, "results.ok");  // bool flattens as 0/1
  EXPECT_EQ(leaves[2].number, 1.0);
  EXPECT_EQ(leaves[3].path, "results.list.0");
  EXPECT_EQ(leaves[3].number, 5.0);
  EXPECT_EQ(leaves[4].path, "results.list.1");
  EXPECT_EQ(leaves[4].number, 6.0);
}

TEST(JsonParseTest, RoundTripsCounterIntegersExactly) {
  const auto doc = ParseJson("{\"c\":9007199254740991}");  // 2^53 - 1
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(static_cast<std::uint64_t>(doc->Find("c")->number),
            9007199254740991ull);
}

}  // namespace
}  // namespace roload
