//===- tests/support/StringUtilsTest.cpp ----------------------------------===//

#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace temos;

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nhi\r "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("nochange"), "nochange");
}

TEST(StringUtils, Split) {
  auto Pieces = split("a,b,,c", ',');
  ASSERT_EQ(Pieces.size(), 4u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "b");
  EXPECT_EQ(Pieces[2], "");
  EXPECT_EQ(Pieces[3], "c");

  auto SingleItem = split("solo", ',');
  ASSERT_EQ(SingleItem.size(), 1u);
  EXPECT_EQ(SingleItem[0], "solo");
}

TEST(StringUtils, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"one"}, ", "), "one");
}

TEST(StringUtils, SplitJoinRoundTrip) {
  std::string Text = "x|y|z";
  EXPECT_EQ(join(split(Text, '|'), "|"), Text);
}

TEST(StringUtils, FileSafeName) {
  EXPECT_EQ(fileSafeName("Round Robin"), "Round_Robin");
  EXPECT_EQ(fileSafeName("a-b_c.d/e"), "a-b_c_d_e");
}
