/**
 * @file
 * Tests for the command-line argument helper.
 */

#include <gtest/gtest.h>

#include "support/cli_args.hh"

namespace ppm {
namespace {

CliArgs
make(std::initializer_list<const char *> tokens,
     std::initializer_list<std::string> value_options = {})
{
    std::vector<const char *> argv = {"ppm"};
    argv.insert(argv.end(), tokens.begin(), tokens.end());
    return CliArgs(static_cast<int>(argv.size()), argv.data(),
                   value_options);
}

TEST(CliArgs, Positionals)
{
    const CliArgs args = make({"run", "prog.s"});
    ASSERT_EQ(args.positionals().size(), 2u);
    EXPECT_EQ(args.positionals()[0], "run");
    EXPECT_EQ(args.positionals()[1], "prog.s");
}

TEST(CliArgs, FlagsDoNotConsumePositionals)
{
    const CliArgs args = make({"run", "--trace", "prog.s"});
    EXPECT_TRUE(args.flag("trace"));
    ASSERT_EQ(args.positionals().size(), 2u);
    EXPECT_EQ(args.positionals()[1], "prog.s");
}

TEST(CliArgs, ValueOptionsBothSyntaxes)
{
    const CliArgs args =
        make({"--max", "100", "--predictor=stride"}, {"max"});
    EXPECT_EQ(args.option("max"), "100");
    EXPECT_EQ(args.option("predictor"), "stride");
    EXPECT_EQ(args.intOption("max"), 100);
}

TEST(CliArgs, IntOptionParsesHexAndRejectsGarbage)
{
    const CliArgs args = make({"--max=0x40", "--bad=12x"});
    EXPECT_EQ(args.intOption("max"), 0x40);
    EXPECT_THROW(args.intOption("bad"), std::exception);
}

TEST(CliArgs, MissingOptionIsNullopt)
{
    const CliArgs args = make({"run"});
    EXPECT_FALSE(args.option("max").has_value());
    EXPECT_FALSE(args.intOption("max").has_value());
    EXPECT_FALSE(args.flag("trace"));
}

TEST(CliArgs, FlagWithoutValueThrowsWhenValueRequested)
{
    const CliArgs args = make({"--trace"});
    EXPECT_THROW(args.option("trace"), std::exception);
}

TEST(CliArgs, OptionNamesInArgvOrder)
{
    const CliArgs args = make({"--typo=1", "run", "--used", "2"}, {"used"});
    EXPECT_EQ(args.optionNames(),
              (std::vector<std::string>{"typo", "used"}));
}

} // namespace
} // namespace ppm
