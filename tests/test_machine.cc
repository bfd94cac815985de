/**
 * @file
 * Functional-simulator tests: opcode semantics (parameterized sweep),
 * control flow, memory, traps, and the trace records.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "asmr/assembler.hh"
#include "sim/machine.hh"

namespace ppm {
namespace {

/** Assemble + run to halt, returning the machine for inspection. */
Machine
runToHalt(const std::string &src, std::vector<Value> input = {})
{
    static std::vector<std::unique_ptr<Program>> programs;
    programs.push_back(
        std::make_unique<Program>(assemble(src, "t")));
    Machine m(*programs.back(), std::move(input));
    EXPECT_EQ(m.run(nullptr, 100'000), StopReason::Halted);
    return m;
}

// --- parameterized ALU semantics ---------------------------------------

struct AluCase
{
    const char *op;
    std::int64_t a;
    std::int64_t b;
    std::uint64_t expect;
};

/** Prints the case by value ("add(2, 3) = 5"), not as raw bytes. */
void
PrintTo(const AluCase &c, std::ostream *os)
{
    *os << c.op << "(" << c.a << ", " << c.b << ") = " << c.expect;
}

class AluTest : public ::testing::TestWithParam<AluCase>
{
};

TEST_P(AluTest, ComputesExpected)
{
    const AluCase c = GetParam();
    const std::string src = "li $4, " + std::to_string(c.a) +
                            "\nli $5, " + std::to_string(c.b) + "\n" +
                            c.op + " $6, $4, $5\nhalt\n";
    Machine m = runToHalt(src);
    EXPECT_EQ(m.reg(6), c.expect)
        << c.op << " " << c.a << ", " << c.b;
}

/** Operand as a test-name token: '-' is not allowed, so -7 -> m7. */
std::string
nameOperand(std::int64_t v)
{
    return v < 0 ? "m" + std::to_string(v).substr(1) : std::to_string(v);
}

/**
 * Case names built from the case itself ("div_m7_2"), so the names do
 * not depend on where the op strings happen to be loaded.
 */
std::string
aluCaseName(const ::testing::TestParamInfo<AluCase> &info)
{
    const AluCase &c = info.param;
    return std::string(c.op) + "_" + nameOperand(c.a) + "_" +
           nameOperand(c.b);
}

INSTANTIATE_TEST_SUITE_P(
    IntegerOps, AluTest,
    ::testing::Values(
        AluCase{"add", 2, 3, 5},
        AluCase{"add", -1, 1, 0},
        AluCase{"sub", 2, 3, static_cast<std::uint64_t>(-1)},
        AluCase{"mul", 7, -3, static_cast<std::uint64_t>(-21)},
        AluCase{"div", 7, 2, 3},
        AluCase{"div", -7, 2, static_cast<std::uint64_t>(-3)},
        AluCase{"div", 7, 0, ~std::uint64_t(0)},
        AluCase{"div", INT64_MIN, -1,
                static_cast<std::uint64_t>(INT64_MIN)},
        AluCase{"rem", 7, 3, 1},
        AluCase{"rem", 7, 0, 7},
        AluCase{"rem", INT64_MIN, -1, 0},
        AluCase{"and", 0b1100, 0b1010, 0b1000},
        AluCase{"or", 0b1100, 0b1010, 0b1110},
        AluCase{"xor", 0b1100, 0b1010, 0b0110},
        AluCase{"nor", 0, 0, ~std::uint64_t(0)},
        AluCase{"sllv", 1, 12, 4096},
        AluCase{"sllv", 1, 64, 1}, // shift amount masked to 6 bits
        AluCase{"srlv", -8, 1, static_cast<std::uint64_t>(-8) >> 1},
        AluCase{"srav", -8, 1, static_cast<std::uint64_t>(-4)},
        AluCase{"slt", -1, 0, 1},
        AluCase{"slt", 1, 0, 0},
        AluCase{"sltu", -1, 0, 0}, // unsigned: ~0 is huge
        AluCase{"seq", 5, 5, 1},
        AluCase{"sne", 5, 5, 0}),
    aluCaseName);

struct FpCase
{
    const char *op;
    double a;
    double b;
    double expect;
};

void
PrintTo(const FpCase &c, std::ostream *os)
{
    *os << c.op << "(" << c.a << ", " << c.b << ") = " << c.expect;
}

class FpTest : public ::testing::TestWithParam<FpCase>
{
};

TEST_P(FpTest, ComputesExpected)
{
    const FpCase c = GetParam();
    const std::string src =
        "li.d $f1, " + std::to_string(c.a) + "\nli.d $f2, " +
        std::to_string(c.b) + "\n" + c.op + " $f3, $f1, $f2\nhalt\n";
    Machine m = runToHalt(src);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(m.reg(35)), c.expect);
}

/** Each FP op appears once, so its name ("fadd_d") names the case. */
std::string
fpCaseName(const ::testing::TestParamInfo<FpCase> &info)
{
    std::string name = info.param.op;
    std::replace(name.begin(), name.end(), '.', '_');
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    FpOps, FpTest,
    ::testing::Values(FpCase{"fadd.d", 1.5, 2.25, 3.75},
                      FpCase{"fsub.d", 1.0, 0.25, 0.75},
                      FpCase{"fmul.d", 3.0, -2.0, -6.0},
                      FpCase{"fdiv.d", 1.0, 4.0, 0.25},
                      FpCase{"flt.d", 1.0, 2.0,
                             std::bit_cast<double>(Value(1))},
                      FpCase{"fle.d", 2.0, 2.0,
                             std::bit_cast<double>(Value(1))},
                      FpCase{"feq.d", 2.0, 3.0,
                             std::bit_cast<double>(Value(0))}),
    fpCaseName);

TEST(MachineFp, UnaryOps)
{
    Machine m = runToHalt(R"(
        li.d $f1, 9.0
        fsqrt.d $f2, $f1
        fneg.d  $f3, $f1
        li   $4, -5
        cvt.d.l $f5, $4
        cvt.l.d $6, $f5
        halt
)");
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(m.reg(34)), 3.0);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(m.reg(35)), -9.0);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(m.reg(37)), -5.0);
    EXPECT_EQ(m.reg(6), static_cast<Value>(-5));
}

// --- immediates, zero register ------------------------------------------

TEST(Machine, ImmediateForms)
{
    Machine m = runToHalt(R"(
        li   $4, 100
        addi $5, $4, -1
        andi $6, $4, 0x0f
        ori  $7, $0, 0x10
        xori $8, $4, 0xff
        slli $9, $4, 2
        srli $10, $4, 2
        srai $11, $4, 1
        slti $12, $4, 101
        sltiu $13, $4, 5
        lui  $14, 2
        halt
)");
    EXPECT_EQ(m.reg(5), 99u);
    EXPECT_EQ(m.reg(6), 4u);
    EXPECT_EQ(m.reg(7), 0x10u);
    EXPECT_EQ(m.reg(8), 100u ^ 0xffu);
    EXPECT_EQ(m.reg(9), 400u);
    EXPECT_EQ(m.reg(10), 25u);
    EXPECT_EQ(m.reg(11), 50u);
    EXPECT_EQ(m.reg(12), 1u);
    EXPECT_EQ(m.reg(13), 0u);
    EXPECT_EQ(m.reg(14), Value(2) << 16);
}

TEST(Machine, ZeroRegisterIgnoresWrites)
{
    Machine m = runToHalt(R"(
        li  $0, 99
        add $0, $0, $0
        add $4, $0, $0
        halt
)");
    EXPECT_EQ(m.reg(0), 0u);
    EXPECT_EQ(m.reg(4), 0u);
}

// --- memory -----------------------------------------------------------

TEST(Machine, LoadStoreRoundTrip)
{
    Machine m = runToHalt(R"(
        .data
buf:    .space 4
        .text
        la  $4, buf
        li  $5, 12345
        st  $5, 8($4)
        ld  $6, 8($4)
        halt
)");
    EXPECT_EQ(m.reg(6), 12345u);
}

TEST(Machine, DataImageVisible)
{
    Machine m = runToHalt(R"(
        .data
v:      .word 77
        .text
        la $4, v
        ld $5, 0($4)
        halt
)");
    EXPECT_EQ(m.reg(5), 77u);
}

TEST(Machine, InputSegmentMapped)
{
    Machine m = runToHalt(R"(
        la $4, __input
        ld $5, 0($4)
        ld $6, 8($4)
        halt
)",
                          {111, 222});
    EXPECT_EQ(m.reg(5), 111u);
    EXPECT_EQ(m.reg(6), 222u);
}

TEST(Machine, UntouchedMemoryReadsZero)
{
    Machine m = runToHalt(R"(
        li $4, 0x30000000
        ld $5, 0($4)
        halt
)");
    EXPECT_EQ(m.reg(5), 0u);
}

// --- control flow -------------------------------------------------------

TEST(Machine, BranchVariants)
{
    Machine m = runToHalt(R"(
        li   $4, 5
        li   $5, -3
        li   $10, 0
        blt  $5, $4, a        # signed: taken
        li   $10, 1
a:      bltu $5, $4, b        # unsigned: -3 is huge, not taken
        li   $11, 1
b:      bge  $4, $5, c        # taken
        li   $12, 1
c:      bgeu $4, $5, d        # not taken
        li   $13, 1
d:      halt
)");
    EXPECT_EQ(m.reg(10), 0u);
    EXPECT_EQ(m.reg(11), 1u);
    EXPECT_EQ(m.reg(12), 0u);
    EXPECT_EQ(m.reg(13), 1u);
}

TEST(Machine, CallAndReturn)
{
    Machine m = runToHalt(R"(
        li  $4, 1
        jal f
        addi $4, $4, 16       # runs after return
        halt
f:      addi $4, $4, 2
        ret
)");
    EXPECT_EQ(m.reg(4), 19u);
}

TEST(Machine, JalrThroughFunctionPointer)
{
    Machine m = runToHalt(R"(
        la   $5, f
        jalr $31, $5
        addi $4, $4, 100
        halt
f:      li   $4, 7
        ret
)");
    EXPECT_EQ(m.reg(4), 107u);
}

TEST(Machine, InInstruction)
{
    Machine m = runToHalt(R"(
        in $4
        in $5
        halt
)",
                          {42, 43});
    EXPECT_EQ(m.reg(4), 42u);
    EXPECT_EQ(m.reg(5), 43u);
    EXPECT_EQ(m.inputConsumed(), 2u);
}

// --- traps --------------------------------------------------------------

TEST(MachineTraps, MisalignedLoad)
{
    const Program p = assemble("li $4, 3\nld $5, 0($4)\nhalt\n");
    Machine m(p);
    EXPECT_THROW(m.run(nullptr, 10), SimError);
}

TEST(MachineTraps, MisalignedStore)
{
    const Program p = assemble("li $4, 1\nst $4, 0($4)\nhalt\n");
    Machine m(p);
    EXPECT_THROW(m.run(nullptr, 10), SimError);
}

TEST(MachineTraps, WildJumpRegister)
{
    const Program p = assemble("li $4, 12345\njr $4\nhalt\n");
    Machine m(p);
    EXPECT_THROW(m.run(nullptr, 10), SimError);
}

TEST(MachineTraps, InputExhausted)
{
    const Program p = assemble("in $4\nin $5\nhalt\n");
    Machine m(p, {1});
    EXPECT_THROW(m.run(nullptr, 10), SimError);
}

TEST(MachineTraps, RunningOffTheEnd)
{
    const Program p = assemble("nop\n"); // no halt
    Machine m(p);
    EXPECT_THROW(m.run(nullptr, 10), SimError);
}

// --- run control ----------------------------------------------------------

TEST(Machine, MaxInstrsStopsAndResumes)
{
    const Program p = assemble(R"(
        li $4, 0
l:      addi $4, $4, 1
        j l
)");
    Machine m(p);
    EXPECT_EQ(m.run(nullptr, 100), StopReason::MaxInstrs);
    EXPECT_EQ(m.instrCount(), 100u);
    EXPECT_EQ(m.run(nullptr, 100), StopReason::MaxInstrs);
    EXPECT_EQ(m.instrCount(), 200u);
    EXPECT_FALSE(m.halted());
}

TEST(Machine, HaltedStaysHalted)
{
    const Program p = assemble("halt\n");
    Machine m(p);
    EXPECT_EQ(m.run(nullptr, 100), StopReason::Halted);
    EXPECT_EQ(m.instrCount(), 1u);
    EXPECT_EQ(m.run(nullptr, 100), StopReason::Halted);
    EXPECT_EQ(m.instrCount(), 1u);
}

// --- the trace records -------------------------------------------------

class Recorder : public TraceSink
{
  public:
    void
    onInstr(const DynInstr &di) override
    {
        instrs.push_back(di);
    }

    std::vector<DynInstr> instrs;
};

TEST(Trace, LoadRecordShape)
{
    const Program p = assemble(R"(
        .data
v:      .word 9
        .text
        la $4, v
        ld $5, 0($4)
        halt
)");
    Recorder rec;
    Machine m(p);
    m.run(&rec, 10);
    ASSERT_EQ(rec.instrs.size(), 3u);

    const DynInstr &ld = rec.instrs[1];
    EXPECT_TRUE(ld.isPassThrough);
    EXPECT_EQ(ld.passSlot, 1);
    ASSERT_EQ(ld.numInputs, 2);
    EXPECT_EQ(ld.inputs[0].kind, InputKind::Reg);
    EXPECT_EQ(ld.inputs[0].reg, 4);
    EXPECT_EQ(ld.inputs[1].kind, InputKind::Mem);
    EXPECT_EQ(ld.inputs[1].addr, kDataBase);
    EXPECT_EQ(ld.inputs[1].value, 9u);
    EXPECT_TRUE(ld.hasRegOutput);
    EXPECT_EQ(ld.outValue, 9u);
}

TEST(Trace, ZeroRegInputsAreImmediates)
{
    const Program p = assemble("add $4, $0, $0\nhalt\n");
    Recorder rec;
    Machine m(p);
    m.run(&rec, 10);
    const DynInstr &add = rec.instrs[0];
    EXPECT_EQ(add.inputs[0].kind, InputKind::Imm);
    EXPECT_EQ(add.inputs[1].kind, InputKind::Imm);
}

TEST(Trace, BranchRecord)
{
    const Program p = assemble(R"(
        li  $4, 1
        bnez $4, t
        nop
t:      halt
)");
    Recorder rec;
    Machine m(p);
    m.run(&rec, 10);
    const DynInstr &br = rec.instrs[1];
    EXPECT_TRUE(br.isBranch);
    EXPECT_TRUE(br.taken);
    EXPECT_FALSE(br.hasValueOutput());
}

TEST(Trace, StoreRecordShape)
{
    const Program p = assemble(R"(
        li $4, 0x30000000
        li $5, 55
        st $5, 16($4)
        halt
)");
    Recorder rec;
    Machine m(p);
    m.run(&rec, 10);
    const DynInstr &st = rec.instrs[2];
    EXPECT_TRUE(st.hasMemOutput);
    EXPECT_FALSE(st.hasRegOutput);
    EXPECT_EQ(st.outAddr, 0x30000010u);
    EXPECT_EQ(st.outValue, 55u);
    EXPECT_TRUE(st.isPassThrough);
    EXPECT_EQ(st.passSlot, 1);
}

TEST(Trace, InProducesDataOutput)
{
    const Program p = assemble("in $4\nhalt\n");
    Recorder rec;
    Machine m(p, {5});
    m.run(&rec, 10);
    EXPECT_TRUE(rec.instrs[0].outputIsData);
    EXPECT_TRUE(rec.instrs[0].hasRegOutput);
}

} // namespace
} // namespace ppm
