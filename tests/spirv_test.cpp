/**
 * @file
 * Tests for the SPIR-V front-end: module parsing, thread
 * instantiation, builtins, barriers, memory semantics — and
 * end-to-end verification of the shipped .spvasm kernels against
 * their @expect directives.
 */

#include <filesystem>
#include <gtest/gtest.h>

#include "spirv/spirv_parser.hpp"
#include "tests/test_util.hpp"

namespace gpumc::test {
namespace {

namespace fs = std::filesystem;

TEST(SpirvParser, InstantiatesThreadsFromGrid)
{
    const char *kernel = R"(
; @grid 2.2
OpName %x "x"
%uint = OpTypeInt 32 0
%uint_1 = OpConstant %uint 1
%ptr = OpTypePointer StorageBuffer %uint
%x = OpVariable %ptr StorageBuffer
%void = OpTypeVoid
%main = OpFunction %void None %fn
%entry = OpLabel
OpStore %x %uint_1
OpReturn
OpFunctionEnd
)";
    prog::Program p = spirv::loadSpirvProgram(kernel);
    EXPECT_EQ(p.arch, prog::Arch::Vulkan);
    ASSERT_EQ(p.numThreads(), 4);
    EXPECT_EQ(p.threads[0].placement.wg, 0);
    EXPECT_EQ(p.threads[2].placement.wg, 1);
    EXPECT_EQ(p.varIndex("x"), 0);
    EXPECT_EQ(p.threads[3].instrs.size(), 2u); // label + store
}

TEST(SpirvParser, BuiltinsAndFunctionVarsArePromoted)
{
    const char *kernel = R"(
; @grid 2.1
OpDecorate %lid BuiltIn LocalInvocationIndex
OpName %g "g"
%uint = OpTypeInt 32 0
%uint_3 = OpConstant %uint 3
%ptr = OpTypePointer StorageBuffer %uint
%fptr = OpTypePointer Function %uint
%inptr = OpTypePointer Input %uint
%g = OpVariable %ptr StorageBuffer
%lid = OpVariable %inptr Input
%tmp = OpVariable %fptr Function
%void = OpTypeVoid
%main = OpFunction %void None %fn
%entry = OpLabel
%5 = OpLoad %uint %lid
OpStore %tmp %5
%6 = OpLoad %uint %tmp
OpStore %g %6
OpReturn
OpFunctionEnd
)";
    prog::Program p = spirv::loadSpirvProgram(kernel);
    // Only %g is a real shared variable; %tmp became registers.
    EXPECT_EQ(p.numVars(), 1);
    // Thread 1 stores its local invocation index (1).
    bool foundStoreOfReg = false;
    for (const prog::Instruction &ins : p.threads[1].instrs) {
        if (ins.op == prog::Opcode::Store && ins.location == "g")
            foundStoreOfReg = ins.src.isReg();
    }
    EXPECT_TRUE(foundStoreOfReg);
}

TEST(SpirvParser, ControlBarrierExpands)
{
    const char *kernel = R"(
; @grid 2.1
OpName %x "x"
%uint = OpTypeInt 32 0
%uint_2 = OpConstant %uint 2
%uint_72 = OpConstant %uint 72
%ptr = OpTypePointer StorageBuffer %uint
%x = OpVariable %ptr StorageBuffer
%void = OpTypeVoid
%main = OpFunction %void None %fn
%entry = OpLabel
OpControlBarrier %uint_2 %uint_2 %uint_72
OpReturn
OpFunctionEnd
)";
    prog::Program p = spirv::loadSpirvProgram(kernel);
    // AcquireRelease (8) | WorkgroupMemory? 72 = 8 | 64 (UniformMemory):
    // release fence + barrier + acquire fence.
    std::vector<prog::Opcode> ops;
    for (const prog::Instruction &ins : p.threads[0].instrs)
        ops.push_back(ins.op);
    EXPECT_EQ(ops, (std::vector<prog::Opcode>{
                       prog::Opcode::Label, prog::Opcode::Fence,
                       prog::Opcode::Barrier, prog::Opcode::Fence}));
    EXPECT_EQ(p.threads[0].instrs[1].order, prog::MemOrder::Rel);
    EXPECT_TRUE(p.threads[0].instrs[1].semSc0);
    EXPECT_EQ(p.threads[0].instrs[3].order, prog::MemOrder::Acq);
}

TEST(SpirvParser, RejectsUnsupported)
{
    EXPECT_THROW(spirv::loadSpirvProgram(R"(
%void = OpTypeVoid
%main = OpFunction %void None %fn
%e = OpLabel
%1 = OpPhi %void %a %b
OpReturn
OpFunctionEnd
)"),
                 FatalError);
}

TEST(SpirvParser, BadIntegerLiteralsAreInputErrors)
{
    auto kernel = [](const std::string &grid, const std::string &one) {
        return "; @grid " + grid + R"(
OpName %x "x"
%uint = OpTypeInt 32 0
%uint_1 = OpConstant %uint )" + one + R"(
%ptr = OpTypePointer StorageBuffer %uint
%x = OpVariable %ptr StorageBuffer
%void = OpTypeVoid
%main = OpFunction %void None %fn
%entry = OpLabel
OpStore %x %uint_1
OpReturn
OpFunctionEnd
)";
    };
    EXPECT_NO_THROW(spirv::loadSpirvProgram(kernel("2.2", "1")));
    EXPECT_THROW(spirv::loadSpirvProgram(kernel("2.2", "one")), FatalError);
    EXPECT_THROW(
        spirv::loadSpirvProgram(kernel("2.2", "99999999999999999999")),
        FatalError);
    EXPECT_THROW(spirv::loadSpirvProgram(kernel("99999999999.2", "1")),
                 FatalError);
}

TEST(SpirvCorpus, MeetsExpectations)
{
    int checked = 0;
    for (const auto &entry :
         fs::directory_iterator(std::string(GPUMC_LITMUS_DIR) +
                                "/spirv")) {
        if (entry.path().extension() != ".spvasm")
            continue;
        prog::Program p = spirv::loadSpirvFile(entry.path().string());
        core::VerifierOptions options;
        options.validateWitness = true;
        core::Verifier verifier(p, vulkanModel(), options);

        auto expect = [&](const char *key) -> std::string {
            auto it = p.meta.find(key);
            return it == p.meta.end() ? "" : it->second;
        };
        std::string safety = expect("safety");
        if (!safety.empty()) {
            EXPECT_EQ(verifier.checkSafety().holds, safety == "holds")
                << entry.path();
            checked++;
        }
        std::string drf = expect("drf");
        if (!drf.empty()) {
            EXPECT_EQ(verifier.checkCatSpec().holds, drf == "racefree")
                << entry.path();
            checked++;
        }
        std::string liveness = expect("liveness");
        if (!liveness.empty()) {
            EXPECT_EQ(verifier.checkLiveness().holds, liveness == "live")
                << entry.path();
            checked++;
        }
    }
    EXPECT_GE(checked, 6) << "SPIR-V corpus missing expectations";
}

} // namespace
} // namespace gpumc::test
