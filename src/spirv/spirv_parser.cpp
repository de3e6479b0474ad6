#include "spirv/spirv_parser.hpp"

#include <map>
#include <optional>
#include <sstream>
#include <fstream>
#include <vector>

#include "litmus/condition_parser.hpp"
#include "support/string_utils.hpp"

namespace gpumc::spirv {

using prog::Instruction;
using prog::MemOrder;
using prog::Opcode;
using prog::Operand;
using prog::Program;
using prog::RmwKind;
using prog::Scope;
using prog::StorageClass;

namespace {

// SPIR-V memory-semantics bits.
constexpr uint32_t kSemAcquire = 0x2;
constexpr uint32_t kSemRelease = 0x4;
constexpr uint32_t kSemAcquireRelease = 0x8;
constexpr uint32_t kSemSeqCst = 0x10;
constexpr uint32_t kSemUniformMemory = 0x40;
constexpr uint32_t kSemWorkgroupMemory = 0x100;
constexpr uint32_t kSemMakeAvailable = 0x2000;
constexpr uint32_t kSemMakeVisible = 0x4000;

// SPIR-V scope values.
enum class SpvScope : uint32_t {
    CrossDevice = 0,
    Device = 1,
    Workgroup = 2,
    Subgroup = 3,
    Invocation = 4,
    QueueFamily = 5,
};

enum class Builtin { None, LocalInvocationIndex, WorkgroupId, GlobalId };

struct SpvVariable {
    std::string name;
    std::optional<StorageClass> storageClass; // nullopt: register-like
    Builtin builtin = Builtin::None;
};

/** One tokenized instruction line: `%res = OpFoo a b ...`. */
struct SpvLine {
    std::string result; // "%res" or empty
    std::string op;
    std::vector<std::string> args;
    SourceLoc loc;
};

struct SpvModule {
    std::map<std::string, int64_t> constants;     // %id -> value
    std::map<std::string, SpvVariable> variables; // %id -> var
    std::map<std::string, std::string> names;     // %id -> OpName
    std::vector<SpvLine> body;                    // function body
    Grid grid;
    std::map<std::string, std::string> meta;
    std::string assertText;
};

Scope
scopeFromSpv(int64_t value, SourceLoc loc)
{
    switch (static_cast<SpvScope>(value)) {
      case SpvScope::CrossDevice:
      case SpvScope::Device:
        return Scope::Dv;
      case SpvScope::Workgroup:
        return Scope::Wg;
      case SpvScope::Subgroup:
        return Scope::Sg;
      case SpvScope::QueueFamily:
        return Scope::Qf;
      default:
        fatalAt(loc, "unsupported SPIR-V scope value ", value);
    }
}

class ModuleParser {
  public:
    explicit ModuleParser(std::string_view source) : source_(source) {}

    void parse()
    {
        std::istringstream in{std::string(source_)};
        std::string raw;
        int lineNo = 0;
        bool inFunction = false;
        while (std::getline(in, raw)) {
            lineNo++;
            std::string_view line = trim(raw);
            if (line.empty())
                continue;
            if (line[0] == ';') {
                parseDirective(line, SourceLoc{lineNo, 1});
                continue;
            }
            SpvLine parsed = tokenize(line, lineNo);
            if (parsed.op.empty())
                continue;
            if (parsed.op == "OpFunction") {
                inFunction = true;
                continue;
            }
            if (parsed.op == "OpFunctionEnd") {
                inFunction = false;
                continue;
            }
            if (inFunction) {
                module_.body.push_back(std::move(parsed));
            } else {
                parseGlobal(parsed);
            }
        }
    }

  private:
    void parseDirective(std::string_view comment, SourceLoc loc)
    {
        auto words = splitWhitespace(comment.substr(1));
        for (size_t i = 0; i < words.size(); ++i) {
            if (words[i] == "@grid" && i + 1 < words.size()) {
                auto parts = split(words[i + 1], '.');
                if (parts.size() == 2 && isInteger(parts[0]) &&
                    isInteger(parts[1])) {
                    module_.grid.threadsPerWorkgroup =
                        parseLiteral<int>(parts[0], loc);
                    module_.grid.workgroups = parseLiteral<int>(parts[1], loc);
                }
            } else if (words[i] == "@expect" || words[i] == "@config") {
                while (i + 1 < words.size()) {
                    auto kv = split(words[i + 1], '=');
                    if (kv.size() != 2)
                        break;
                    module_.meta[kv[0]] = kv[1];
                    ++i;
                }
            } else if (words[i] == "@assert") {
                std::string rest;
                for (size_t j = i + 1; j < words.size(); ++j)
                    rest += words[j] + " ";
                module_.assertText = rest;
                return;
            }
        }
    }

    SpvLine tokenize(std::string_view line, int lineNo)
    {
        // Strip trailing comments.
        size_t sc = line.find(';');
        if (sc != std::string_view::npos)
            line = trim(line.substr(0, sc));
        SpvLine out;
        out.loc = SourceLoc{lineNo, 1};
        std::vector<std::string> words;
        // Handle quoted strings as single tokens.
        std::string cur;
        bool inString = false;
        for (char c : line) {
            if (c == '"') {
                inString = !inString;
                cur += c;
                continue;
            }
            if (!inString && std::isspace(static_cast<unsigned char>(c))) {
                if (!cur.empty())
                    words.push_back(std::move(cur));
                cur.clear();
            } else {
                cur += c;
            }
        }
        if (!cur.empty())
            words.push_back(std::move(cur));
        if (words.empty())
            return out;
        size_t idx = 0;
        if (words.size() >= 3 && words[1] == "=") {
            out.result = words[0];
            idx = 2;
        }
        out.op = words[idx++];
        for (; idx < words.size(); ++idx)
            out.args.push_back(words[idx]);
        return out;
    }

    void parseGlobal(const SpvLine &line)
    {
        if (line.op == "OpName" && line.args.size() == 2) {
            std::string name = line.args[1];
            if (name.size() >= 2 && name.front() == '"')
                name = name.substr(1, name.size() - 2);
            module_.names[line.args[0]] = name;
            return;
        }
        if (line.op == "OpConstant" && line.args.size() >= 2) {
            module_.constants[line.result] =
                parseLiteral(line.args[1], line.loc);
            return;
        }
        if (line.op == "OpConstantTrue") {
            module_.constants[line.result] = 1;
            return;
        }
        if (line.op == "OpConstantFalse") {
            module_.constants[line.result] = 0;
            return;
        }
        if (line.op == "OpVariable" && !line.args.empty()) {
            SpvVariable var;
            const std::string &sc = line.args.size() >= 2 ? line.args[1]
                                                          : line.args[0];
            if (sc == "StorageBuffer" || sc == "Uniform" ||
                sc == "CrossWorkgroup" || sc == "PhysicalStorageBuffer") {
                var.storageClass = StorageClass::Sc0;
            } else if (sc == "Workgroup") {
                var.storageClass = StorageClass::Sc1;
            } else if (sc == "Function" || sc == "Private" ||
                       sc == "Input") {
                var.storageClass = std::nullopt; // register-like
            } else {
                fatalAt(line.loc, "unsupported SPIR-V storage class ", sc);
            }
            auto named = module_.names.find(line.result);
            var.name = named != module_.names.end()
                           ? named->second
                           : "v" + line.result.substr(1);
            module_.variables[line.result] = std::move(var);
            return;
        }
        if (line.op == "OpDecorate" && line.args.size() >= 3 &&
            line.args[1] == "BuiltIn") {
            Builtin builtin = Builtin::None;
            if (line.args[2] == "LocalInvocationIndex")
                builtin = Builtin::LocalInvocationIndex;
            else if (line.args[2] == "WorkgroupId")
                builtin = Builtin::WorkgroupId;
            else if (line.args[2] == "GlobalInvocationIndex" ||
                     line.args[2] == "GlobalInvocationId")
                builtin = Builtin::GlobalId;
            builtins_[line.args[0]] = builtin;
            return;
        }
        // Types, capabilities, entry points, decorations: ignored.
    }

    std::string_view source_;
    SpvModule module_;

  public:
    std::map<std::string, Builtin> builtins_;

    void applyBuiltins()
    {
        for (auto &[id, builtin] : builtins_) {
            auto it = module_.variables.find(id);
            if (it != module_.variables.end())
                it->second.builtin = builtin;
        }
    }

    SpvModule take()
    {
        applyBuiltins();
        return std::move(module_);
    }
};

/** Instantiates the kernel body for one thread. */
class ThreadBuilder {
  public:
    ThreadBuilder(const SpvModule &module, int threadIdx, const Grid &grid)
        : module_(module), threadIdx_(threadIdx), grid_(grid)
    {
    }

    std::vector<Instruction> build()
    {
        for (const SpvLine &line : module_.body)
            translate(line);
        return std::move(out_);
    }

  private:
    [[noreturn]] void unsupported(const SpvLine &line)
    {
        fatalAt(line.loc, "unsupported SPIR-V instruction ", line.op);
    }

    Operand value(const std::string &id, SourceLoc loc)
    {
        auto c = module_.constants.find(id);
        if (c != module_.constants.end())
            return Operand::makeConst(c->second);
        auto v = module_.variables.find(id);
        if (v != module_.variables.end()) {
            // Register-promoted variable.
            if (!v->second.storageClass)
                return Operand::makeReg("fv" + id.substr(1));
            fatalAt(loc, "value use of memory variable ", id);
        }
        return Operand::makeReg("r" + id.substr(1));
    }

    int64_t constantOf(const std::string &id, SourceLoc loc)
    {
        auto c = module_.constants.find(id);
        if (c == module_.constants.end())
            fatalAt(loc, "operand ", id, " must be a constant");
        return c->second;
    }

    const SpvVariable &variable(const std::string &id, SourceLoc loc)
    {
        auto v = module_.variables.find(id);
        if (v == module_.variables.end())
            fatalAt(loc, "unknown variable ", id);
        return v->second;
    }

    MemOrder orderFromSem(uint32_t sem, SourceLoc loc)
    {
        if (sem & kSemSeqCst)
            fatalAt(loc, "Vulkan SPIR-V has no SequentiallyConsistent");
        if (sem & kSemAcquireRelease)
            return MemOrder::AcqRel;
        bool acq = sem & kSemAcquire, rel = sem & kSemRelease;
        if (acq && rel)
            return MemOrder::AcqRel;
        if (acq)
            return MemOrder::Acq;
        if (rel)
            return MemOrder::Rel;
        return MemOrder::Rlx;
    }

    void applySemStorage(Instruction &ins, uint32_t sem)
    {
        ins.semSc0 = (sem & kSemUniformMemory) != 0;
        ins.semSc1 = (sem & kSemWorkgroupMemory) != 0;
        if (!ins.semSc0 && !ins.semSc1)
            ins.semSc0 = true;
        ins.semAv = (sem & kSemMakeAvailable) != 0;
        ins.semVis = (sem & kSemMakeVisible) != 0;
    }

    int64_t builtinValue(Builtin builtin)
    {
        switch (builtin) {
          case Builtin::LocalInvocationIndex:
            return threadIdx_ % grid_.threadsPerWorkgroup;
          case Builtin::WorkgroupId:
            return threadIdx_ / grid_.threadsPerWorkgroup;
          case Builtin::GlobalId:
            return threadIdx_;
          case Builtin::None:
            break;
        }
        GPUMC_PANIC("not a builtin");
    }

    void emit(Instruction ins)
    {
        out_.push_back(std::move(ins));
    }

    void translate(const SpvLine &line)
    {
        const std::string &op = line.op;
        SourceLoc loc = line.loc;

        if (op == "OpLabel") {
            Instruction ins;
            ins.op = Opcode::Label;
            ins.label = "L" + line.result.substr(1);
            ins.loc = loc;
            emit(ins);
            return;
        }
        if (op == "OpBranch") {
            Instruction ins;
            ins.op = Opcode::Goto;
            ins.label = "L" + line.args[0].substr(1);
            ins.loc = loc;
            emit(ins);
            return;
        }
        if (op == "OpBranchConditional") {
            auto cmp = compares_.find(line.args[0]);
            if (cmp == compares_.end())
                fatalAt(loc, "branch condition must come from "
                             "OpIEqual/OpINotEqual");
            Instruction br;
            br.op = cmp->second.equal ? Opcode::BranchEq
                                      : Opcode::BranchNe;
            br.branchLhs = cmp->second.lhs;
            br.branchRhs = cmp->second.rhs;
            br.label = "L" + line.args[1].substr(1);
            br.loc = loc;
            emit(br);
            Instruction gt;
            gt.op = Opcode::Goto;
            gt.label = "L" + line.args[2].substr(1);
            gt.loc = loc;
            emit(gt);
            return;
        }
        if (op == "OpIEqual" || op == "OpINotEqual") {
            compares_[line.result] = {op == "OpIEqual",
                                      value(line.args[1], loc),
                                      value(line.args[2], loc)};
            return;
        }
        if (op == "OpLoad") {
            const SpvVariable &var = variable(line.args[1], loc);
            if (var.builtin != Builtin::None) {
                Instruction ins;
                ins.op = Opcode::Mov;
                ins.dst = "r" + line.result.substr(1);
                ins.src = Operand::makeConst(builtinValue(var.builtin));
                ins.loc = loc;
                emit(ins);
                return;
            }
            if (!var.storageClass) { // register-promoted
                Instruction ins;
                ins.op = Opcode::Mov;
                ins.dst = "r" + line.result.substr(1);
                ins.src = Operand::makeReg("fv" + line.args[1].substr(1));
                ins.loc = loc;
                emit(ins);
                return;
            }
            Instruction ins;
            ins.op = Opcode::Load;
            ins.dst = "r" + line.result.substr(1);
            ins.location = var.name;
            ins.storageClass = var.storageClass;
            ins.loc = loc;
            for (size_t i = 2; i < line.args.size(); ++i) {
                if (line.args[i].find("MakePointerVisible") !=
                    std::string::npos) {
                    ins.visFlag = true;
                }
            }
            emit(ins);
            return;
        }
        if (op == "OpStore") {
            const SpvVariable &var = variable(line.args[0], loc);
            if (!var.storageClass) {
                Instruction ins;
                ins.op = Opcode::Mov;
                ins.dst = "fv" + line.args[0].substr(1);
                ins.src = value(line.args[1], loc);
                ins.loc = loc;
                emit(ins);
                return;
            }
            Instruction ins;
            ins.op = Opcode::Store;
            ins.location = var.name;
            ins.src = value(line.args[1], loc);
            ins.storageClass = var.storageClass;
            ins.loc = loc;
            for (size_t i = 2; i < line.args.size(); ++i) {
                if (line.args[i].find("MakePointerAvailable") !=
                    std::string::npos) {
                    ins.avFlag = true;
                }
            }
            emit(ins);
            return;
        }
        if (op == "OpAtomicLoad" || op == "OpAtomicStore" ||
            op == "OpAtomicIAdd" || op == "OpAtomicExchange" ||
            op == "OpAtomicCompareExchange") {
            translateAtomic(line);
            return;
        }
        if (op == "OpControlBarrier") {
            int64_t execScope = constantOf(line.args[0], loc);
            int64_t memScope = constantOf(line.args[1], loc);
            uint32_t sem = static_cast<uint32_t>(
                constantOf(line.args[2], loc));
            MemOrder order = orderFromSem(sem, loc);
            Instruction relF, acqF;
            relF.op = Opcode::Fence;
            relF.atomic = true;
            relF.order = MemOrder::Rel;
            relF.scope = scopeFromSpv(memScope, loc);
            relF.loc = loc;
            applySemStorage(relF, sem);
            acqF = relF;
            acqF.order = MemOrder::Acq;
            if (order == MemOrder::Rel || order == MemOrder::AcqRel)
                emit(relF);
            Instruction bar;
            bar.op = Opcode::Barrier;
            bar.scope = scopeFromSpv(execScope, loc);
            // Barriers at the same program point share a logical id.
            bar.barrierId = Operand::makeConst(barrierCounter_++);
            bar.loc = loc;
            emit(bar);
            if (order == MemOrder::Acq || order == MemOrder::AcqRel)
                emit(acqF);
            return;
        }
        if (op == "OpMemoryBarrier") {
            int64_t memScope = constantOf(line.args[0], loc);
            uint32_t sem = static_cast<uint32_t>(
                constantOf(line.args[1], loc));
            Instruction ins;
            ins.op = Opcode::Fence;
            ins.atomic = true;
            ins.order = orderFromSem(sem, loc);
            ins.scope = scopeFromSpv(memScope, loc);
            ins.loc = loc;
            applySemStorage(ins, sem);
            emit(ins);
            return;
        }
        if (op == "OpIAdd" || op == "OpISub") {
            Instruction ins;
            ins.op = Opcode::AddReg;
            ins.dst = "r" + line.result.substr(1);
            ins.branchLhs = value(line.args[1], loc);
            Operand rhs = value(line.args[2], loc);
            if (op == "OpISub") {
                if (rhs.isReg())
                    fatalAt(loc, "OpISub needs a constant rhs");
                rhs.value = -rhs.value;
            }
            ins.src = rhs;
            ins.loc = loc;
            emit(ins);
            return;
        }
        if (op == "OpCopyObject") {
            Instruction ins;
            ins.op = Opcode::Mov;
            ins.dst = "r" + line.result.substr(1);
            ins.src = value(line.args[1], loc);
            ins.loc = loc;
            emit(ins);
            return;
        }
        if (op == "OpReturn" || op == "OpSelectionMerge" ||
            op == "OpLoopMerge" || op == "OpNop" || op == "OpUndef") {
            return;
        }
        unsupported(line);
    }

    void translateAtomic(const SpvLine &line)
    {
        SourceLoc loc = line.loc;
        const std::string &op = line.op;
        bool isStore = op == "OpAtomicStore";
        // OpAtomicStore: ptr scope sem value (no result / type arg).
        // Others: <type> ptr scope sem [sem2] [value ...]
        size_t base = isStore ? 0 : 1;
        const SpvVariable &var = variable(line.args[base + 0], loc);
        if (!var.storageClass)
            fatalAt(loc, "atomic on register-promoted variable");
        int64_t scope = constantOf(line.args[base + 1], loc);
        uint32_t sem = static_cast<uint32_t>(
            constantOf(line.args[base + 2], loc));

        Instruction ins;
        ins.atomic = true;
        ins.location = var.name;
        ins.storageClass = var.storageClass;
        ins.scope = scopeFromSpv(scope, loc);
        ins.order = orderFromSem(sem, loc);
        ins.semAv = (sem & kSemMakeAvailable) != 0;
        ins.semVis = (sem & kSemMakeVisible) != 0;
        ins.loc = loc;

        if (op == "OpAtomicLoad") {
            ins.op = Opcode::Load;
            ins.dst = "r" + line.result.substr(1);
        } else if (op == "OpAtomicStore") {
            ins.op = Opcode::Store;
            ins.src = value(line.args[3], loc);
        } else if (op == "OpAtomicIAdd" || op == "OpAtomicExchange") {
            ins.op = Opcode::Rmw;
            ins.rmwKind = op == "OpAtomicIAdd" ? RmwKind::Add
                                               : RmwKind::Exchange;
            ins.dst = "r" + line.result.substr(1);
            ins.src = value(line.args[4], loc);
        } else { // OpAtomicCompareExchange: ptr scope semEq semNeq val cmp
            ins.op = Opcode::Rmw;
            ins.rmwKind = RmwKind::Cas;
            ins.dst = "r" + line.result.substr(1);
            ins.src2 = value(line.args[5], loc); // new value
            ins.src = value(line.args[6], loc);  // comparator
        }
        emit(ins);
    }

    struct Compare {
        bool equal;
        Operand lhs, rhs;
    };

    const SpvModule &module_;
    int threadIdx_;
    Grid grid_;
    std::vector<Instruction> out_;
    std::map<std::string, Compare> compares_;
    int barrierCounter_ = 0;
};

} // namespace

prog::Program
loadSpirvProgram(std::string_view source, const Grid *gridOverride)
{
    ModuleParser parser(source);
    parser.parse();
    SpvModule module = parser.take();
    Grid grid = gridOverride ? *gridOverride : module.grid;

    Program program;
    program.arch = prog::Arch::Vulkan;
    program.meta = module.meta;

    for (const auto &[id, var] : module.variables) {
        (void)id;
        if (!var.storageClass || var.builtin != Builtin::None)
            continue;
        prog::VarDecl decl;
        decl.name = var.name;
        decl.storageClass = *var.storageClass;
        program.vars.push_back(std::move(decl));
    }

    for (int t = 0; t < grid.totalThreads(); ++t) {
        prog::Thread thread;
        thread.name = "P" + std::to_string(t);
        thread.placement.sg = 0;
        thread.placement.wg = t / grid.threadsPerWorkgroup;
        thread.placement.qf = 0;
        thread.instrs = ThreadBuilder(module, t, grid).build();
        program.threads.push_back(std::move(thread));
    }

    if (!module.assertText.empty()) {
        std::string text(trim(module.assertText));
        prog::AssertKind kind = prog::AssertKind::Exists;
        if (startsWith(text, "~exists")) {
            kind = prog::AssertKind::NotExists;
            text = text.substr(7);
        } else if (startsWith(text, "forall")) {
            kind = prog::AssertKind::Forall;
            text = text.substr(6);
        } else if (startsWith(text, "exists")) {
            text = text.substr(6);
        }
        std::string_view inner = trim(text);
        if (!inner.empty() && inner.front() == '(' && inner.back() == ')')
            inner = inner.substr(1, inner.size() - 2);
        program.assertKind = kind;
        program.assertion = litmus::parseCondition(inner);
    }

    program.validate();
    return program;
}

prog::Program
loadSpirvFile(const std::string &path, const Grid *gridOverride)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open SPIR-V file: ", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    prog::Program program = loadSpirvProgram(buf.str(), gridOverride);
    if (program.name.empty()) {
        size_t slash = path.find_last_of('/');
        program.name = path.substr(slash == std::string::npos ? 0
                                                              : slash + 1);
    }
    return program;
}

} // namespace gpumc::spirv
