#include "litmus/litmus_parser.hpp"

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

#include "litmus/condition_parser.hpp"
#include "litmus/ptx_dialect.hpp"
#include "litmus/vulkan_dialect.hpp"
#include "support/string_utils.hpp"

namespace gpumc::litmus {

using prog::Arch;
using prog::Instruction;
using prog::Opcode;
using prog::Program;
using prog::StorageClass;
using prog::Thread;
using prog::VarDecl;

namespace {

/**
 * Collect `@expect key=value` / `@config key=value` directives from
 * comments, then strip all comments, preserving line structure.
 */
std::string
stripComments(std::string_view src, std::map<std::string, std::string> &meta)
{
    std::string out;
    out.reserve(src.size());
    size_t i = 0;
    int depth = 0;
    std::string commentText;
    while (i < src.size()) {
        if (src[i] == '(' && i + 1 < src.size() && src[i + 1] == '*') {
            depth++;
            i += 2;
            continue;
        }
        if (depth > 0 && src[i] == '*' && i + 1 < src.size() &&
            src[i + 1] == ')') {
            depth--;
            i += 2;
            continue;
        }
        if (depth == 0 && src[i] == '/' && i + 1 < src.size() &&
            src[i + 1] == '/') {
            while (i < src.size() && src[i] != '\n')
                commentText += src[i++];
            commentText += '\n';
            continue;
        }
        if (depth > 0) {
            commentText += src[i];
            if (src[i] == '\n')
                out += '\n'; // keep line numbers stable
            i++;
            continue;
        }
        out += src[i++];
    }

    // Scan collected comment text for directives.
    std::istringstream lines(commentText);
    std::string line;
    while (std::getline(lines, line)) {
        auto words = splitWhitespace(line);
        for (size_t w = 0; w < words.size(); ++w) {
            if (words[w] != "@expect" && words[w] != "@config")
                continue;
            // Consume every following key=value word.
            while (w + 1 < words.size()) {
                auto kv = split(words[w + 1], '=');
                if (kv.size() != 2)
                    break;
                meta[kv[0]] = kv[1];
                ++w;
            }
        }
    }
    return out;
}

class StructParser {
  public:
    explicit StructParser(std::string text) : text_(std::move(text)) {}

    Program parse()
    {
        Program program;
        program.meta = meta_;

        parseHeader(program);
        parsePrelude(program);
        parseThreadBlock(program);
        parseConditions(program);
        autoDeclareVariables(program);

        program.validate();
        return program;
    }

    std::map<std::string, std::string> meta_;

  private:
    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            if (text_[pos_] == '\n')
                line_++;
            pos_++;
        }
    }

    SourceLoc here() const { return SourceLoc{line_, 1}; }

    bool atEnd()
    {
        skipSpace();
        return pos_ >= text_.size();
    }

    /** Peek the next whitespace-delimited word without consuming. */
    std::string peekWord()
    {
        skipSpace();
        size_t p = pos_;
        std::string out;
        while (p < text_.size() &&
               !std::isspace(static_cast<unsigned char>(text_[p])) &&
               text_[p] != '(' && text_[p] != '{') {
            out += text_[p++];
        }
        return out;
    }

    std::string takeWord()
    {
        std::string w = peekWord();
        skipSpace();
        pos_ += w.size();
        return w;
    }

    /** Read raw text until (and excluding) the given character. */
    std::string takeUntil(char stop)
    {
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != stop) {
            if (text_[pos_] == '\n')
                line_++;
            out += text_[pos_++];
        }
        if (pos_ >= text_.size())
            fatalAt(here(), "unexpected end of litmus test (missing '",
                    stop, "')");
        pos_++; // consume stop
        return out;
    }

    /** Read a balanced parenthesized group; returns the inner text. */
    std::string takeParenGroup()
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != '(')
            fatalAt(here(), "expected '('");
        pos_++;
        int depth = 1;
        std::string out;
        while (pos_ < text_.size() && depth > 0) {
            char c = text_[pos_++];
            if (c == '\n')
                line_++;
            if (c == '(')
                depth++;
            if (c == ')') {
                depth--;
                if (depth == 0)
                    break;
            }
            out += c;
        }
        if (depth != 0)
            fatalAt(here(), "unbalanced parentheses in condition");
        return out;
    }

    void parseHeader(Program &program)
    {
        std::string archWord = toLower(takeWord());
        if (archWord == "ptx") {
            program.arch = Arch::Ptx;
        } else if (archWord == "vulkan") {
            program.arch = Arch::Vulkan;
        } else {
            fatalAt(here(), "litmus test must start with PTX or VULKAN, ",
                    "found '", archWord, "'");
        }
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '"') {
            pos_++;
            program.name = takeUntil('"');
        }
    }

    void parsePrelude(Program &program)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != '{')
            return;
        pos_++;
        std::string body = takeUntil('}');
        for (const std::string &stmtRaw : split(body, ';')) {
            std::string stmt(trim(stmtRaw));
            if (stmt.empty())
                continue;
            parsePreludeStmt(program, stmt);
        }
    }

    /**
     * Prelude statements:
     *   x = 3         initial value
     *   s -> x        s aliases x (same physical location)
     *   y @ sc1       storage class (Vulkan)
     * Clauses combine: "s -> x @ sc1".
     */
    void parsePreludeStmt(Program &program, const std::string &stmt)
    {
        auto words = splitWhitespace(stmt);
        if (words.empty())
            return;
        VarDecl decl;
        decl.name = words[0];
        for (size_t i = 1; i < words.size();) {
            if (words[i] == "=" && i + 1 < words.size()) {
                if (!isInteger(words[i + 1]))
                    fatalAt(here(), "bad initial value for ", decl.name);
                decl.init = parseLiteral(words[i + 1], here());
                i += 2;
            } else if (words[i] == "->" && i + 1 < words.size()) {
                decl.aliasOf = words[i + 1];
                i += 2;
            } else if (words[i] == "@" && i + 1 < words.size()) {
                if (words[i + 1] == "sc0") {
                    decl.storageClass = StorageClass::Sc0;
                } else if (words[i + 1] == "sc1") {
                    decl.storageClass = StorageClass::Sc1;
                } else {
                    fatalAt(here(), "unknown storage class ", words[i + 1]);
                }
                i += 2;
            } else {
                fatalAt(here(), "bad prelude clause near '", words[i],
                        "' for variable ", decl.name);
            }
        }
        program.vars.push_back(std::move(decl));
    }

    bool nextIsConditionKeyword()
    {
        std::string w = toLower(peekWord());
        return w == "exists" || w == "~exists" || w == "forall" ||
               w == "filter";
    }

    void parseThreadBlock(Program &program)
    {
        // Header row.
        std::string headerRow = takeUntil(';');
        std::vector<std::string> headers = split(headerRow, '|');
        for (const std::string &h : headers) {
            program.threads.push_back(
                parseThreadHeader(trim(h), program.threads.size()));
        }

        // Instruction rows until a condition keyword.
        while (!atEnd() && !nextIsConditionKeyword()) {
            SourceLoc rowLoc = here();
            std::string row = takeUntil(';');
            std::vector<std::string> cells = split(row, '|');
            if (cells.size() > program.threads.size()) {
                fatalAt(rowLoc, "row has ", cells.size(),
                        " columns but there are ", program.threads.size(),
                        " threads");
            }
            for (size_t col = 0; col < cells.size(); ++col)
                parseCell(program, static_cast<int>(col), cells[col],
                          rowLoc);
        }
    }

    /** Conditions name a thread by its column (`P1:r0` is column 1),
     *  so column @p index must be headed `P<index>`. */
    Thread parseThreadHeader(std::string_view header, size_t index)
    {
        Thread thread;
        size_t at = header.find('@');
        thread.name = std::string(trim(header.substr(0, at)));
        if (thread.name != "P" + std::to_string(index))
            fatalAt(here(), "thread column ", index, " must be named P",
                    index, ", got '", thread.name, "'");
        if (at == std::string_view::npos)
            return thread;
        for (const std::string &itemRaw :
             split(header.substr(at + 1), ',')) {
            auto words = splitWhitespace(itemRaw);
            if (words.size() == 1 && words[0] == "ssw") {
                thread.placement.ssw = true;
                continue;
            }
            if (words.size() != 2 || !isInteger(words[1])) {
                fatalAt(here(), "bad placement clause '", itemRaw,
                        "' in thread header");
            }
            int value = parseLiteral<int>(words[1], here());
            const std::string &key = words[0];
            if (key == "cta") {
                thread.placement.cta = value;
            } else if (key == "gpu") {
                thread.placement.gpu = value;
            } else if (key == "sg") {
                thread.placement.sg = value;
            } else if (key == "wg") {
                thread.placement.wg = value;
            } else if (key == "qf") {
                thread.placement.qf = value;
            } else {
                fatalAt(here(), "unknown placement key '", key, "'");
            }
        }
        return thread;
    }

    void parseCell(Program &program, int col, std::string_view cellRaw,
                   SourceLoc loc)
    {
        std::string cell(trim(cellRaw));
        if (cell.empty())
            return;
        // Bare label?
        if (cell.back() == ':' &&
            cell.find_first_of(" \t") == std::string::npos) {
            Instruction ins;
            ins.op = Opcode::Label;
            ins.label = cell.substr(0, cell.size() - 1);
            ins.loc = loc;
            program.threads[col].instrs.push_back(std::move(ins));
            return;
        }
        std::vector<Instruction> parsed =
            program.arch == Arch::Ptx ? parsePtxInstruction(cell, loc)
                                      : parseVulkanInstruction(cell, loc);
        for (Instruction &ins : parsed)
            program.threads[col].instrs.push_back(std::move(ins));
    }

    void parseConditions(Program &program)
    {
        while (!atEnd()) {
            std::string keyword = toLower(takeWord());
            if (keyword == "filter") {
                program.filter = parseCondition(takeParenGroup());
            } else if (keyword == "exists" || keyword == "~exists" ||
                       keyword == "forall") {
                program.assertKind =
                    keyword == "exists" ? prog::AssertKind::Exists
                    : keyword == "~exists" ? prog::AssertKind::NotExists
                                           : prog::AssertKind::Forall;
                program.assertion = parseCondition(takeParenGroup());
            } else {
                fatalAt(here(), "expected filter/exists/~exists/forall, ",
                        "found '", keyword, "'");
            }
        }
    }

    /** Variables used by instructions but not declared default to 0. */
    void autoDeclareVariables(Program &program)
    {
        std::set<std::string> declared;
        for (const VarDecl &v : program.vars)
            declared.insert(v.name);
        for (const Thread &t : program.threads) {
            for (const Instruction &ins : t.instrs) {
                if (ins.isMemoryAccess() && !declared.count(ins.location)) {
                    declared.insert(ins.location);
                    VarDecl decl;
                    decl.name = ins.location;
                    program.vars.push_back(std::move(decl));
                }
            }
        }
    }

    std::string text_;
    size_t pos_ = 0;
    int line_ = 1;
};

} // namespace

Program
parseLitmus(std::string_view source)
{
    std::map<std::string, std::string> meta;
    std::string stripped = stripComments(source, meta);
    StructParser parser(std::move(stripped));
    parser.meta_ = std::move(meta);
    return parser.parse();
}

Program
parseLitmusFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open litmus file: ", path);
    std::ostringstream buf;
    buf << in.rdbuf();
    Program program = parseLitmus(buf.str());
    if (program.name.empty()) {
        size_t slash = path.find_last_of('/');
        program.name = path.substr(slash == std::string::npos ? 0
                                                              : slash + 1);
    }
    return program;
}

} // namespace gpumc::litmus
