#include "litmus/condition_parser.hpp"

#include <cctype>

#include "support/diagnostics.hpp"
#include "support/string_utils.hpp"

namespace gpumc::litmus {

using prog::Cond;
using prog::CondPtr;
using prog::CondTerm;

namespace {

class CondParser {
  public:
    explicit CondParser(std::string_view text) : text_(text) {}

    CondPtr parse()
    {
        CondPtr c = parseOr();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters in condition");
        return c;
    }

  private:
    [[noreturn]] void fail(const std::string &msg)
    {
        fatal("condition parse error: ", msg, " in '", std::string(text_),
              "' at offset ", pos_);
    }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            pos_++;
        }
    }

    bool tryConsume(std::string_view tok)
    {
        skipSpace();
        if (text_.substr(pos_).substr(0, tok.size()) == tok) {
            pos_ += tok.size();
            return true;
        }
        return false;
    }

    char peek()
    {
        skipSpace();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    CondPtr parseOr()
    {
        CondPtr lhs = parseAnd();
        while (tryConsume("\\/"))
            lhs = Cond::mkOr(std::move(lhs), parseAnd());
        return lhs;
    }

    CondPtr parseAnd()
    {
        CondPtr lhs = parseAtom();
        while (tryConsume("/\\"))
            lhs = Cond::mkAnd(std::move(lhs), parseAtom());
        return lhs;
    }

    CondPtr parseAtom()
    {
        if (tryConsume("~"))
            return Cond::mkNot(parseAtom());
        if (tryConsume("(")) {
            CondPtr inner = parseOr();
            if (!tryConsume(")"))
                fail("expected ')'");
            return inner;
        }
        if (tryConsume("true"))
            return Cond::mkTrue();

        CondTerm lhs = parseTerm();
        bool equal;
        if (tryConsume("==") || tryConsume("=")) {
            equal = true;
        } else if (tryConsume("!=")) {
            equal = false;
        } else {
            fail("expected '==' or '!='");
        }
        CondTerm rhs = parseTerm();
        return Cond::mkCmp(equal, std::move(lhs), std::move(rhs));
    }

    CondTerm parseTerm()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("expected a term");
        char c = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
            size_t start = pos_;
            if (c == '-')
                pos_++;
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                pos_++;
            }
            std::string_view literal = text_.substr(start, pos_ - start);
            std::optional<int64_t> value = parseInt(literal);
            if (!value)
                fail("bad integer literal '" + std::string(literal) + "'");
            return CondTerm::makeConst(*value);
        }
        if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_')
            fail("expected a term");
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
            pos_++;
        }
        std::string name(text_.substr(start, pos_ - start));
        // Thread-register reference: P<k>:reg
        if (pos_ < text_.size() && text_[pos_] == ':') {
            if (name.size() < 2 || name[0] != 'P' ||
                !isInteger(std::string_view(name).substr(1))) {
                fail("expected P<k> before ':'");
            }
            pos_++; // ':'
            size_t rstart = pos_;
            while (pos_ < text_.size() &&
                   (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                    text_[pos_] == '_')) {
                pos_++;
            }
            if (pos_ == rstart)
                fail("expected register name after ':'");
            std::optional<int64_t> thread =
                parseInt(std::string_view(name).substr(1));
            if (!thread || *thread > std::numeric_limits<int>::max())
                fail("bad thread index in '" + name + "'");
            return CondTerm::makeReg(
                static_cast<int>(*thread),
                std::string(text_.substr(rstart, pos_ - rstart)));
        }
        return CondTerm::makeMem(std::move(name));
    }

    std::string_view text_;
    size_t pos_ = 0;
};

} // namespace

CondPtr
parseCondition(std::string_view text)
{
    return CondParser(text).parse();
}

} // namespace gpumc::litmus
