#include "util/cli.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/logging.hpp"

namespace copra {

OptionParser::OptionParser(std::string description)
    : description_(std::move(description))
{
}

void
OptionParser::addInt(const std::string &name, int64_t *target,
                     const std::string &help)
{
    options_.push_back({name, Kind::Int, target, help});
}

void
OptionParser::addUint(const std::string &name, uint64_t *target,
                      const std::string &help, uint64_t max)
{
    options_.push_back({name, Kind::Uint, target, help, max});
}

void
OptionParser::addDouble(const std::string &name, double *target,
                        const std::string &help)
{
    options_.push_back({name, Kind::Double, target, help});
}

void
OptionParser::addString(const std::string &name, std::string *target,
                        const std::string &help)
{
    options_.push_back({name, Kind::String, target, help});
}

void
OptionParser::addFlag(const std::string &name, bool *target,
                      const std::string &help)
{
    options_.push_back({name, Kind::Flag, target, help});
}

const OptionParser::Option *
OptionParser::find(const std::string &name) const
{
    for (const auto &opt : options_)
        if (opt.name == name)
            return &opt;
    return nullptr;
}

void
OptionParser::apply(const Option &opt, const std::string &value) const
{
    // std::sto* stop at the first character they cannot use, and stoull
    // wraps a leading '-'; a number must use the whole value and an
    // unsigned one carries no sign.
    auto invalid = [&] {
        fatal("invalid value '" + value + "' for option --" + opt.name);
    };
    size_t used = 0;
    try {
        switch (opt.kind) {
          case Kind::Int:
            *static_cast<int64_t *>(opt.target) = std::stoll(value, &used);
            break;
          case Kind::Uint:
            {
                if (value.find('-') != std::string::npos)
                    invalid();
                uint64_t v = std::stoull(value, &used);
                if (v > opt.max)
                    invalid();
                *static_cast<uint64_t *>(opt.target) = v;
            }
            break;
          case Kind::Double:
            *static_cast<double *>(opt.target) = std::stod(value, &used);
            break;
          case Kind::String:
            *static_cast<std::string *>(opt.target) = value;
            return;
          case Kind::Flag:
            *static_cast<bool *>(opt.target) =
                !(value == "false" || value == "0" || value == "no");
            return;
        }
    } catch (const std::exception &) {
        invalid();
    }
    if (used != value.size())
        invalid();
}

void
OptionParser::printHelp(const std::string &prog) const
{
    std::printf("%s\n\nusage: %s [options]\n\noptions:\n",
                description_.c_str(), prog.c_str());
    for (const auto &opt : options_) {
        std::string left = "  --" + opt.name;
        if (opt.kind != Kind::Flag)
            left += " <value>";
        std::printf("%-32s %s\n", left.c_str(), opt.help.c_str());
    }
    std::printf("%-32s %s\n", "  --help", "show this message");
}

bool
OptionParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(argv[0]);
            return false;
        }
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '" + arg + "' (options start with --)");
        arg = arg.substr(2);

        std::string name = arg;
        std::string value;
        bool have_value = false;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            have_value = true;
        }

        const Option *opt = find(name);
        if (opt == nullptr)
            fatal("unknown option --" + name);

        if (!have_value) {
            if (opt->kind == Kind::Flag) {
                value = "true";
            } else {
                if (i + 1 >= argc)
                    fatal("option --" + name + " expects a value");
                value = argv[++i];
            }
        }
        apply(*opt, value);
    }
    return true;
}

} // namespace copra
