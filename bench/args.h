// bench::Args — the one command-line parser every bench binary and tool
// shares. Flags are *declared* (name, help text, typed destination) before
// parse(); in exchange every binary gets --help for free, an error (not
// silence) on unknown or malformed flags, and a uniform `--name=value`
// spelling for the knobs that recur across benches (--threads=, --scheme=,
// --backend=). The declarations double as documentation: markdown() renders
// the flag table EXPERIMENTS.md embeds.
//
//   int main(int argc, char** argv) {
//     bench::Args args("fig1_clomp", "CLOMP weak-scaling sweep (Figure 1)");
//     int threads = 0;
//     args.add_int("threads", "run only this thread count (0 = sweep)",
//                  &threads);
//     if (!args.parse(argc, argv)) return args.exit_code();
//     ...
//   }
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace tsxhpc::bench {

class Args {
 public:
  Args(std::string prog, std::string summary)
      : prog_(std::move(prog)), summary_(std::move(summary)) {}

  // --- Flag declarations (call before parse) ------------------------------

  /// `--name` (presence) or `--name=0|1|true|false`.
  void add_bool(const std::string& name, const std::string& help, bool* out) {
    add(name, help, *out ? "true" : "false", Kind::kBool, out);
  }
  void add_int(const std::string& name, const std::string& help, int* out) {
    add(name, help, std::to_string(*out), Kind::kInt, out);
  }
  void add_size(const std::string& name, const std::string& help,
                std::size_t* out) {
    add(name, help, std::to_string(*out), Kind::kSize, out);
  }
  void add_double(const std::string& name, const std::string& help,
                  double* out) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", *out);
    add(name, help, buf, Kind::kDouble, out);
  }
  void add_string(const std::string& name, const std::string& help,
                  std::string* out) {
    add(name, help, out->empty() ? "" : *out, Kind::kString, out);
  }
  /// String flag restricted to a fixed value set. A value outside `choices`
  /// is a usage error (exit 2) that names the valid set — the one place
  /// every enum-like flag gets its validation, instead of each bench
  /// re-implementing (or forgetting) the check. An empty *out default means
  /// "flag not given"; the empty string itself is not a valid value.
  void add_choice(const std::string& name, const std::string& help,
                  std::string* out, std::vector<std::string> choices) {
    add(name, help, out->empty() ? "" : *out, Kind::kChoice, out);
    flags_.back().choices = std::move(choices);
  }
  /// String flag whose value is optional: bare `--name` assigns
  /// `bare_value`, `--name=v` assigns v (tsx_report's `--sets[=level]`).
  void add_opt_string(const std::string& name, const std::string& help,
                      std::string* out, const std::string& bare_value) {
    add(name, help, out->empty() ? "" : *out, Kind::kOptString, out);
    flags_.back().bare_value = bare_value;
  }

  /// Bare (non `--`) argument, filled in declaration order.
  void add_positional(const std::string& name, const std::string& help,
                      std::string* out, bool required) {
    positionals_.push_back(Positional{name, help, out, required});
  }

  /// Collect unrecognized arguments here instead of erroring — for binaries
  /// that forward them to another library's own parser (micro_sync hands
  /// google-benchmark its --benchmark_* flags).
  void set_passthrough(std::vector<std::string>* out) { passthrough_ = out; }

  // --- Parsing ------------------------------------------------------------

  /// Returns true when the program should proceed. False means either
  /// --help was printed (exit_code() == 0) or a usage error was reported on
  /// stderr (exit_code() == 2).
  bool parse(int argc, char** argv) {
    std::size_t next_pos = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::fputs(usage().c_str(), stdout);
        exit_code_ = 0;
        return false;
      }
      if (arg.rfind("--", 0) != 0) {
        if (next_pos < positionals_.size()) {
          *positionals_[next_pos++].out = arg;
          continue;
        }
        if (passthrough_) {
          passthrough_->push_back(arg);
          continue;
        }
        return error("unexpected argument '" + arg + "'");
      }
      const std::size_t eq = arg.find('=');
      const std::string name =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      Flag* f = find(name);
      if (!f) {
        if (passthrough_) {
          passthrough_->push_back(arg);
          continue;
        }
        return error("unknown flag '--" + name + "'");
      }
      if (eq == std::string::npos) {
        if (f->kind == Kind::kOptString) {
          *static_cast<std::string*>(f->out) = f->bare_value;
          continue;
        }
        if (f->kind != Kind::kBool) {
          return error("flag '--" + name + "' requires a value (--" + name +
                       "=...)");
        }
        *static_cast<bool*>(f->out) = true;
        continue;
      }
      if (f->kind == Kind::kChoice) {
        const std::string v = arg.substr(eq + 1);
        bool known = false;
        for (const std::string& c : f->choices) known |= c == v;
        if (!known) {
          return error("bad value for '--" + name + "': '" + v +
                       "' (expected " + spell_choices(f->choices) + ")");
        }
        *static_cast<std::string*>(f->out) = v;
        continue;
      }
      if (!assign(*f, arg.substr(eq + 1))) {
        return error("bad value for '--" + name + "': '" + arg.substr(eq + 1) +
                     "'");
      }
    }
    for (std::size_t p = next_pos; p < positionals_.size(); ++p) {
      if (positionals_[p].required) {
        return error("missing required argument <" + positionals_[p].name +
                     ">");
      }
    }
    return true;
  }

  int exit_code() const { return exit_code_; }

  /// Report a post-parse validation failure (bad flag combination, value out
  /// of range) with the same formatting as parse errors; returns the exit
  /// code to return from main.
  int fail(const std::string& msg) {
    error(msg);
    return exit_code_;
  }

  // --- Rendering ----------------------------------------------------------

  std::string usage() const {
    std::string u = prog_ + " — " + summary_ + "\n\nusage: " + prog_;
    for (const Positional& p : positionals_) {
      u += p.required ? " <" + p.name + ">" : " [" + p.name + "]";
    }
    u += " [flags]\n";
    if (!positionals_.empty()) {
      u += "\narguments:\n";
      for (const Positional& p : positionals_) {
        u += "  " + pad(p.name, 24) + p.help + "\n";
      }
    }
    u += "\nflags:\n";
    for (const Flag& f : flags_) {
      std::string left = "--" + f.name;
      if (f.kind == Kind::kOptString) {
        left += std::string("[=<") + type_name(f.kind) + ">]";
      } else if (f.kind == Kind::kChoice) {
        left += "=<" + bar_choices(f.choices) + ">";
      } else if (f.kind != Kind::kBool) {
        left += std::string("=<") + type_name(f.kind) + ">";
      }
      std::string right = f.help;
      if (!f.def.empty() && f.def != "false") right += " [default: " + f.def + "]";
      u += "  " + pad(left, 24) + right + "\n";
    }
    u += "  " + pad("--help", 24) + "print this message\n";
    if (passthrough_) {
      u += "\nunrecognized flags are forwarded (google-benchmark options"
           " work as usual)\n";
    }
    return u;
  }

  /// One markdown table row per flag — EXPERIMENTS.md's CLI reference is
  /// generated from these (see docs/EXPERIMENTS.md "Bench CLI reference").
  std::string markdown() const {
    std::string md = "| flag | default | description |\n|---|---|---|\n";
    for (const Flag& f : flags_) {
      std::string spelled = "`--" + f.name;
      if (f.kind == Kind::kOptString) {
        spelled += std::string("[=<") + type_name(f.kind) + ">]";
      } else if (f.kind == Kind::kChoice) {
        spelled += "=<" + bar_choices(f.choices) + ">";
      } else if (f.kind != Kind::kBool) {
        spelled += std::string("=<") + type_name(f.kind) + ">";
      }
      spelled += "`";
      md += "| " + spelled + " | " + (f.def.empty() ? "—" : "`" + f.def + "`") +
            " | " + f.help + " |\n";
    }
    return md;
  }

 private:
  enum class Kind { kBool, kInt, kSize, kDouble, kString, kOptString, kChoice };

  struct Flag {
    std::string name;
    std::string help;
    std::string def;
    Kind kind;
    void* out;
    std::string bare_value;  // kOptString only: value a bare `--name` assigns
    std::vector<std::string> choices;  // kChoice only: the valid value set
  };
  struct Positional {
    std::string name;
    std::string help;
    std::string* out;
    bool required;
  };

  void add(const std::string& name, const std::string& help,
           const std::string& def, Kind kind, void* out) {
    flags_.push_back(Flag{name, help, def, kind, out, {}, {}});
  }

  /// "a, b or c" — the spelling usage errors and help text use for a choice
  /// flag's valid set.
  static std::string spell_choices(const std::vector<std::string>& choices) {
    std::string s;
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (i != 0) s += i + 1 == choices.size() ? " or " : ", ";
      s += choices[i];
    }
    return s;
  }

  Flag* find(const std::string& name) {
    for (Flag& f : flags_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  static bool assign(Flag& f, const std::string& v) {
    char* end = nullptr;
    switch (f.kind) {
      case Kind::kBool:
        if (v == "1" || v == "true") { *static_cast<bool*>(f.out) = true; return true; }
        if (v == "0" || v == "false") { *static_cast<bool*>(f.out) = false; return true; }
        return false;
      case Kind::kInt: {
        const long n = std::strtol(v.c_str(), &end, 10);
        if (v.empty() || *end != '\0') return false;
        *static_cast<int*>(f.out) = static_cast<int>(n);
        return true;
      }
      case Kind::kSize: {
        const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        if (v.empty() || *end != '\0' || v[0] == '-') return false;
        *static_cast<std::size_t*>(f.out) = static_cast<std::size_t>(n);
        return true;
      }
      case Kind::kDouble: {
        const double d = std::strtod(v.c_str(), &end);
        if (v.empty() || *end != '\0') return false;
        *static_cast<double*>(f.out) = d;
        return true;
      }
      case Kind::kString:
      case Kind::kOptString:
        *static_cast<std::string*>(f.out) = v;
        return true;
      case Kind::kChoice:  // parse() validates and stores choices itself
        return false;
    }
    return false;
  }

  static const char* type_name(Kind k) {
    switch (k) {
      case Kind::kBool: return "bool";
      case Kind::kInt: return "int";
      case Kind::kSize: return "n";
      case Kind::kDouble: return "float";
      case Kind::kString: return "str";
      case Kind::kOptString: return "str";
      case Kind::kChoice: return "choice";
    }
    return "?";
  }

  /// "a|b|c" — the spelling --help and the markdown table use for a choice
  /// flag's value slot.
  static std::string bar_choices(const std::vector<std::string>& choices) {
    std::string s;
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (i != 0) s += '|';
      s += choices[i];
    }
    return s;
  }

  static std::string pad(std::string s, std::size_t w) {
    if (s.size() < w) s += std::string(w - s.size(), ' ');
    else s += "  ";
    return s;
  }

  bool error(const std::string& msg) {
    std::fprintf(stderr, "%s: %s\n(run with --help for usage)\n",
                 prog_.c_str(), msg.c_str());
    exit_code_ = 2;
    return false;
  }

  std::string prog_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
  std::vector<std::string>* passthrough_ = nullptr;
  int exit_code_ = 0;
};

}  // namespace tsxhpc::bench
