#pragma once
// The campaign loop shared by the seeded fuzzers (fuzz_cert, fuzz_wire,
// fuzz_snapshot).  A tool supplies its corpus, a deterministic iteration
// function and its own counters; this header owns the rest of the contract:
//
//  * flags: --seed, --iters, --budget-seconds, --artifact-dir,
//    --progress-file, --replay and --quiet, plus the tool's own flags;
//  * iteration `iter` of campaign `seed` draws everything from
//    iterationSeed(seed, iter), so any input regenerates in O(1);
//  * --progress-file is overwritten with "seed iter" BEFORE each iteration,
//    so a sanitizer abort leaves a pointer to the fatal input;
//  * a violation writes <tool>-crash-seed<S>-iter<I>.{bin,txt} under
//    --artifact-dir (created if missing), a finding (worth an audit, breaks
//    no contract) <tool>-finding-...: the input's bytes, then its fields and
//    a replay line that repeats the tool's own flags;
//  * --replay I re-runs iteration I and prints its fields, a hex dump of
//    its bytes and the violations line;
//  * exit code 0 clean, 1 on a violation, 2 on a usage error or an
//    artifact that cannot be written.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "graph/generators.hpp"

namespace lanecert::fuzz {

inline constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

/// The seed iteration `iter` of campaign `seed` draws everything from.
inline std::uint64_t iterationSeed(std::uint64_t seed, std::uint64_t iter) {
  return seed ^ (kGolden * (iter + 1));
}

/// Uniform index in [0, n).
inline std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniformInt(0, static_cast<int>(n) - 1));
}

enum class Verdict { kPass, kFinding, kViolation };

/// What one iteration hands back to the campaign.
struct Outcome {
  Verdict verdict = Verdict::kPass;
  std::string bytes;  ///< the input under test: the artifact's .bin
  /// "name value" lines of the artifact's .txt and the replay printout.
  std::vector<std::pair<const char*, std::string>> fields;
};

class Campaign {
 public:
  Campaign(const char* tool, std::uint64_t defaultIters)
      : tool_(tool), iters_(defaultIters) {}

  /// Declares a tool flag: a switch (`on`) or one taking a number.
  void flag(const char* name, bool* on) { extras_.push_back({name, on, {}}); }
  void flag(const char* name, std::uint64_t* value) {
    extras_.push_back({name, nullptr, value});
  }

  /// Parses argv; prints the usage and returns false on a usage error.
  bool parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto needsValue = [&](std::string_view flag) {
        if (arg != flag) return false;
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s needs a value\n", argv[i]);
          std::exit(2);
        }
        ++i;
        return true;
      };
      if (needsValue("--seed")) {
        seed_ = std::strtoull(argv[i], nullptr, 10);
      } else if (needsValue("--iters")) {
        iters_ = std::strtoull(argv[i], nullptr, 10);
      } else if (needsValue("--budget-seconds")) {
        budgetSeconds_ = std::strtod(argv[i], nullptr);
      } else if (needsValue("--artifact-dir")) {
        artifactDir_ = argv[i];
      } else if (needsValue("--progress-file")) {
        progressFile_ = argv[i];
      } else if (needsValue("--replay")) {
        replay_ = std::strtoll(argv[i], nullptr, 10);
      } else if (arg == "--quiet") {
        quiet_ = true;
      } else if (!parseExtra(arg, [&](const char* flag) {
                   return needsValue(flag) ? argv[i] : nullptr;
                 })) {
        std::string usage = "usage: " + std::string(tool_) +
                            " [--seed N] [--iters N] [--budget-seconds S]"
                            " [--artifact-dir DIR] [--progress-file PATH]"
                            " [--replay ITER] [--quiet]";
        for (const Extra& e : extras_) {
          usage += std::string(" [") + e.name + (e.on ? "]" : " N]");
        }
        std::fprintf(stderr, "%s\n", usage.c_str());
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] bool replaying() const { return replay_ >= 0; }

  /// Replays one iteration or runs the campaign, and returns the exit code.
  /// `iterate(iter)` returns the iteration's Outcome; `summary()` prints the
  /// tool's counters below the campaign's header line.
  template <typename Iterate, typename Summary>
  int run(Iterate&& iterate, Summary&& summary) {
    if (replaying()) {
      const Outcome out = iterate(static_cast<std::uint64_t>(replay_));
      std::printf("replay seed=%llu iter=%lld\n",
                  static_cast<unsigned long long>(seed_), replay_);
      for (const auto& [name, value] : out.fields) {
        std::printf("%-8s %s\n", name, value.c_str());
      }
      std::printf("bytes    %zu:\n", out.bytes.size());
      for (std::size_t i = 0; i < out.bytes.size(); ++i) {
        const bool eol = (i + 1) % 16 == 0 || i + 1 == out.bytes.size();
        std::printf("%02x%c", static_cast<unsigned char>(out.bytes[i]),
                    eol ? '\n' : ' ');
      }
      const bool violation = out.verdict == Verdict::kViolation;
      std::printf("violations: %d\n", violation ? 1 : 0);
      return violation ? 1 : 0;
    }
    std::error_code ec;
    std::filesystem::create_directories(artifactDir_, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", artifactDir_.c_str(),
                   ec.message().c_str());
      return 2;
    }
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start] {
      const auto d = std::chrono::steady_clock::now() - start;
      return std::chrono::duration<double>(d).count();
    };
    unsigned long long done = 0;
    unsigned long long violations = 0;
    for (; done < iters_; ++done) {
      if (budgetSeconds_ > 0 && elapsed() >= budgetSeconds_) break;
      if (!progressFile_.empty() &&
          !writeFile(progressFile_, std::to_string(seed_) + " " +
                                        std::to_string(done) + "\n")) {
        return 2;
      }
      const Outcome out = iterate(done);
      if (out.verdict == Verdict::kViolation) ++violations;
      if (out.verdict != Verdict::kPass && !writeArtifact(done, out)) return 2;
    }
    if (!quiet_) {
      std::printf("%s: %llu mutants in %.1fs (seed %llu)\n", tool_, done,
                  elapsed(), static_cast<unsigned long long>(seed_));
      summary();
      std::printf("  violations: %llu\n", violations);
    }
    if (!progressFile_.empty()) std::remove(progressFile_.c_str());
    return violations == 0 ? 0 : 1;
  }

 private:
  struct Extra {
    const char* name;
    bool* on;              ///< a switch, or
    std::uint64_t* value;  ///< a flag taking a number
  };

  /// Sets the tool flag `arg` names and keeps it for the replay line; false
  /// if it names none.  `valueOf(flag)` consumes the flag's value.
  template <typename ValueOf>
  bool parseExtra(std::string_view arg, const ValueOf& valueOf) {
    for (const Extra& e : extras_) {
      if (e.on != nullptr && arg == e.name) {
        *e.on = true;
        replayFlags_ += std::string(" ") + e.name;
        return true;
      }
      if (const char* value = e.value ? valueOf(e.name) : nullptr) {
        *e.value = std::strtoull(value, nullptr, 10);
        replayFlags_ += std::string(" ") + e.name + " " + value;
        return true;
      }
    }
    return false;
  }

  static bool writeFile(const std::string& path, std::string_view bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.close();
    if (f) return true;
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }

  bool writeArtifact(std::uint64_t iter, const Outcome& out) const {
    const bool crash = out.verdict == Verdict::kViolation;
    const std::string stem = artifactDir_ + "/" + tool_ +
                             (crash ? "-crash" : "-finding") + "-seed" +
                             std::to_string(seed_) + "-iter" +
                             std::to_string(iter);
    std::string meta = "seed " + std::to_string(seed_) + "\niter " +
                       std::to_string(iter) + "\n";
    for (const auto& [name, value] : out.fields) {
      meta += std::string(name) + " " + value + "\n";
    }
    meta += "replay " + std::string(tool_) + " --seed " +
            std::to_string(seed_) + " --replay " + std::to_string(iter) +
            replayFlags_ + "\n";
    if (!writeFile(stem + ".bin", out.bytes) ||
        !writeFile(stem + ".txt", meta)) {
      return false;
    }
    std::fprintf(stderr, "%s at iter %llu: wrote %s.{bin,txt}\n",
                 crash ? "VIOLATION" : "finding",
                 static_cast<unsigned long long>(iter), stem.c_str());
    return true;
  }

  const char* tool_;
  std::uint64_t seed_ = 42;
  std::uint64_t iters_;
  double budgetSeconds_ = 0;  ///< 0 = no wall-clock budget
  std::string artifactDir_ = ".";
  std::string progressFile_;
  long long replay_ = -1;
  bool quiet_ = false;
  std::vector<Extra> extras_;
  std::string replayFlags_;  ///< the tool flags given, as on the command line
};

}  // namespace lanecert::fuzz
