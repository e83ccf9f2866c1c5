// Tests for the fault registry (util/fault): the table-driven parser, the
// catalogue (docs and the malformed-spec message list every directive),
// child-scope forwarding, SDD_FAULT hand-off to soak drivers, a seeded
// mutation test of the parser, and the shared hook counters under threads.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDD_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SDD_TSAN 1
#endif

namespace sdd {
namespace {

using fault::Arg;
using fault::Directive;
using fault::Fault;
using fault::kDirectives;

// One valid spelling of each row, the alias form where the row has one.
std::string example(const Directive& row) {
  const std::string name{row.name};
  switch (row.arg) {
    case Arg::kFlag: return name;
    case Arg::kOrdinal: return name + ":" + std::string{row.alias} + "3";
    case Arg::kDelay: return name + ":ms=5";
    case Arg::kProb: return name + ":p=0.5";
    case Arg::kOptProb: return name;
    case Arg::kParam:
      return name + ":" + std::to_string(std::max<std::int64_t>(row.min, 2));
    case Arg::kMode: return name + ":throw";
  }
  return name;
}

bool arms_itself(const Directive& row) {
  return row.arg != Arg::kParam && row.arg != Arg::kMode;
}

TEST(FaultRegistry, EveryRowParsesAndArmsOnlyItself) {
  for (const Directive& row : kDirectives) {
    SCOPED_TRACE(example(row));
    const fault::FaultConfig config = fault::parse_fault_spec(example(row));
    EXPECT_EQ(config.any(), arms_itself(row));
    for (const Directive& other : kDirectives) {
      EXPECT_EQ(config.armed(other.id),
                other.id == row.id && arms_itself(row));
    }
    // An unknown argument form is rejected, never half-applied.
    if (row.arg != Arg::kFlag && row.arg != Arg::kOptProb) {
      EXPECT_THROW(fault::parse_fault_spec(std::string{row.name} + ":zz"),
                   std::invalid_argument);
    }
  }
}

TEST(FaultRegistry, DefaultsComeFromTheTable) {
  const fault::FaultConfig config;
  for (const Directive& row : kDirectives) {
    EXPECT_EQ(config[row.id], row.fallback) << row.name;
    EXPECT_FALSE(config.armed(row.id)) << row.name;
  }
  EXPECT_EQ(config[Fault::kReplicaFailN], 6);
  EXPECT_EQ(config[Fault::kHangCap], 60'000);
}

// The message printed with a malformed SDD_FAULT lists every directive.
TEST(FaultRegistry, UsageListsEveryDirective) {
  const std::string usage = fault::usage();
  std::vector<std::string> listed;
  std::stringstream items{usage.substr(usage.find(": ") + 2)};
  for (std::string item; std::getline(items, item, ',');) {
    item.erase(0, item.find_first_not_of(' '));
    listed.push_back(item.substr(0, item.find_first_of(":[ ")));
  }
  for (const Directive& row : kDirectives) {
    EXPECT_NE(std::find(listed.begin(), listed.end(), row.name), listed.end())
        << row.name;
  }
  EXPECT_NE(usage.find("child.<directive>"), std::string::npos);
}

// The fault section of docs/robustness.md is the operator-facing catalogue.
TEST(FaultRegistry, EveryDirectiveIsDocumented) {
  std::ifstream in{std::string{SDD_SOURCE_DIR} + "/docs/robustness.md"};
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  const std::size_t begin = doc.find("## Fault injection");
  ASSERT_NE(begin, std::string::npos);
  const std::string section =
      doc.substr(begin, doc.find("\n## ", begin + 1) - begin);
  for (const Directive& row : kDirectives) {
    const std::string token = std::string{"`"}.append(row.name);
    EXPECT_NE(section.find(token), std::string::npos)
        << row.name << " is missing from docs/robustness.md";
  }
  EXPECT_NE(section.find("`child."), std::string::npos);
}

TEST(FaultRegistry, ChildScopeIsForwardedNotArmed) {
  const fault::FaultConfig config = fault::parse_fault_spec(
      "orch_crash:2,child.worker_kill9:at=0,child.child.io_fail:p=1,"
      "child.claim_race");
  EXPECT_TRUE(config.armed(Fault::kOrchCrash));
  EXPECT_FALSE(config.armed(Fault::kWorkerKill9));
  EXPECT_FALSE(config.armed(Fault::kIoFail));
  EXPECT_FALSE(config.armed(Fault::kClaimRace));
  EXPECT_EQ(config.child, "worker_kill9:at=0,child.io_fail:p=1,claim_race");

  const fault::FaultConfig child = fault::parse_fault_spec(config.child);
  EXPECT_TRUE(child.armed(Fault::kWorkerKill9));
  EXPECT_TRUE(child.armed(Fault::kClaimRace));
  EXPECT_FALSE(child.armed(Fault::kIoFail));
  EXPECT_EQ(child.child, "io_fail:p=1");

  // A child-only spec arms nothing here but stays visible for forwarding.
  fault::configure("child.replica_kill9:at=2,replica_idx:1");
  EXPECT_FALSE(fault::enabled());
  EXPECT_EQ(fault::active().child, "replica_kill9:at=2");
  EXPECT_EQ(fault::active()[Fault::kReplicaIdx], 1);
  fault::reset();
  EXPECT_EQ(fault::active().child, "");

  // A typo inside the child scope fails in the parent.
  EXPECT_THROW(fault::parse_fault_spec("child.worker_kil9:0"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("child.child.io_fail:p=2"),
               std::invalid_argument);
  EXPECT_EQ(fault::parse_fault_spec("child.,child.child.").child, "");
}

TEST(FaultRegistry, TakeEnvSpecKeepsSetupFaultFree) {
  ASSERT_EQ(::setenv("SDD_FAULT", "nan_decode:0", 1), 0);
  const std::string spec = fault::take_env_spec();
  EXPECT_EQ(spec, "nan_decode:0");
  // Lazy arming is off: setup work sees no faults.
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::should_poison_logits());
  // The driver arms the spec itself once setup is done.
  fault::configure(spec);
  EXPECT_TRUE(fault::should_poison_logits());
  EXPECT_FALSE(fault::should_poison_logits());
  fault::reset();
  ::unsetenv("SDD_FAULT");
}

// A counted hook is bumped from server and router threads at once; the
// shared counter must hand out every ordinal exactly once.
TEST(FaultRegistry, CountedHookFiresOnceAcrossThreads) {
  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 250;
  for (const std::int64_t target : {0, 777, 1999}) {
    fault::configure("nan_decode:" + std::to_string(target) +
                     ",replica_fail:" + std::to_string(target) +
                     ",replica_fail_n:1");
    std::atomic<int> poisoned{0};
    std::atomic<int> failed{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kCallsPerThread; ++i) {
          if (fault::should_poison_logits()) poisoned.fetch_add(1);
          if (fault::should_fail_replica(0)) failed.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    fault::reset();
    EXPECT_EQ(poisoned.load(), 1) << "target " << target;
    EXPECT_EQ(failed.load(), 1) << "target " << target;
  }
}

// Seeded mutation test: start from every catalogue directive, then
// truncate, flip bits, duplicate or reorder comma-separated parts, and
// insert stray child. prefixes. Every result must parse or throw
// std::invalid_argument — never crash, hang, or throw anything else — and
// a spec that parses must forward a child scope that parses too.
TEST(FaultRegistry, MutatedSpecsParseOrThrow) {
  std::vector<std::string> pool;
  for (const Directive& row : kDirectives) pool.push_back(example(row));
  Rng rng{20251017};
  int parsed = 0;
  int rejected = 0;
  for (int round = 0; round < 20'000; ++round) {
    std::vector<std::string> parts;
    const std::size_t n_parts = 1 + rng.index(4);
    for (std::size_t i = 0; i < n_parts; ++i) {
      parts.push_back(pool[rng.index(pool.size())]);
    }
    const std::size_t n_mutations = 1 + rng.index(3);
    for (std::size_t m = 0; m < n_mutations; ++m) {
      std::string& part = parts[rng.index(parts.size())];
      switch (rng.index(5)) {
        case 0:  // truncate
          part.resize(rng.index(part.size() + 1));
          break;
        case 1:  // flip one bit of one byte
          if (!part.empty()) {
            part[rng.index(part.size())] ^=
                static_cast<char>(1 << rng.index(8));
          }
          break;
        case 2: {  // duplicate a part
          const std::string copy = parts[rng.index(parts.size())];
          parts.push_back(copy);
          break;
        }
        case 3:  // reorder two parts
          std::swap(parts[rng.index(parts.size())],
                    parts[rng.index(parts.size())]);
          break;
        case 4:  // stray child. prefix, anywhere in the part
          part.insert(rng.index(part.size() + 1), "child.");
          break;
      }
    }
    std::string spec;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      spec += (i == 0 ? "" : ",") + parts[i];
    }
    try {
      const fault::FaultConfig config = fault::parse_fault_spec(spec);
      EXPECT_NO_THROW(fault::parse_fault_spec(config.child)) << spec;
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  // Both outcomes are exercised, so the generator is neither too timid nor
  // too destructive.
  EXPECT_GT(parsed, 1000);
  EXPECT_GT(rejected, 1000);
}

#if !defined(SDD_TSAN)
// Fork-based: a malformed SDD_FAULT still terminates with EX_USAGE (64) and
// the generated directive list.
TEST(FaultRegistryFork, MalformedEnvSpecExits64) {
  EXPECT_EXIT(
      {
        ::setenv("SDD_FAULT", "crash_at_step:soon", 1);
        fault::take_env_spec();
      },
      ::testing::ExitedWithCode(64), "valid directives: .*hang_cap:N");
}
#endif  // !SDD_TSAN

}  // namespace
}  // namespace sdd
