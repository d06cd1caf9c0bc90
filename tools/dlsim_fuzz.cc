/**
 * @file
 * dlsim_fuzz: adversarial fuzzer for the ABTB correctness contract.
 *
 * Every case runs the workload under the LockstepChecker oracle
 * (src/check): a functional reference core re-executes the retired
 * stream and any architectural divergence, stale substitution, or
 * flush-accounting violation fails the case.
 *
 * Modes:
 *   dlsim_fuzz --smoke
 *       Run the deterministic smoke corpus (hand-picked archetypes +
 *       seeded cases) and assert the corpus actually exercised the
 *       mechanism (substitutions, store/coherence flushes > 0).
 *   dlsim_fuzz --inject-bug
 *       Demo: enable the buggySuppressStoreFlush fault injection and
 *       verify the oracle catches it; then verify the same case is
 *       clean without the bug. Exits 0 iff both hold.
 *   dlsim_fuzz --seeds A:B [--shrink-budget N]
 *       Fuzz seeds A..B via caseFromSeed. On failure, greedily
 *       shrink and print a replayable command line.
 *   dlsim_fuzz [case flags]
 *       Replay a single case (the command line printed on failure).
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "check/fuzz.hh"
#include "parse_count.hh"

namespace
{

using dlsim::check::FuzzCase;
using dlsim::check::FuzzResult;

void
printResult(const FuzzCase &c, const FuzzResult &r)
{
    std::cout << "case: " << dlsim::check::reproLine(c) << "\n"
              << "  " << (r.passed ? "PASS" : "FAIL") << "\n"
              << "  checked retires      " << r.stats.checkedRetires
              << "\n"
              << "  verified skips       "
              << r.stats.verifiedSubstitutions << "\n"
              << "  resolver replays     " << r.stats.resolverReplays
              << "\n"
              << "  walked insts         "
              << r.stats.walkedInstructions << "\n"
              << "  external writes      " << r.stats.externalWrites
              << "\n"
              << "  substitutions        " << r.substitutions << "\n"
              << "  store flushes        " << r.storeFlushes << "\n"
              << "  coherence flushes    " << r.coherenceFlushes
              << "\n"
              << "  ctx-switch flushes   " << r.contextSwitchFlushes
              << "\n"
              << "  explicit flushes     " << r.explicitFlushes
              << "\n";
    if (!r.passed)
        std::cout << r.failure << "\n";
}

int
runSmoke()
{
    const auto cases = dlsim::check::smokeCases();
    FuzzResult agg;
    int failures = 0;
    for (const auto &c : cases) {
        const auto r = dlsim::check::runCase(c);
        if (!r.passed) {
            ++failures;
            std::cerr << "smoke FAIL: "
                      << dlsim::check::reproLine(c) << "\n"
                      << r.failure << "\n";
        }
        agg.stats.checkedRetires += r.stats.checkedRetires;
        agg.stats.verifiedSubstitutions +=
            r.stats.verifiedSubstitutions;
        agg.stats.resolverReplays += r.stats.resolverReplays;
        agg.stats.externalWrites += r.stats.externalWrites;
        agg.stats.walkedInstructions += r.stats.walkedInstructions;
        agg.substitutions += r.substitutions;
        agg.storeFlushes += r.storeFlushes;
        agg.coherenceFlushes += r.coherenceFlushes;
        agg.contextSwitchFlushes += r.contextSwitchFlushes;
        agg.explicitFlushes += r.explicitFlushes;
    }

    std::cout << "smoke corpus: " << cases.size() << " cases, "
              << failures << " failures\n"
              << "  checked retires      "
              << agg.stats.checkedRetires << "\n"
              << "  verified skips       "
              << agg.stats.verifiedSubstitutions << "\n"
              << "  resolver replays     "
              << agg.stats.resolverReplays << "\n"
              << "  external writes      " << agg.stats.externalWrites
              << "\n"
              << "  substitutions        " << agg.substitutions
              << "\n"
              << "  store flushes        " << agg.storeFlushes << "\n"
              << "  coherence flushes    " << agg.coherenceFlushes
              << "\n"
              << "  ctx-switch flushes   " << agg.contextSwitchFlushes
              << "\n"
              << "  explicit flushes     " << agg.explicitFlushes
              << "\n";

    if (failures)
        return 1;

    // The corpus must actually exercise the contract, or a silent
    // regression (e.g. the mechanism never engaging) would read as
    // "all clean".
    const auto require = [&](bool ok, const char *what) {
        if (!ok) {
            std::cerr << "smoke corpus too weak: " << what
                      << " is zero\n";
            ++failures;
        }
    };
    require(agg.stats.checkedRetires > 0, "checked retires");
    require(agg.stats.verifiedSubstitutions > 0, "verified skips");
    require(agg.stats.resolverReplays > 0, "resolver replays");
    require(agg.stats.externalWrites > 0, "external writes");
    require(agg.substitutions > 0, "substitutions");
    require(agg.storeFlushes > 0, "store flushes");
    require(agg.coherenceFlushes > 0, "coherence flushes");
    require(agg.contextSwitchFlushes > 0, "context-switch flushes");
    require(agg.explicitFlushes > 0, "explicit flushes");
    return failures ? 1 : 0;
}

int
runInjectBug()
{
    // A hot, small import set keeps ABTB entries live; rebind events
    // rewrite their GOT slots mid-run. With the §3.2 store flush
    // suppressed, a stale entry survives and the next substitution
    // diverges from the architectural path.
    FuzzCase c;
    c.seed = 7001;
    c.requests = 14;
    c.eventsMask = dlsim::check::EvRebind;
    c.eventCount = 10;
    c.numLibs = 2;
    c.funcsPerLib = 8;
    c.calledImports = 6;

    FuzzCase buggy = c;
    buggy.injectFlushSuppression = true;
    const auto caught = dlsim::check::runCase(buggy);
    if (caught.passed) {
        std::cerr << "inject-bug: oracle FAILED to catch the "
                     "suppressed store flush\n";
        printResult(buggy, caught);
        return 1;
    }
    std::cout << "inject-bug: oracle caught the planted bug:\n"
              << caught.failure << "\n";

    const auto clean = dlsim::check::runCase(c);
    if (!clean.passed) {
        std::cerr << "inject-bug: control case (no bug) FAILED:\n"
                  << clean.failure << "\n";
        return 1;
    }
    std::cout << "inject-bug: control case clean ("
              << clean.stats.verifiedSubstitutions
              << " verified skips)\n";
    return 0;
}

int
runSeeds(std::uint64_t lo, std::uint64_t hi,
         std::uint32_t shrink_budget)
{
    int failures = 0;
    for (std::uint64_t seed = lo; seed <= hi; ++seed) {
        const auto c = dlsim::check::caseFromSeed(seed);
        const auto r = dlsim::check::runCase(c);
        if (r.passed) {
            std::cout << "seed " << seed << ": PASS ("
                      << r.stats.checkedRetires << " retires, "
                      << r.stats.verifiedSubstitutions
                      << " verified skips)\n";
            continue;
        }
        ++failures;
        std::string why = r.failure;
        const auto small =
            dlsim::check::shrinkCase(c, shrink_budget, &why);
        std::cerr << "seed " << seed << ": FAIL\n"
                  << why << "\n"
                  << "reproduce: " << dlsim::check::reproLine(small)
                  << "\n";
    }
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool inject = false;
    bool have_seeds = false;
    std::uint64_t seed_lo = 0, seed_hi = 0;
    std::uint32_t shrink_budget = 48;
    FuzzCase c;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        // A decimal count no larger than `max`: exit 2 on anything
        // else, as the other tools do.
        const auto count = [&](std::string_view text,
                               std::uint64_t max) {
            try {
                return dlsim::bench::parseCount(arg, text, max);
            } catch (const std::invalid_argument &e) {
                std::cerr << e.what() << "\n";
                std::exit(2);
            }
        };
        const auto u32 = [&] {
            return static_cast<std::uint32_t>(
                count(next(), UINT32_MAX));
        };
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--inject-bug") {
            inject = true;
        } else if (arg == "--seeds") {
            const std::string v = next();
            const auto colon = v.find(':');
            seed_lo = count(v.substr(0, colon), UINT64_MAX);
            seed_hi = colon == std::string::npos
                          ? seed_lo
                          : count(v.substr(colon + 1), UINT64_MAX);
            have_seeds = true;
        } else if (arg == "--shrink-budget") {
            shrink_budget = u32();
        } else if (arg == "--seed") {
            c.seed = count(next(), UINT64_MAX);
        } else if (arg == "--cores") {
            c.cores = u32();
        } else if (arg == "--requests") {
            c.requests = u32();
        } else if (arg == "--server") {
            c.server = true;
        } else if (arg == "--sample") {
            c.sample = next();
        } else if (arg == "--base-machine") {
            c.baseMachine = true;
        } else if (arg == "--tenants") {
            c.tenants = u32();
        } else if (arg == "--events") {
            c.eventsMask = u32();
        } else if (arg == "--event-count") {
            c.eventCount = u32();
        } else if (arg == "--abtb-entries") {
            c.abtbEntries = u32();
        } else if (arg == "--abtb-assoc") {
            c.abtbAssoc = u32();
        } else if (arg == "--bloom-bits") {
            c.bloomBits = u32();
        } else if (arg == "--bloom-hashes") {
            c.bloomHashes = u32();
        } else if (arg == "--num-libs") {
            c.numLibs = u32();
        } else if (arg == "--funcs-per-lib") {
            c.funcsPerLib = u32();
        } else if (arg == "--called-imports") {
            c.calledImports = u32();
        } else if (arg == "--steps") {
            c.stepsPerRequest = u32();
        } else if (arg == "--explicit-invalidation") {
            c.explicitInvalidation = true;
        } else if (arg == "--asid-retention") {
            c.asidRetention = true;
        } else if (arg == "--arm-plt") {
            c.armPlt = true;
        } else if (arg == "--eager-binding") {
            // Back-compat alias for --bind-policy now.
            c.bindPolicy = dlsim::linker::BindPolicy::Now;
        } else if (arg == "--bind-policy") {
            try {
                c.bindPolicy =
                    dlsim::linker::parseBindPolicy(next());
            } catch (const std::exception &e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        } else if (arg == "--aslr") {
            c.aslr = true;
        } else if (arg == "--inject-bug-config") {
            c.injectFlushSuppression = true;
        } else {
            std::cerr << "unknown flag " << arg << "\n"
                      << "modes: --smoke | --inject-bug | "
                         "--seeds A:B [--shrink-budget N] | "
                         "[case flags] (see docs/testing.md)\n";
            return 2;
        }
    }

    if (smoke)
        return runSmoke();
    if (inject)
        return runInjectBug();
    if (have_seeds)
        return runSeeds(seed_lo, seed_hi, shrink_budget);

    const auto r = dlsim::check::runCase(c);
    printResult(c, r);
    return r.passed ? 0 : 1;
}
