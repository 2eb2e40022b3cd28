#pragma once
// FaultInjector — a process-wide seam for forcing failures inside the
// serving pipeline.
//
// The service fires a site marker at each stage boundary (label decode,
// prover plan build, verification sweep, session batch).  Tests arm a hook
// that may throw (the exception fails the job at that stage) or sleep
// (latency injection); production never arms anything, so the cost on the
// hot path is one relaxed atomic load.
//
// The hook runs on whatever pool thread hit the site, so it must be
// thread-safe.  The hook is copied under a mutex and invoked outside it (a
// sleeping hook must not serialize other sites), so a fire() already past
// the armed check may still complete with the previous hook after disarm()
// returns — tests drain the service before disarming.
//
// Scope: this is a test seam, deliberately global (the sites live deep in
// the service where threading a per-instance injector through every layer
// would contaminate the API).  Tests arm it, run, disarm — see
// tests/test_fault.cpp; FaultScope below makes that exception-safe.

#include <atomic>
#include <functional>

namespace lanecert::serve {

/// Stage boundaries at which faults can be injected.
enum class FaultSite {
  kDecode,     ///< label payload about to be decoded (openVerifySession,
               ///< runVerify)
  kPlanBuild,  ///< prover head build about to run (runProve, miss path)
  kSweep,      ///< verification sweep about to run (runVerify, session
               ///< driver batch)
  kSnapshotLoad,  ///< plan snapshot about to be loaded (runProve, miss
                  ///< path; a fault here degrades to a fresh build)
};

[[nodiscard]] const char* faultSiteName(FaultSite site);

class FaultInjector {
 public:
  using Hook = std::function<void(FaultSite)>;

  /// Installs `hook`; every subsequent fire() calls it.  Replaces any
  /// previous hook.
  static void arm(Hook hook);
  /// Removes the hook.  After return no NEW fire() observes it.
  static void disarm();
  /// Called by the service at each site.  No-op unless armed; exceptions
  /// thrown by the hook propagate to the calling stage.
  static void fire(FaultSite site);
  [[nodiscard]] static bool armed();
};

/// RAII arm/disarm for tests.
class FaultScope {
 public:
  explicit FaultScope(FaultInjector::Hook hook) {
    FaultInjector::arm(std::move(hook));
  }
  ~FaultScope() { FaultInjector::disarm(); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
};

}  // namespace lanecert::serve
