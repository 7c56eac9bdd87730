#pragma once

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace h2sim::obs {

/// The mutable observability state one simulation writes: a metrics registry,
/// a tracer, and a wall-time profiler. Every instrumented component resolves
/// these through the *current* context (see below) instead of a process-wide
/// singleton, so concurrent trials — each with its own Context — never share
/// mutable state.
struct Context {
  MetricsRegistry metrics;
  Tracer tracer;
  Profiler profiler;

  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
};

/// The process-default context: what current() falls back to when no
/// ScopedContext is installed, so a standalone run_trial() on the main
/// thread reports here and obs::metrics() / obs::tracer() read it back.
Context& default_context();

/// The context in force on this thread: the innermost ScopedContext, or
/// default_context() when none is installed.
Context& current();

/// Shorthands for the current context's members. These are the accessors all
/// instrumented components use; they cost one thread-local pointer read.
MetricsRegistry& metrics();
Tracer& tracer();

/// Installs `ctx` as the calling thread's current context for the scope's
/// lifetime, restoring the previous context (usually none) on destruction.
/// The parallel trial runner wraps each trial in one of these so per-packet
/// instrumentation lands in trial-private storage.
class ScopedContext {
 public:
  explicit ScopedContext(Context& ctx);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context* prev_;
};

}  // namespace h2sim::obs
